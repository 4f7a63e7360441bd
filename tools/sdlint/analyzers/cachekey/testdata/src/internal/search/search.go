// Package search mirrors the answer-cache service surface cachekey
// guards: a Request canonicalized into a comparable key by
// Service.keyOf, with deliberate non-identity fields annotated.
package search

type Kind uint8

type key struct {
	kind Kind
	k    int
}

type Service struct{}

type Request struct {
	Kind Kind
	K    int
	// Unkeyed is the acceptance scenario: an identity-bearing field
	// added without keying or annotating it.
	Unkeyed int // want "Request.Unkeyed is not captured by the cache key"
	//sdlint:nonidentity replayed identically on hits, cannot change the answer
	Yield func(int) bool
	Bare  bool /* want "missing reason" */ //sdlint:nonidentity
	//sdlint:nonidentity claims to be execution plumbing
	Contradict int /* want "marked //sdlint:nonidentity but Service.keyOf consumes it" */
}

func (*Service) keyOf(req Request) key {
	k := key{kind: req.Kind, k: req.K}
	if req.Contradict != 0 {
		k.k++
	}
	return k
}
