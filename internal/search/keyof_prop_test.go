package search

import (
	"reflect"
	"testing"
	"time"

	"smartdrill/internal/brs"
	"smartdrill/internal/rule"
	"smartdrill/internal/score"
	"smartdrill/internal/storage"
	"smartdrill/internal/table"
	"smartdrill/internal/weight"
)

// nonIdentity mirrors the //sdlint:nonidentity comments on Request: fields
// that deliberately stay out of the cache key. The comments are
// documentation; this test is what holds the split, against keyOf's actual
// behavior.
var nonIdentity = map[string]bool{
	"Deadline":     true,
	"Yield":        true,
	"Sampled":      true,
	"Store":        true,
	"Resolve":      true,
	"MaxWeightFor": true,
	"Seed":         true,
	"Workers":      true,
}

func baseRequest() Request {
	return Request{
		Kind:      KindBatch,
		Rule:      rule.Trivial(4).With(0, 1),
		K:         3,
		MaxRules:  5,
		Weighter:  weight.NewSize(4),
		Agg:       score.CountAgg{},
		MaxWeight: 2.5,
		Seed:      7,
		Workers:   2,
	}
}

// mutations sets each Request field to a value different from
// baseRequest's. Reflection walks every field of Request, so adding a
// field without extending this table (and deciding its identity status)
// fails the test.
var mutations = map[string]func(*Request){
	"Kind":      func(r *Request) { r.Kind = KindStream },
	"Rule":      func(r *Request) { r.Rule = r.Rule.With(1, 2) },
	"K":         func(r *Request) { r.K++ },
	"MaxRules":  func(r *Request) { r.MaxRules++ },
	"Weighter":  func(r *Request) { r.Weighter = weight.SizeMinusOne{} },
	"Agg":       func(r *Request) { r.Agg = score.SumAgg{Measure: 0} },
	"MaxWeight": func(r *Request) { r.MaxWeight = 3.5 },
	"Seed":      func(r *Request) { r.Seed = 8 },
	"Workers":   func(r *Request) { r.Workers = 3 },

	"Deadline": func(r *Request) { r.Deadline = time.Unix(1, 0) },
	"Yield":    func(r *Request) { r.Yield = func(brs.Result) bool { return true } },
	"Sampled":  func(r *Request) { r.Sampled = true },
	"Store":    func(r *Request) { r.Store = storage.NewStore(nil) },
	"Resolve": func(r *Request) {
		r.Resolve = func() (*table.View, float64, bool, error) { return nil, 1, true, nil }
	},
	"MaxWeightFor": func(r *Request) { r.MaxWeightFor = func(*table.View) float64 { return 1 } },
}

// TestKeyOfFieldIdentity checks, field by field, that two Requests
// differing in any single identity field never map to the same key, and
// that the annotated non-identity fields never perturb it.
func TestKeyOfFieldIdentity(t *testing.T) {
	s := NewService(Config{})
	base := s.keyOf(baseRequest())
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		mutate, ok := mutations[name]
		if !ok {
			t.Fatalf("Request field %s has no mutation in this test: add one here and decide whether keyOf must consume it", name)
		}
		req := baseRequest()
		mutate(&req)
		got := s.keyOf(req)
		if nonIdentity[name] {
			if got != base {
				t.Errorf("non-identity field %s changed the cache key: either key it for real or fix the annotation", name)
			}
		} else if got == base {
			t.Errorf("identity field %s does not change the cache key: distinct requests would collide in the answer cache", name)
		}
	}
	if miss := len(mutations) - rt.NumField(); miss != 0 {
		t.Errorf("mutations table has %d entries for fields Request no longer declares", miss)
	}
}

// TestKeyOfWideRuleFallback: rules of 20 values key distinctly, against
// each other and against a narrow rule — a rule's key has one form at
// every width, with no fallback for wide rules.
func TestKeyOfWideRuleFallback(t *testing.T) {
	wide := func(firstVal rule.Value) rule.Rule {
		r := rule.Trivial(20)
		for c := range r {
			r[c] = 1
		}
		return r.With(0, firstVal)
	}

	s := NewService(Config{})
	req := baseRequest()
	narrow := s.keyOf(req)

	reqW2 := req
	reqW2.Rule = wide(2)
	reqW3 := req
	reqW3.Rule = wide(3)
	w2, w3 := s.keyOf(reqW2), s.keyOf(reqW3)
	if w2 == w3 {
		t.Error("distinct wide rules map to the same key")
	}
	if w2 == narrow || w3 == narrow {
		t.Error("wide rule collides with a narrow rule's key")
	}
	if again := s.keyOf(reqW2); again != w2 {
		t.Error("keyOf is not deterministic for wide rules")
	}
}
