package server

import (
	"bytes"
	"context"
	"encoding/json"
	"sync/atomic"
	"time"

	"smartdrill"
	"smartdrill/api"
	"smartdrill/internal/guarded"
	"smartdrill/internal/spans"
)

// session is one live drill-down exploration: immutable identity, plus one
// door to everything that changes. The engine, the lock that serializes
// requests on it, and the persistence state live in newSession's closure —
// no other code in the package can name them — so "touch the engine only
// under the session lock" and "bring disk level after every change" are
// not rules callers follow but the only thing they can do.
type session struct {
	id      string
	dataset string
	created time.Time
	// req is the create request that built (or rebuilt) the engine — the
	// immutable recipe persisted in the session's snapshot record so a
	// rehydrating server reconstructs an identically-configured engine.
	req api.CreateSessionRequest

	// do runs fn on the engine under the session lock: the drill tree and
	// the sampling machinery behind it are single-writer structures, so
	// concurrent requests against one session serialize here while distinct
	// sessions proceed fully in parallel. Nodes fn obtains may be carried to
	// a later do, but read or written only inside one. The wait for the lock
	// is ctx's lock span, the write-through below its save span.
	//
	// With a backend configured, do is also the write-through: when fn
	// returns with the engine's revision ahead of the record on disk —
	// because fn changed the tree, or because an earlier write failed — the
	// tree is snapshotted inside the same critical section and saved after
	// the session lock is released (an fsync never blocks the session) and
	// before do returns (a response written after do follows its
	// write-through). A failed save degrades durability, never
	// availability: it is logged and counted, and the next do of any kind
	// retries it. The lock is released by defer, so a panic in fn — which
	// the recovery middleware turns into a 500 — leaves the session usable.
	do func(ctx context.Context, fn func(*smartdrill.Engine))

	// tombstone is DELETE's mark: after it returns (it waits out a save in
	// flight) no do writes this session back, so a request or refiner that
	// still holds the session cannot resurrect its snapshot.
	tombstone func()
}

// newSession wraps eng in its session handle. onDisk says the backend
// already holds eng's current tree (rehydration), so the session starts
// clean; a created session starts ahead of disk and its first do saves it.
// Without a backend, do never saves.
func (s *Server) newSession(id, dataset string, created time.Time, req api.CreateSessionRequest, eng *smartdrill.Engine, onDisk bool) *session {
	sess := &session{id: id, dataset: dataset, created: created, req: req}
	engine := guarded.New(eng)
	var (
		// savedRev is the engine revision of the record on disk; 0 (which
		// no engine is ever at) means none. Stored only under deleted's
		// lock, which thereby orders this session's saves.
		savedRev atomic.Uint64
		deleted  guarded.Value[bool]
	)
	if onDisk {
		savedRev.Store(eng.Revision())
	}
	failed := func(what string, err error) {
		s.persistFailures.Add(1)
		s.cfg.Logger.Printf("session %s: %s failed: %v", id, what, err)
	}
	sess.do = func(ctx context.Context, fn func(*smartdrill.Engine)) {
		var (
			tree  bytes.Buffer
			rev   uint64
			dirty bool
			err   error
		)
		start := time.Now()
		engine.Do(func(e **smartdrill.Engine) {
			spans.Since(ctx, spans.Lock, start)
			fn(*e)
			rev = (*e).Revision()
			if dirty = s.backend != nil && rev > savedRev.Load(); dirty {
				start = time.Now()
				err = (*e).SaveState(&tree)
			}
		})
		if !dirty {
			return
		}
		defer spans.Since(ctx, spans.Save, start)
		if err != nil {
			failed("snapshot", err)
			return
		}
		data, err := json.Marshal(sessionRecord{
			Version: recordVersion,
			ID:      id,
			Dataset: dataset,
			Created: created,
			Request: req,
			Tree:    tree.Bytes(),
		})
		if err != nil {
			failed("encoding snapshot record", err)
			return
		}
		deleted.Do(func(gone *bool) {
			if *gone || rev <= savedRev.Load() {
				return // deleted meanwhile, or a newer snapshot already landed
			}
			if err := s.backend.Save(id, data); err != nil {
				// savedRev stays put, so the next do sees the session still
				// ahead of disk and writes the then-current tree.
				failed("persisting snapshot", err)
				return
			}
			savedRev.Store(rev)
		})
	}
	sess.tombstone = func() {
		deleted.Do(func(gone *bool) { *gone = true })
	}
	return sess
}
