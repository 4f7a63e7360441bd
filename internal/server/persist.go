package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"smartdrill"
	"smartdrill/api"
)

// Durable sessions: every session mutation writes through to the
// configured SessionBackend (by the session's door — see session.do) as
// one self-contained record — the create request (the engine-rebuild
// recipe) plus the engine's tree snapshot, which persists stable node IDs.
// LRU eviction therefore demotes a
// session from memory to disk instead of destroying it, a store miss
// consults the backend before 404ing (rehydration), and a restarted
// process resumes every persisted session id against the same snapshot
// directory. Persistence failures degrade durability, never availability:
// they are logged and counted, and the request that triggered the write
// still succeeds.

// recordVersion is the snapshot record format this build reads and
// writes. Version 2 encodes wildcards in the tree as JSON null (version 1
// wrote the string "?", indistinguishable from a cell holding a literal
// "?"). Records of any other version are unusable: skipped at recovery,
// 404 on lookup.
const recordVersion = 2

// sessionRecord is the JSON snapshot record a backend stores per session.
type sessionRecord struct {
	// Version guards the record format; bump on incompatible change.
	Version int       `json:"version"`
	ID      string    `json:"id"`
	Dataset string    `json:"dataset"`
	Created time.Time `json:"created"`
	// Request is the original create request — replayed through
	// buildEngine on rehydration so the restored engine carries the same
	// k, weighter, sampling, and aggregate configuration.
	Request api.CreateSessionRequest `json:"request"`
	// Tree is the engine's own snapshot (Engine.SaveState): rules,
	// display statistics, confidence intervals, and stable node IDs.
	Tree json.RawMessage `json:"tree"`
}

// loadRecord reads and decodes id's snapshot record, rejecting records of
// a format version this build does not speak.
func (s *Server) loadRecord(id string) (sessionRecord, error) {
	var rec sessionRecord
	data, err := s.backend.Load(id)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("corrupt snapshot record: %w", err)
	}
	if rec.Version != recordVersion {
		return rec, fmt.Errorf("snapshot record has format version %d, this server reads version %d", rec.Version, recordVersion)
	}
	return rec, nil
}

// PersistFailures reports how many snapshot write-throughs have failed
// since the server started — an operational signal that sessions are
// being served from memory without a durable copy.
func (s *Server) PersistFailures() uint64 { return s.persistFailures.Load() }

// putSession inserts sess into the in-memory store. A session the insert
// evicts is demoted to disk, not destroyed: write-through already keeps
// its snapshot current, and one last empty visit through its door covers
// any earlier failed write. Without a backend, eviction is what it always
// was — the session is gone.
func (s *Server) putSession(sess *session) {
	evicted := s.store.put(sess)
	if evicted == nil {
		return
	}
	if s.backend != nil {
		evicted.do(context.Background(), func(*smartdrill.Engine) {})
		s.cfg.Logger.Printf("session %s evicted to disk (LRU, session cap %d)", evicted.id, s.cfg.MaxSessions)
		return
	}
	s.cfg.Logger.Printf("session %s evicted (LRU, session cap %d)", evicted.id, s.cfg.MaxSessions)
}

// rehydrate restores a session from the backend after a store miss. The
// single rehydration mutex keeps two concurrent misses on one id from
// building two engines; the double-check under it resolves the race to
// one winner. Returns false when the id has no snapshot (or the snapshot
// is unusable — wrong dataset, corrupt record, other format version), in
// which case the caller falls through to its usual not-found path. The
// restored session starts level with disk: it holds exactly the snapshot
// just read, so nothing is written back until a request changes it.
func (s *Server) rehydrate(id string) (*session, bool) {
	if s.backend == nil || !validSnapshotID(id) {
		return nil, false
	}
	s.rehydrateMu.Lock()
	defer s.rehydrateMu.Unlock()
	if sess, ok := s.store.get(id); ok {
		return sess, true // another request rehydrated it first
	}
	rec, err := s.loadRecord(id)
	if err != nil {
		if !errors.Is(err, ErrNoSnapshot) {
			s.cfg.Logger.Printf("session %s: loading snapshot failed: %v", id, err)
		}
		return nil, false
	}
	if rec.ID != "" && rec.ID != id {
		s.cfg.Logger.Printf("session %s: snapshot record claims id %s; ignoring", id, rec.ID)
		return nil, false
	}
	d, ok := s.dataset(rec.Dataset)
	if !ok {
		s.cfg.Logger.Printf("session %s: snapshot references unregistered dataset %q", id, rec.Dataset)
		return nil, false
	}
	eng, err := s.buildEngine(d, rec.Request)
	if err != nil {
		s.cfg.Logger.Printf("session %s: rebuilding engine from snapshot failed: %v", id, err)
		return nil, false
	}
	if len(rec.Tree) > 0 {
		if err := eng.LoadState(bytes.NewReader(rec.Tree)); err != nil {
			s.cfg.Logger.Printf("session %s: restoring tree from snapshot failed: %v", id, err)
			return nil, false
		}
	}
	sess := s.newSession(id, rec.Dataset, rec.Created, rec.Request, eng, true)
	s.putSession(sess)
	s.cfg.Logger.Printf("session %s rehydrated from snapshot (dataset %q)", id, rec.Dataset)
	return sess, true
}

// RecoverSessions indexes the backend's persisted sessions at startup and
// returns how many are resumable. Sessions are rehydrated lazily — the
// first request for an id pays the engine rebuild — so recovery cost does
// not scale with the number of dormant sessions; this call exists to
// verify the backend is readable and to tell the operator what survived
// the restart. Snapshots that are unreadable, of another format version,
// or reference datasets no longer registered are counted separately and
// left on disk untouched.
func (s *Server) RecoverSessions() (resumable int, err error) {
	if s.backend == nil {
		return 0, nil
	}
	ids, err := s.backend.List()
	if err != nil {
		return 0, err
	}
	orphaned := 0
	for _, id := range ids {
		rec, err := s.loadRecord(id)
		if err != nil {
			orphaned++
			continue
		}
		if _, ok := s.dataset(rec.Dataset); !ok {
			orphaned++
			continue
		}
		resumable++
	}
	if orphaned > 0 {
		s.cfg.Logger.Printf("session recovery: %d resumable, %d orphaned (unreadable, other format version, or dataset not registered)", resumable, orphaned)
	} else {
		s.cfg.Logger.Printf("session recovery: %d resumable session(s)", resumable)
	}
	return resumable, nil
}
