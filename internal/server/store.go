package server

import (
	"crypto/rand"
	"encoding/hex"

	"smartdrill/internal/guarded"
	"smartdrill/internal/lru"
)

// sessionStore is the LRU-evicting registry of resident sessions: one lock
// around one recency list (lru.List, each session costing 1), so MaxSessions
// is an exact cap and eviction follows exact global recency. The critical
// section is a map lookup and a list move; the work of a request happens
// behind the session's own door, not here.
type sessionStore struct {
	state guarded.Value[lru.List[string, *session]]
}

// newSessionStore builds a store holding at most capacity sessions
// (minimum 1).
func newSessionStore(capacity int) *sessionStore {
	return &sessionStore{state: guarded.New(lru.New[string](max(capacity, 1), func(*session) int { return 1 }))}
}

// put inserts a session, evicting the least recently used one when the
// store is at capacity. It returns the evicted session, if any, so the
// owner can demote it to the durable backend (evict-to-disk).
func (st *sessionStore) put(s *session) (evicted *session) {
	st.state.Do(func(l *lru.List[string, *session]) {
		if out := l.Put(s.id, s); len(out) > 0 {
			evicted = out[0]
		}
	})
	return evicted
}

// get returns the session and marks it most recently used.
func (st *sessionStore) get(id string) (sess *session, ok bool) {
	st.state.Do(func(l *lru.List[string, *session]) { sess, ok = l.Get(id) })
	return sess, ok
}

// remove deletes and returns the session, nil if it was not resident.
func (st *sessionStore) remove(id string) (sess *session) {
	st.state.Do(func(l *lru.List[string, *session]) { sess, _ = l.Remove(id) })
	return sess
}

// len counts resident sessions.
func (st *sessionStore) len() (n int) {
	st.state.Do(func(l *lru.List[string, *session]) { n = l.Len() })
	return n
}

// newSessionID returns a 128-bit random hex ID.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
