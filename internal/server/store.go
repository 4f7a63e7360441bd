package server

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"

	"smartdrill/internal/guarded"
)

// sessionStore is the LRU-evicting registry of resident sessions: one lock
// around one map and one recency list, so MaxSessions is an exact cap and
// eviction follows exact global recency. The critical section is a map
// lookup and a list move; the work of a request happens behind the session's
// own door, not here.
type sessionStore struct {
	cap   int // immutable after construction
	state guarded.Value[storeState]
}

// storeState is what the store's lock protects.
type storeState struct {
	entries map[string]*list.Element // values are *session
	lru     *list.List               // front = most recently used
}

// newSessionStore builds a store holding at most capacity sessions
// (minimum 1).
func newSessionStore(capacity int) *sessionStore {
	if capacity < 1 {
		capacity = 1
	}
	return &sessionStore{
		cap: capacity,
		state: guarded.New(storeState{
			entries: make(map[string]*list.Element),
			lru:     list.New(),
		}),
	}
}

// put inserts a session, evicting the least recently used one when the
// store is at capacity. It returns the evicted session, if any, so the
// owner can demote it to the durable backend (evict-to-disk).
func (st *sessionStore) put(s *session) (evicted *session) {
	st.state.Do(func(ss *storeState) {
		if el, ok := ss.entries[s.id]; ok { // overwrite (unlikely: random IDs)
			ss.lru.Remove(el)
			delete(ss.entries, s.id)
		}
		if ss.lru.Len() >= st.cap {
			if back := ss.lru.Back(); back != nil {
				evicted = back.Value.(*session)
				ss.lru.Remove(back)
				delete(ss.entries, evicted.id)
			}
		}
		ss.entries[s.id] = ss.lru.PushFront(s)
	})
	return evicted
}

// get returns the session and marks it most recently used.
func (st *sessionStore) get(id string) (sess *session, ok bool) {
	st.state.Do(func(ss *storeState) {
		var el *list.Element
		if el, ok = ss.entries[id]; ok {
			ss.lru.MoveToFront(el)
			sess = el.Value.(*session)
		}
	})
	return sess, ok
}

// remove deletes and returns the session, nil if it was not resident.
func (st *sessionStore) remove(id string) (sess *session) {
	st.state.Do(func(ss *storeState) {
		if el, ok := ss.entries[id]; ok {
			ss.lru.Remove(el)
			delete(ss.entries, id)
			sess = el.Value.(*session)
		}
	})
	return sess
}

// len counts resident sessions.
func (st *sessionStore) len() (n int) {
	st.state.Do(func(ss *storeState) { n = ss.lru.Len() })
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
