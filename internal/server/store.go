package server

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"hash/fnv"
	"sync"
	"time"

	"smartdrill"
	"smartdrill/api"
)

// session is one live drill-down exploration. All Engine operations must be
// performed while holding mu: the drill tree and the sampling machinery
// behind it are single-writer structures, so concurrent requests against
// one session serialize here while distinct sessions (distinct mutexes)
// proceed fully in parallel.
type session struct {
	id      string
	dataset string
	created time.Time
	// req is the create request that built (or rebuilt) the engine — the
	// immutable recipe persisted in the session's snapshot record so a
	// rehydrating server reconstructs an identically-configured engine.
	req api.CreateSessionRequest

	mu  sync.Mutex
	eng *smartdrill.Engine // guardedby: mu
	// seq numbers this object's snapshots: bumped by each write-through,
	// so persistSession can refuse to overwrite a newer snapshot with a
	// slower older one.
	seq uint64 // guardedby: mu

	// persistMu serializes backend writes for this session; savedSeq is
	// the seq of the record known to be on disk. deleted is the DELETE
	// tombstone: a handler or refiner that still holds this session when
	// it is deleted must not write its snapshot back.
	persistMu sync.Mutex
	savedSeq  uint64 // guardedby: persistMu
	deleted   bool   // guardedby: persistMu
}

// sessionStore is a sharded, LRU-evicting registry of sessions. IDs hash to
// a shard; each shard owns an independent mutex, map, and recency list, so
// the store itself is never a global point of contention. The session cap
// is split evenly across shards (eviction is therefore approximate with
// respect to global recency — an acceptable trade for shard independence).
type sessionStore struct {
	shards []storeShard
}

type storeShard struct {
	mu      sync.Mutex
	cap     int                      // immutable after construction
	entries map[string]*list.Element // guardedby: mu (values are *session)
	lru     *list.List               // guardedby: mu (front = most recently used)
}

// newSessionStore builds a store holding at most capacity sessions spread
// over the given number of shards (minimum 1 each). Small capacities shrink
// the shard count rather than inflate the cap, so an operator's
// -max-sessions is honored exactly when it is below the shard count.
func newSessionStore(capacity, shards int) *sessionStore {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	st := &sessionStore{shards: make([]storeShard, shards)}
	// Distribute capacity exactly: the first capacity%shards shards take
	// one extra slot, so the per-shard caps sum to capacity.
	base, extra := capacity/shards, capacity%shards
	for i := range st.shards {
		c := base
		if i < extra {
			c++
		}
		st.shards[i] = storeShard{
			cap:     c,
			entries: make(map[string]*list.Element),
			lru:     list.New(),
		}
	}
	return st
}

func (st *sessionStore) shard(id string) *storeShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &st.shards[h.Sum32()%uint32(len(st.shards))]
}

// put inserts a session, evicting the shard's least recently used entry
// when the shard is at capacity. It returns the evicted session, if any,
// so the owner can demote it to the durable backend (evict-to-disk).
func (st *sessionStore) put(s *session) (evicted *session) {
	sh := st.shard(s.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[s.id]; ok { // overwrite (unlikely: random IDs)
		sh.lru.Remove(el)
		delete(sh.entries, s.id)
	}
	if sh.lru.Len() >= sh.cap {
		if back := sh.lru.Back(); back != nil {
			old := back.Value.(*session)
			sh.lru.Remove(back)
			delete(sh.entries, old.id)
			evicted = old
		}
	}
	sh.entries[s.id] = sh.lru.PushFront(s)
	return evicted
}

// get returns the session and marks it most recently used.
func (st *sessionStore) get(id string) (*session, bool) {
	sh := st.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[id]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	return el.Value.(*session), true
}

// remove deletes and returns the session, nil if it was not resident.
func (st *sessionStore) remove(id string) *session {
	sh := st.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[id]
	if !ok {
		return nil
	}
	sh.lru.Remove(el)
	delete(sh.entries, id)
	return el.Value.(*session)
}

// len counts live sessions across all shards.
func (st *sessionStore) len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
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
