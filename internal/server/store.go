package server

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"hash/fnv"

	"smartdrill/internal/guarded"
)

// sessionStore is a sharded, LRU-evicting registry of sessions. IDs hash to
// a shard; each shard owns an independent lock, map, and recency list, so
// the store itself is never a global point of contention. The session cap
// is split evenly across shards (eviction is therefore approximate with
// respect to global recency — an acceptable trade for shard independence).
type sessionStore struct {
	shards []storeShard
}

type storeShard struct {
	cap   int // immutable after construction
	state guarded.Value[shardState]
}

// shardState is what a shard's lock protects.
type shardState struct {
	entries map[string]*list.Element // values are *session
	lru     *list.List               // front = most recently used
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
			cap: c,
			state: guarded.New(shardState{
				entries: make(map[string]*list.Element),
				lru:     list.New(),
			}),
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
	sh.state.Do(func(ss *shardState) {
		if el, ok := ss.entries[s.id]; ok { // overwrite (unlikely: random IDs)
			ss.lru.Remove(el)
			delete(ss.entries, s.id)
		}
		if ss.lru.Len() >= sh.cap {
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
	st.shard(id).state.Do(func(ss *shardState) {
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
	st.shard(id).state.Do(func(ss *shardState) {
		if el, ok := ss.entries[id]; ok {
			ss.lru.Remove(el)
			delete(ss.entries, id)
			sess = el.Value.(*session)
		}
	})
	return sess
}

// len counts live sessions across all shards.
func (st *sessionStore) len() int {
	n := 0
	for i := range st.shards {
		st.shards[i].state.Do(func(ss *shardState) { n += ss.lru.Len() })
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
