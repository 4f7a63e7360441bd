// Package lru is the one recency policy the engine evicts by: values filed
// by key, most recently used first, each with a cost, whose total a List
// keeps within its limit by evicting from the least recently used end. The
// server's session store caps its sessions with it (cost 1), a dataset's
// search service its answers (cost 1), and the sample handler of Section
// 4.3 its samples (cost a sample's size, within the memory budget M).
//
// A List takes no lock: each owner already serialises what touches it.
package lru

import "container/list"

// List is a cost-weighted recency list. Build one with New; the zero List
// is not usable, and a List must not be copied after first use.
type List[K comparable, V any] struct {
	limit int
	cost  func(V) int
	used  int
	byKey map[K]*list.Element // values are *item[K, V]
	order list.List           // front = most recently used
}

type item[K comparable, V any] struct {
	key  K
	val  V
	cost int // cost(val), fixed when val was put
}

// New returns an empty List holding values of total cost at most limit,
// each costing cost(v).
func New[K comparable, V any](limit int, cost func(V) int) List[K, V] {
	return List[K, V]{limit: limit, cost: cost, byKey: make(map[K]*list.Element)}
}

// Get returns the value filed under k and marks it most recently used.
func (l *List[K, V]) Get(k K) (v V, ok bool) {
	e, ok := l.byKey[k]
	if !ok {
		return v, false
	}
	l.order.MoveToFront(e)
	return e.Value.(*item[K, V]).val, true
}

// Peek returns the value filed under k without marking it used.
func (l *List[K, V]) Peek(k K) (v V, ok bool) {
	e, ok := l.byKey[k]
	if !ok {
		return v, false
	}
	return e.Value.(*item[K, V]).val, true
}

// Put files v under k, in place of what k held, as the most recently used
// value. It then evicts the least recently used values until the total cost
// is within the limit — never v itself, which may exceed it alone — and
// returns them oldest first.
func (l *List[K, V]) Put(k K, v V) (evicted []V) {
	c := l.cost(v)
	if e, ok := l.byKey[k]; ok {
		it := e.Value.(*item[K, V])
		l.used += c - it.cost
		it.val, it.cost = v, c
		l.order.MoveToFront(e)
	} else {
		l.byKey[k] = l.order.PushFront(&item[K, V]{key: k, val: v, cost: c})
		l.used += c
	}
	for l.used > l.limit && l.order.Len() > 1 {
		evicted = append(evicted, l.remove(l.order.Back()))
	}
	return evicted
}

// Remove deletes and returns the value filed under k.
func (l *List[K, V]) Remove(k K) (v V, ok bool) {
	e, ok := l.byKey[k]
	if !ok {
		return v, false
	}
	return l.remove(e), true
}

func (l *List[K, V]) remove(e *list.Element) V {
	it := l.order.Remove(e).(*item[K, V])
	delete(l.byKey, it.key)
	l.used -= it.cost
	return it.val
}

// Len returns the number of values held.
func (l *List[K, V]) Len() int { return l.order.Len() }

// Used returns the total cost of the values held.
func (l *List[K, V]) Used() int { return l.used }

// Values returns the values held, most recently used first.
func (l *List[K, V]) Values() []V {
	out := make([]V, 0, l.order.Len())
	for e := l.order.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*item[K, V]).val)
	}
	return out
}
