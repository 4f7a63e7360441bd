package lru

import (
	"slices"
	"sort"
	"testing"
)

// val is a test value: a put's serial number, so that two puts under one
// key are told apart, and its cost.
type val struct{ id, cost int }

func costOf(v val) int { return v.cost }

func TestPutEvictsLeastRecentlyUsed(t *testing.T) {
	l := New[string](3, func(int) int { return 1 })
	for i, k := range []string{"a", "b", "c"} {
		if out := l.Put(k, i); out != nil {
			t.Fatalf("put %s evicted %v", k, out)
		}
	}
	if _, ok := l.Get("a"); !ok { // b becomes the least recently used
		t.Fatal("a missing")
	}
	if _, ok := l.Peek("b"); !ok { // a peek touches nothing
		t.Fatal("b missing")
	}
	if out := l.Put("d", 3); !slices.Equal(out, []int{1}) {
		t.Fatalf("put d evicted %v, want [1] (b)", out)
	}
	if got := l.Values(); !slices.Equal(got, []int{3, 0, 2}) {
		t.Fatalf("recency order %v, want [3 0 2]", got)
	}
	if v, ok := l.Remove("a"); !ok || v != 0 || l.Len() != 2 || l.Used() != 2 {
		t.Fatalf("remove a: %d %v, then %d values of cost %d", v, ok, l.Len(), l.Used())
	}
	if _, ok := l.Remove("a"); ok {
		t.Fatal("a removed twice")
	}
}

// TestPutNeverEvictsWhatItPut: a value costing more than the whole limit
// stays, alone, and what it pushed out comes back oldest first.
func TestPutNeverEvictsWhatItPut(t *testing.T) {
	l := New[int](10, costOf)
	l.Put(1, val{1, 4})
	l.Put(2, val{2, 4})
	if out := l.Put(3, val{3, 12}); !slices.Equal(out, []val{{1, 4}, {2, 4}}) {
		t.Fatalf("evicted %v, want the two older values oldest first", out)
	}
	if l.Len() != 1 || l.Used() != 12 {
		t.Fatalf("%d values of cost %d, want the one of 12", l.Len(), l.Used())
	}
	// Re-putting a key replaces its value and cost in place.
	if out := l.Put(3, val{4, 2}); out != nil || l.Used() != 2 {
		t.Fatalf("re-put evicted %v, cost now %d", out, l.Used())
	}
}

// model is the eviction the sample handler ran before it used a List: a
// clock stamped on every touch, and a victim chosen by scanning for the
// smallest stamp, the value just put excepted.
type model struct {
	limit int
	clock int64
	held  map[int]*modelEntry
}

type modelEntry struct {
	v     val
	stamp int64
}

func (m *model) used() int {
	n := 0
	for _, e := range m.held {
		n += e.v.cost
	}
	return n
}

func (m *model) touch(e *modelEntry) {
	m.clock++
	e.stamp = m.clock
}

func (m *model) put(k int, v val) (evicted []val) {
	e := &modelEntry{v: v}
	m.touch(e)
	m.held[k] = e
	for m.used() > m.limit {
		victim := -1
		for ck, c := range m.held {
			if ck != k && (victim < 0 || c.stamp < m.held[victim].stamp) {
				victim = ck
			}
		}
		evicted = append(evicted, m.held[victim].v)
		delete(m.held, victim)
	}
	return evicted
}

// order lists the held values most recently touched first.
func (m *model) order() []val {
	es := make([]*modelEntry, 0, len(m.held))
	for _, e := range m.held {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].stamp > es[j].stamp })
	out := make([]val, len(es))
	for i, e := range es {
		out[i] = e.v
	}
	return out
}

// FuzzLRUMatchesModel: over any sequence of puts (each costing at most the
// limit), gets, peeks and removes on eight keys, a List holds what the
// clock-and-scan model holds, in the same recency order, at the same total
// cost, and evicts the same values in the same order.
func FuzzLRUMatchesModel(f *testing.F) {
	f.Add([]byte{10, 0, 1, 4, 0, 2, 4, 0, 3, 4, 1, 1, 0, 4, 5, 2, 3, 4})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 3, 2, 1, 0, 3, 0, 0, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		limit := 1 + int(ops[0])%16
		l := New[int](limit, costOf)
		m := &model{limit: limit, held: map[int]*modelEntry{}}
		ops = ops[1:]
		for step := 0; len(ops) >= 2; step++ {
			op, k := ops[0]%4, int(ops[1])%8
			ops = ops[2:]
			switch op {
			case 0: // put
				c := 0
				if len(ops) > 0 {
					c, ops = int(ops[0])%(limit+1), ops[1:]
				}
				v := val{step, c}
				if got, want := l.Put(k, v), m.put(k, v); !slices.Equal(got, want) {
					t.Fatalf("step %d: put %d evicted %v, model %v", step, k, got, want)
				}
			case 1: // get
				got, ok := l.Get(k)
				e, want := m.held[k]
				if want {
					m.touch(e)
				}
				if ok != want || (ok && got != e.v) {
					t.Fatalf("step %d: get %d = %v %v, model %v", step, k, got, ok, want)
				}
			case 2: // peek
				got, ok := l.Peek(k)
				if e, want := m.held[k]; ok != want || (ok && got != e.v) {
					t.Fatalf("step %d: peek %d = %v %v, model %v", step, k, got, ok, want)
				}
			case 3: // remove
				got, ok := l.Remove(k)
				e, want := m.held[k]
				delete(m.held, k)
				if ok != want || (ok && got != e.v) {
					t.Fatalf("step %d: remove %d = %v %v, model %v", step, k, got, ok, want)
				}
			}
			if l.Len() != len(m.held) || l.Used() != m.used() {
				t.Fatalf("step %d: %d values of cost %d, model %d of %d", step, l.Len(), l.Used(), len(m.held), m.used())
			}
			if got, want := l.Values(), m.order(); !slices.Equal(got, want) {
				t.Fatalf("step %d: held %v, model %v", step, got, want)
			}
		}
	})
}
