package server

import (
	"fmt"
	"sync"
	"testing"
)

func TestStoreLRUEviction(t *testing.T) {
	st := newSessionStore(3)
	for i := 0; i < 3; i++ {
		if evicted := st.put(&session{id: fmt.Sprintf("s%d", i)}); evicted != nil {
			t.Fatalf("premature eviction of %s", evicted.id)
		}
	}
	// Touch s0 so s1 becomes the LRU entry.
	if _, ok := st.get("s0"); !ok {
		t.Fatal("s0 missing")
	}
	if evicted := st.put(&session{id: "s3"}); evicted == nil || evicted.id != "s1" {
		t.Fatalf("evicted %v, want s1", evicted)
	}
	if _, ok := st.get("s1"); ok {
		t.Fatal("s1 should be evicted")
	}
	for _, id := range []string{"s0", "s2", "s3"} {
		if _, ok := st.get(id); !ok {
			t.Fatalf("%s should survive", id)
		}
	}
	if st.len() != 3 {
		t.Fatalf("len = %d, want 3", st.len())
	}
}

func TestStoreRemove(t *testing.T) {
	st := newSessionStore(4)
	st.put(&session{id: "a"})
	if st.remove("a") == nil {
		t.Fatal("remove existing returned nil")
	}
	if st.remove("a") != nil {
		t.Fatal("remove missing returned a session")
	}
	if st.len() != 0 {
		t.Fatalf("len = %d, want 0", st.len())
	}
}

// TestStoreConcurrent exercises put/get/remove under -race.
func TestStoreConcurrent(t *testing.T) {
	st := newSessionStore(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				st.put(&session{id: id})
				st.get(id)
				if i%3 == 0 {
					st.remove(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := st.len(); n > 64 {
		t.Fatalf("len %d exceeds capacity 64", n)
	}
}
