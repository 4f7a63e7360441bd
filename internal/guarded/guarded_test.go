package guarded

import (
	"sync"
	"testing"
)

func TestDoSerializes(t *testing.T) {
	v := New(map[string]int{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.Do(func(m *map[string]int) { (*m)["n"]++ })
			}
		}()
	}
	wg.Wait()
	v.Do(func(m *map[string]int) {
		if (*m)["n"] != 8000 {
			t.Fatalf("n = %d, want 8000", (*m)["n"])
		}
	})
}

// TestPanicReleasesLock: a panic inside Do must not leave the lock held —
// the property the session door's "recovered panic never wedges a session"
// rests on.
func TestPanicReleasesLock(t *testing.T) {
	var v Value[int]
	func() {
		defer func() { recover() }()
		v.Do(func(*int) { panic("boom") })
	}()
	done := make(chan struct{})
	go func() {
		v.Do(func(n *int) { *n = 1 })
		close(done)
	}()
	<-done
}

// TestDoDoesNotAllocate pins that a closure handed to Do stays on the
// caller's stack: guarding a hot-path structure (the answer cache's hit
// path) must cost no allocation.
func TestDoDoesNotAllocate(t *testing.T) {
	v := New(0)
	sum := 0
	if n := testing.AllocsPerRun(100, func() {
		v.Do(func(p *int) { *p++; sum += *p })
	}); n != 0 {
		t.Fatalf("Do allocated %.0f times per call", n)
	}
}
