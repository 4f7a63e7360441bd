package server

import (
	"context"
	"testing"
	"time"
)

// TestTaskGroupWaitCtx: WaitCtx reports an expired grace as false without
// stopping the stragglers, and true once they have drained.
func TestTaskGroupWaitCtx(t *testing.T) {
	var g taskGroup
	release := make(chan struct{})
	ran := 0
	for i := 0; i < 3; i++ {
		g.Go(func() { <-release })
	}
	g.Go(func() { ran++ })

	expired, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if g.WaitCtx(expired) {
		t.Fatal("WaitCtx reported a group with blocked tasks as drained")
	}
	close(release)
	if !g.WaitCtx(context.Background()) {
		t.Fatal("WaitCtx gave up on an unbounded context")
	}
	g.Wait()
	if ran != 1 {
		t.Fatalf("task ran %d times, want 1", ran)
	}
}
