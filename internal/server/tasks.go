package server

import (
	"context"
	"sync"
)

// taskGroup owns a set of background goroutines — the refiners, the
// warmers. Go is the only way to start one, so none can be spawned without
// being counted, and the Wait forms are how tests, embedders and shutdown
// prove they ended (internal/leakcheck fails the test binary otherwise).
// The zero value is ready to use.
type taskGroup struct{ wg sync.WaitGroup }

// Go runs fn in a new goroutine the group waits for.
func (g *taskGroup) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		fn()
	}()
}

// Wait blocks until every task started so far has returned.
func (g *taskGroup) Wait() { g.wg.Wait() }

// WaitCtx is Wait bounded by ctx, reporting whether the group drained. On
// false the stragglers are abandoned, not stopped: the waiter goroutine
// spawned here ends when they do.
func (g *taskGroup) WaitCtx(ctx context.Context) bool {
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}
