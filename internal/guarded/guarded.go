// Package guarded makes "this state is only touched under its lock" a
// property of the type instead of a convention: the value and its mutex
// are unexported, and Do is the only way in.
package guarded

import "sync"

// Value is a T that can only be reached while holding its lock. The zero
// Value guards the zero T; it must not be copied after first use.
type Value[T any] struct {
	mu sync.Mutex
	v  T
}

// New returns a Value guarding v.
func New[T any](v T) Value[T] { return Value[T]{v: v} }

// Do runs fn on the guarded value with the lock held. The lock is released
// by defer, so a panicking fn cannot leave it held. fn must not retain the
// pointer beyond its return, and must not call Do on the same Value.
func (g *Value[T]) Do(fn func(*T)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fn(&g.v)
}
