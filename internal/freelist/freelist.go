// Package freelist is the free list the repository recycles its large
// reusable values through: guest page frames (mem), the wire path's frames
// and codec states (offrt) and the fleet engine's run memory.
package freelist

import "sync"

// List is a last-in first-out free list of at most a fixed number of
// values, under a mutex. It is not a sync.Pool: the collector empties a Pool
// on its own schedule, so what a program allocated would depend on where its
// collections fell. A List keeps what it is given until it is taken, so the
// same sequence of takes and gives allocates the same bytes run after run.
// Beyond its bound a give is dropped and left to the collector, so what a
// process retains is bounded and not the most it ever gave back. A list
// whose caller makes a value only when the list is empty (mem's page
// frames) can take math.MaxInt: it then never holds more than the most its
// caller had out at once.
type List[T any] struct {
	mu    sync.Mutex
	free  []*T
	limit int
	// misses counts the takes that found the list empty.
	misses uint64
}

// New returns an empty list that holds at most limit values.
func New[T any](limit int) *List[T] { return &List[T]{limit: limit} }

// Get takes the value given back last, or returns nil, counting a miss,
// when the list is empty. The caller owns what it takes.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		l.misses++
		return nil
	}
	v := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return v
}

// Put gives v back. The caller keeps no reference to it: the next Get, in
// any goroutine, may hand it to another owner.
func (l *List[T]) Put(v *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < l.limit {
		l.free = append(l.free, v)
	}
}

// Len is how many values the list holds.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// Misses is how many takes have found the list empty.
func (l *List[T]) Misses() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.misses
}
