package freelist

import (
	"runtime"
	"testing"
)

// TestListHoldsAcrossCollections: what a List is given must not depend on
// the collector. A value put back is the next one taken however many
// collections ran in between (a sync.Pool is empty after two), the list is
// last-in first-out, beyond its bound a put is dropped, and every take from
// an empty list counts one miss.
func TestListHoldsAcrossCollections(t *testing.T) {
	const limit = 4
	l := New[[]byte](limit)
	if l.Get() != nil {
		t.Fatal("an empty list returned a value")
	}
	vals := make([]*[]byte, limit+2)
	for i := range vals {
		vals[i] = new([]byte)
		l.Put(vals[i])
	}
	if n := l.Len(); n != limit {
		t.Fatalf("list holds %d values, want its bound %d", n, limit)
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	for i := limit - 1; i >= 0; i-- {
		if got := l.Get(); got != vals[i] {
			t.Fatalf("get after three collections: not the value put at position %d", i)
		}
	}
	if l.Get() != nil {
		t.Fatalf("list held more than its bound %d", limit)
	}
	if m := l.Misses(); m != 2 {
		t.Errorf("%d misses counted, want the 2 takes from an empty list", m)
	}
}
