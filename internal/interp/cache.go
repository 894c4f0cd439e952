package interp

import (
	"sync"

	"repro/internal/ir"
)

// progKey content-addresses one compiled program: the module's semantic
// digest plus every architecture-binding input that Compile bakes into the
// artifact. Two Compile calls with equal keys yield bit-identical programs,
// so the cache may hand back the same *Program. The defaulted config is the
// key itself, its two spec pointers replaced by the specs' fingerprints, so
// a CompileConfig field cannot be left out of it.
type progKey struct {
	modDigest uint64
	stackBase uint32
	unified   bool
	spec, std string // arch.Spec.Fingerprint()
	cfg       CompileConfig
}

// cacheEntry singleflights one key: the first binder compiles under the
// sync.Once while concurrent binders of the same key block on it, so a
// module is compiled exactly once no matter how many sessions race to bind.
type cacheEntry struct {
	once sync.Once
	prog *Program
	err  error
}

// CompilationCache memoizes Compile results by content address. It is safe
// for concurrent use; a process typically holds one (see core.DefaultCache)
// so every session binding the same module/architecture pair shares one
// Program — one compile, one image, O(1) binds after the first.
type CompilationCache struct {
	mu      sync.Mutex
	entries map[progKey]*cacheEntry
	// digests memoizes module content digests by pointer: modules are
	// immutable after lowering, and printing a large module is the
	// expensive part of key construction. Only a module whose bind created
	// an entry is remembered — the entry's Program pins it anyway, and a
	// compiled pair bound over and over keeps its pointers — so per-call
	// clones of one module cannot grow the memo past the entry count.
	digests map[*ir.Module]uint64
	hits    int64
	misses  int64
}

// NewCompilationCache returns an empty cache.
func NewCompilationCache() *CompilationCache {
	return &CompilationCache{
		entries: make(map[progKey]*cacheEntry),
		digests: make(map[*ir.Module]uint64),
	}
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Hits    int64 // binds served by an existing entry
	Misses  int64 // binds that created an entry (compiled)
	Entries int   // distinct programs held
}

// HitRate returns Hits / (Hits + Misses), 0 when unused.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns current counters.
func (c *CompilationCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

func (c *CompilationCache) compile(mod *ir.Module, cfg CompileConfig) (*Program, error) {
	cfg = cfg.withDefaults()
	if mod == nil || cfg.Spec == nil {
		return compileProgram(mod, cfg) // argument errors are not cacheable
	}
	digest, memoized := c.moduleDigest(mod)
	key := progKey{
		modDigest: digest,
		stackBase: mod.StackBase,
		unified:   mod.Unified,
		spec:      cfg.Spec.Fingerprint(),
		std:       cfg.Std.Fingerprint(),
		cfg:       cfg,
	}
	key.cfg.Spec, key.cfg.Std = nil, nil
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses++
		if !memoized {
			c.digests[mod] = digest
		}
	}
	c.mu.Unlock()
	e.once.Do(func() { e.prog, e.err = compileProgram(mod, cfg) })
	return e.prog, e.err
}

// moduleDigest hashes the module's printed form minus its header line — the
// header carries the module's display name, which two otherwise identical
// compiles (e.g. differently labelled clones) may disagree on; the stack
// base and unified flag it also carries are keyed explicitly instead. The
// printer streams into the hash, so the text is never held whole.
// memoized reports a memo hit; compile decides whether a computed digest is
// worth remembering.
func (c *CompilationCache) moduleDigest(mod *ir.Module) (d uint64, memoized bool) {
	c.mu.Lock()
	d, memoized = c.digests[mod]
	c.mu.Unlock()
	if memoized {
		return d, true
	}

	// Print outside the lock: large modules print slowly, and concurrent
	// first binds of different modules should not serialize here.
	h := bodyHash{sum: fnvOffset64}
	mod.WriteTo(&h)
	return h.sum, false
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// bodyHash is 64-bit FNV-1a over the bytes written to it after the first
// newline.
type bodyHash struct {
	sum  uint64
	body bool
}

func (h *bodyHash) Write(b []byte) (int, error) {
	hashBody(h, b)
	return len(b), nil
}

func (h *bodyHash) WriteString(s string) (int, error) {
	hashBody(h, s)
	return len(s), nil
}

func hashBody[T string | []byte](h *bodyHash, b T) {
	for i := 0; i < len(b); i++ {
		switch {
		case h.body:
			h.sum ^= uint64(b[i])
			h.sum *= fnvPrime64
		case b[i] == '\n':
			h.body = true
		}
	}
}
