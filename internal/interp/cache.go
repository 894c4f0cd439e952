package interp

import (
	"strings"
	"sync"

	"repro/internal/ir"
)

// progKey content-addresses one compiled program: the module's semantic
// digest plus every architecture-binding input that Compile bakes into the
// artifact. Two Compile calls with equal keys yield bit-identical programs,
// so the cache may hand back the same *Program.
type progKey struct {
	modDigest      uint64
	stackBase      uint32
	unified        bool
	spec           string // arch.Spec.Fingerprint()
	std            string
	name           string
	funcBase       uint32
	shuffleFuncs   bool
	shuffleGlobals bool
	initUVA        bool
	instrument     bool
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
		modDigest:      digest,
		stackBase:      mod.StackBase,
		unified:        mod.Unified,
		spec:           cfg.Spec.Fingerprint(),
		std:            cfg.Std.Fingerprint(),
		name:           cfg.Name,
		funcBase:       cfg.FuncBase,
		shuffleFuncs:   cfg.ShuffleFuncs,
		shuffleGlobals: cfg.ShuffleGlobals,
		initUVA:        cfg.InitUVAGlobals,
		instrument:     cfg.Instrument,
	}
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
// base and unified flag it also carries are keyed explicitly instead.
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
	s := mod.String()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	d = offset64
	for i := 0; i < len(s); i++ {
		d ^= uint64(s[i])
		d *= prime64
	}
	return d, false
}
