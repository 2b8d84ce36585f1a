// Package memsys models the memory hierarchy of the paper's Table 1: split
// 32KB first-level instruction (2-way, 32B lines) and data (4-way, 16B
// lines) caches with 2-cycle latency, a unified 512KB 4-way 64B-line L2 at
// 12 cycles, and 150-cycle main memory.
//
// The model is a latency probe, as in SimpleScalar's sim-outorder: each
// access walks the hierarchy, updates contents and LRU state, and returns
// the total load-to-use latency. Values never live here — the functional
// emulator owns them; this package only decides how long they take.
//
// Latencies are deterministic: contents and LRU state are a pure function
// of the access stream, with no wall-clock, global randomness, or map-order
// dependence.
//
//prisim:deterministic
package memsys

import (
	"fmt"
	"math/bits"
)

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	Latency   int // access latency in cycles
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Config describes the full hierarchy.
type Config struct {
	IL1        CacheConfig
	DL1        CacheConfig
	L2         CacheConfig
	MemLatency int
	// MSHRs bounds overlapping data-side misses (0 = unlimited, the
	// default latency-probe behaviour). See mshr.go.
	MSHRs int
	// NextLinePrefetch enables a simple tagged next-line prefetcher on the
	// data side: every demand miss also fills the following line into the
	// DL1 and L2 (no timing charge — an idealized streaming prefetcher).
	NextLinePrefetch bool
}

// Default is the paper's Table 1 memory system.
func Default() Config {
	return Config{
		IL1:        CacheConfig{Name: "il1", SizeBytes: 32 << 10, LineBytes: 32, Ways: 2, Latency: 2},
		DL1:        CacheConfig{Name: "dl1", SizeBytes: 32 << 10, LineBytes: 16, Ways: 4, Latency: 2},
		L2:         CacheConfig{Name: "ul2", SizeBytes: 512 << 10, LineBytes: 64, Ways: 4, Latency: 12},
		MemLatency: 150,
	}
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

// Cache is one set-associative level with true-LRU replacement, write-back
// and write-allocate policy.
type Cache struct {
	cfg      CacheConfig
	sets     int
	lineBits uint   // log2(line size): address to block number
	tagShift uint   // log2(sets): block number to tag
	lines    []line // sets × ways
	clock    uint64

	// Last-touched-line memo: lines[lastLine] holds block lastBlk, the
	// block the previous probe hit or filled (lastLine < 0 before the first
	// probe). Only probe writes the tag array, so that line is still
	// resident at the next probe, and a repeat access to the block can take
	// the hit path without the set search.
	lastBlk  uint64
	lastLine int

	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// NewCache builds a cache; the geometry must divide evenly into power-of-two
// sets.
func NewCache(cfg CacheConfig) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("memsys: %s: %d sets is not a power of two", cfg.Name, sets))
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("memsys: %s: line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tagShift: uint(bits.TrailingZeros(uint(sets))),
		lines:    make([]line, sets*cfg.Ways),
		lastLine: -1,
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// probe looks up addr; on miss it installs the line (evicting LRU) and
// reports whether a dirty line was written back. Returns hit.
//
//prisim:hotpath
func (c *Cache) probe(addr uint64, write bool) (hit, writeback bool) {
	c.Accesses++
	c.clock++
	blk := addr >> c.lineBits
	if blk == c.lastBlk && c.lastLine >= 0 {
		// The memoized line is resident (see lastBlk), so the set search
		// would hit exactly it: take the same hit updates directly.
		ln := &c.lines[c.lastLine]
		ln.lru = c.clock
		if write {
			ln.dirty = true
		}
		return true, false
	}
	set := int(blk & uint64(c.sets-1))
	tag := blk >> c.tagShift
	base := set * c.cfg.Ways
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			ln.lru = c.clock
			if write {
				ln.dirty = true
			}
			c.lastBlk, c.lastLine = blk, base+w
			return true, false
		}
		if !ln.valid {
			victim = base + w
		} else if c.lines[victim].valid && ln.lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	c.Misses++
	v := &c.lines[victim]
	writeback = v.valid && v.dirty
	if writeback {
		c.Writebacks++
	}
	*v = line{valid: true, tag: tag, lru: c.clock, dirty: write}
	c.lastBlk, c.lastLine = blk, victim
	return false, writeback
}

// Clone returns an independent deep copy of the cache: geometry, contents,
// LRU state, the last-touched-line memo, and statistics. Clone never
// mutates the receiver.
//
// Every Cache field must be handled here; TestCacheCloneCompleteness fails
// when the struct gains a field Clone does not copy.
func (c *Cache) Clone() *Cache {
	cp := *c
	cp.lines = append([]line(nil), c.lines...)
	return &cp
}

// FootprintBytes approximates the resident bytes of the cache's tag array.
func (c *Cache) FootprintBytes() uint64 { return uint64(len(c.lines)) * 32 }

// Contains reports whether addr currently hits without touching LRU or
// statistics (for tests).
func (c *Cache) Contains(addr uint64) bool {
	blk := addr >> c.lineBits
	set := int(blk & uint64(c.sets-1))
	tag := blk >> c.tagShift
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.lines[set*c.cfg.Ways+w]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy composes the three levels and main memory.
type Hierarchy struct {
	IL1   *Cache
	DL1   *Cache
	L2    *Cache
	cfg   Config
	mshrs *mshrFile
	// MSHRWaits accumulates cycles misses spent waiting for a free MSHR.
	MSHRWaits uint64
	// Prefetches counts next-line prefetch fills (see NextLinePrefetch).
	Prefetches uint64
}

// New builds the hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{
		IL1:   NewCache(cfg.IL1),
		DL1:   NewCache(cfg.DL1),
		L2:    NewCache(cfg.L2),
		cfg:   cfg,
		mshrs: newMSHRFile(cfg.MSHRs),
	}
}

// Clone returns an independent deep copy of the hierarchy: every level's
// contents and LRU state, MSHR occupancy, and statistics. Clone never
// mutates the receiver, so concurrent clones of one warm hierarchy are safe
// provided nothing is accessing it.
//
// Every Hierarchy field must be handled here; TestHierarchyCloneCompleteness
// fails when the struct gains a field Clone does not copy.
func (h *Hierarchy) Clone() *Hierarchy {
	c := *h
	c.IL1 = h.IL1.Clone()
	c.DL1 = h.DL1.Clone()
	c.L2 = h.L2.Clone()
	c.mshrs = h.mshrs.clone()
	return &c
}

// FootprintBytes approximates the resident bytes of the hierarchy's tag and
// MSHR arrays.
func (h *Hierarchy) FootprintBytes() uint64 {
	b := h.IL1.FootprintBytes() + h.DL1.FootprintBytes() + h.L2.FootprintBytes()
	if h.mshrs != nil {
		b += uint64(len(h.mshrs.busyUntil)) * 8
	}
	return b
}

// InstFetch probes the instruction side for addr and returns the fetch
// latency in cycles.
func (h *Hierarchy) InstFetch(addr uint64) int {
	return h.access(h.IL1, addr, false)
}

// Data probes the data side for addr (write=true for stores) and returns the
// access latency in cycles.
func (h *Hierarchy) Data(addr uint64, write bool) int {
	return h.access(h.DL1, addr, write)
}

func (h *Hierarchy) access(l1 *Cache, addr uint64, write bool) int {
	lat := l1.cfg.Latency
	hit, _ := l1.probe(addr, write)
	if hit {
		return lat
	}
	lat += h.L2.cfg.Latency
	// The L1 fill is a read from L2's point of view; dirtiness stays in L1.
	hit2, _ := h.L2.probe(addr, false)
	if h.cfg.NextLinePrefetch && l1 == h.DL1 {
		h.prefetchNextLine(addr)
	}
	if hit2 {
		return lat
	}
	return lat + h.cfg.MemLatency
}

// prefetchNextLine fills addr's successor line into DL1 and L2 without a
// timing charge; Prefetches counts the fills issued.
func (h *Hierarchy) prefetchNextLine(addr uint64) {
	next := (addr | uint64(h.DL1.cfg.LineBytes-1)) + 1
	if h.DL1.Contains(next) {
		return
	}
	h.Prefetches++
	// Fills bypass the demand statistics: undo the probe accounting so
	// miss rates keep meaning "demand misses".
	h.DL1.probe(next, false)
	h.DL1.Accesses--
	h.DL1.Misses--
	if !h.L2.Contains(next) {
		h.L2.probe(next, false)
		h.L2.Accesses--
		h.L2.Misses--
	}
}

// DL1Latency returns the data-side hit latency — the load latency the
// scheduler speculates on.
func (h *Hierarchy) DL1Latency() int { return h.cfg.DL1.Latency }
