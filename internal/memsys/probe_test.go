package memsys

import (
	"fmt"
	"testing"
)

// refCache is a plain true-LRU set-associative write-back cache: each set
// is a recency list, most recently used first. It shares no code with
// Cache and keeps no memo, so it is the model Cache.probe is checked
// against.
type refCache struct {
	lineBytes uint64
	sets      [][]refLine
	ways      int

	accesses, misses, writebacks uint64
}

type refLine struct {
	blk   uint64
	dirty bool
}

func newRefCache(cfg CacheConfig) *refCache {
	return &refCache{
		lineBytes: uint64(cfg.LineBytes),
		sets:      make([][]refLine, cfg.Sets()),
		ways:      cfg.Ways,
	}
}

func (r *refCache) clone() *refCache {
	cp := *r
	cp.sets = make([][]refLine, len(r.sets))
	for i, s := range r.sets {
		cp.sets[i] = append([]refLine(nil), s...)
	}
	return &cp
}

func (r *refCache) set(addr uint64) (blk uint64, set *[]refLine) {
	blk = addr / r.lineBytes
	return blk, &r.sets[blk%uint64(len(r.sets))]
}

func (r *refCache) probe(addr uint64, write bool) (hit, writeback bool) {
	r.accesses++
	blk, set := r.set(addr)
	s := *set
	for i, ln := range s {
		if ln.blk == blk {
			ln.dirty = ln.dirty || write
			copy(s[1:i+1], s[:i])
			s[0] = ln
			return true, false
		}
	}
	r.misses++
	if len(s) == r.ways {
		writeback = s[len(s)-1].dirty
		if writeback {
			r.writebacks++
		}
		s = s[:len(s)-1]
	}
	*set = append([]refLine{{blk: blk, dirty: write}}, s...)
	return false, writeback
}

func (r *refCache) contains(addr uint64) bool {
	blk, set := r.set(addr)
	for _, ln := range *set {
		if ln.blk == blk {
			return true
		}
	}
	return false
}

// probePair drives one Cache and its reference model in lockstep.
type probePair struct {
	c        *Cache
	r        *refCache
	prefetch bool
}

// access makes one demand access on both and, with prefetch on, fills the
// next line after a miss the way Hierarchy's next-line prefetcher fills the
// DL1: only when it is absent, and without counting the fill as a demand
// access or miss.
func (p probePair) access(t *testing.T, what string, addr uint64, write bool) {
	t.Helper()
	hit, wb := p.c.probe(addr, write)
	rhit, rwb := p.r.probe(addr, write)
	if hit != rhit || wb != rwb {
		t.Fatalf("%s: probe(%#x, write=%v) = hit %v writeback %v, reference hit %v writeback %v",
			what, addr, write, hit, wb, rhit, rwb)
	}
	if p.prefetch && !hit {
		next := (addr | uint64(p.c.cfg.LineBytes-1)) + 1
		if in := p.c.Contains(next); in != p.r.contains(next) {
			t.Fatalf("%s: Contains(%#x) = %v, reference %v", what, next, in, !in)
		} else if !in {
			p.c.probe(next, false)
			p.c.Accesses--
			p.c.Misses--
			p.r.probe(next, false)
			p.r.accesses--
			p.r.misses--
		}
	}
	if p.c.Accesses != p.r.accesses || p.c.Misses != p.r.misses || p.c.Writebacks != p.r.writebacks {
		t.Fatalf("%s: after %#x accesses/misses/writebacks %d/%d/%d, reference %d/%d/%d", what, addr,
			p.c.Accesses, p.c.Misses, p.c.Writebacks, p.r.accesses, p.r.misses, p.r.writebacks)
	}
}

func (p probePair) clone() probePair {
	return probePair{c: p.c.Clone(), r: p.r.clone(), prefetch: p.prefetch}
}

// probeStream returns the i-th access of a named address stream over a
// footprint several times the cache's capacity, with a write on roughly one
// access in three.
func probeStream(kind string, cfg CacheConfig, seed uint64) func(i int) (uint64, bool) {
	span := uint64(4 * cfg.SizeBytes)
	x := seed
	return func(i int) (uint64, bool) {
		x = x*6364136223846793005 + 1442695040888963407
		write := x>>62 == 0
		var addr uint64
		switch kind {
		case "sequential":
			addr = uint64(i) * 4 % span
		case "strided":
			// One set's worth of lines apart, so every access lands in the
			// same few sets and evicts.
			addr = uint64(i) * uint64(cfg.Sets()*cfg.LineBytes+8) % span
		default:
			addr = (x >> 20) % span
		}
		return 0x10000 + addr, write
	}
}

// TestProbeMatchesReference checks Cache.probe, including its last-line
// memo, against the reference model on sequential, strided and random
// streams of reads and writes, with and without next-line prefetch fills,
// on several geometries. Halfway through, both are cloned; the originals
// and the clones then continue on different streams, each still checked
// after every access.
func TestProbeMatchesReference(t *testing.T) {
	geometries := []CacheConfig{
		{Name: "dm", SizeBytes: 512, LineBytes: 16, Ways: 1},
		{Name: "2way", SizeBytes: 1 << 10, LineBytes: 32, Ways: 2},
		{Name: "4way", SizeBytes: 2 << 10, LineBytes: 16, Ways: 4},
		Default().L2,
	}
	const n = 20000
	for _, cfg := range geometries {
		for _, kind := range []string{"sequential", "strided", "random"} {
			for _, prefetch := range []bool{false, true} {
				what := fmt.Sprintf("%s/%s/prefetch=%v", cfg.Name, kind, prefetch)
				t.Run(what, func(t *testing.T) {
					a := probePair{c: NewCache(cfg), r: newRefCache(cfg), prefetch: prefetch}
					next := probeStream(kind, cfg, 1)
					for i := 0; i < n/2; i++ {
						addr, write := next(i)
						a.access(t, what, addr, write)
					}
					b := a.clone()
					nextB := probeStream(kind, cfg, 2)
					for i := n / 2; i < n; i++ {
						addr, write := next(i)
						a.access(t, what+" original", addr, write)
						addr, write = nextB(i + 7)
						b.access(t, what+" clone", addr, write)
					}
				})
			}
		}
	}
}
