package prisim

import (
	"context"
	"errors"
	"sync"
)

// memo is the singleflight cache behind both of the Engine's caches (timing
// results and fast-forward snapshots). The first caller for a key computes
// the value while concurrent callers for the same key wait — holding
// nothing, so waiting cannot deadlock the worker pool — and share it. A
// flight that fails (its owner's context was cancelled, or fn returned an
// error or panicked) is evicted before its waiters wake, so they retry
// under their own contexts. With limit > 0, least-recently-used completed
// slots are evicted beyond limit; in-flight slots never are.
type memo[K comparable, V any] struct {
	limit int            // resident-slot bound; 0 = unbounded
	size  func(V) uint64 // resident bytes of one value; nil = not tracked

	mu    sync.Mutex
	slots map[K]*slot[V] // guarded by mu
	clock uint64         // guarded by mu; LRU clock
	runs  int            // guarded by mu; values computed
	hits  int            // guarded by mu; requests served by a completed slot
	joins int            // guarded by mu; requests served by waiting on another caller's flight
	bytes uint64         // guarded by mu; resident bytes of completed values
}

// slot is one key's flight: done closes once val/err are final.
type slot[V any] struct {
	done    chan struct{}
	val     V
	err     error
	bytes   uint64 // size(val), taken before the slot is accounted
	lastUse uint64 // LRU stamp; the memo's mu serializes access
}

func newMemo[K comparable, V any](limit int, size func(V) uint64) *memo[K, V] {
	return &memo[K, V]{limit: limit, size: size, slots: make(map[K]*slot[V])}
}

// memoStats is a consistent snapshot of one memo's counters.
type memoStats struct {
	runs, hits, joins int
	bytes             uint64
}

func (m *memo[K, V]) stats() memoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return memoStats{runs: m.runs, hits: m.hits, joins: m.joins, bytes: m.bytes}
}

// do returns key's value, computing it with fn when no completed or
// in-flight slot exists.
func (m *memo[K, V]) do(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		m.mu.Lock()
		if s, ok := m.slots[key]; ok {
			select {
			case <-s.done:
				// A failed flight evicts itself before closing done, so a
				// completed slot still in the map always succeeded.
				m.hits++
				m.touch(s)
				m.mu.Unlock()
				return s.val, nil
			default:
			}
			m.mu.Unlock()
			select {
			case <-s.done:
				if s.err != nil {
					continue // the owner failed or was cancelled; retry under ctx
				}
				m.mu.Lock()
				m.joins++
				m.touch(s)
				m.mu.Unlock()
				return s.val, nil
			case <-ctx.Done():
				return zero, ctx.Err()
			}
		}
		s := &slot[V]{done: make(chan struct{}), err: errPanicked}
		m.slots[key] = s
		m.mu.Unlock()
		defer m.settle(key, s) // deferred, so a panic in fn cannot strand waiters
		s.val, s.err = fn()
		return s.val, s.err
	}
}

// errPanicked is the error of a flight whose fn panicked. The flight
// settles as failed, so its waiters retry instead of waiting forever, and
// the panic continues up the owner's stack.
var errPanicked = errors.New("prisim: flight panicked")

// settle publishes a finished flight. A failed one is evicted before its
// waiters wake, so they retry under their own contexts.
func (m *memo[K, V]) settle(key K, s *slot[V]) {
	if s.err == nil && m.size != nil {
		s.bytes = m.size(s.val)
	}
	m.mu.Lock()
	if s.err != nil {
		delete(m.slots, key)
	} else {
		m.runs++
		m.bytes += s.bytes
		m.touch(s)
		m.evict()
	}
	m.mu.Unlock()
	close(s.done)
}

// nearest returns the value of the completed or in-flight slot whose key
// scores highest under score, waiting (holding nothing) if that slot is
// still in flight; keys scoring 0 are never chosen, and ok is false when no
// key scores above 0. No two keys may share a positive score, and score
// runs under the memo's lock, so it must not call back into the memo. A
// flight that fails evicts itself before waking its waiters, so
// the scan then repeats and settles on the next-best key. The lookup counts
// as neither a hit nor a join, but marks the chosen slot recently used.
func (m *memo[K, V]) nearest(ctx context.Context, score func(K) uint64) (val V, ok bool, err error) {
	for {
		m.mu.Lock()
		var best *slot[V]
		var bestScore uint64
		//lint:ignore determinism the maximum of distinct scores is unique, so the choice is order-independent
		for k, s := range m.slots {
			if sc := score(k); sc > bestScore {
				best, bestScore = s, sc
			}
		}
		if best == nil {
			m.mu.Unlock()
			return val, false, nil
		}
		m.touch(best)
		m.mu.Unlock()
		select {
		case <-best.done:
			if best.err != nil {
				continue // the flight failed and is gone; rescan
			}
			return best.val, true, nil
		case <-ctx.Done():
			return val, false, ctx.Err()
		}
	}
}

// touch stamps s as most recently used.
//
//prisim:locked
func (m *memo[K, V]) touch(s *slot[V]) {
	m.clock++
	s.lastUse = m.clock
}

// evict drops least-recently-used completed slots until at most limit remain.
//
//prisim:locked
func (m *memo[K, V]) evict() {
	for m.limit > 0 && len(m.slots) > m.limit {
		var victimKey K
		var victim *slot[V]
		//lint:ignore determinism LRU selection by minimal lastUse stamp is order-independent: stamps are unique, so the minimum is unique
		for k, s := range m.slots {
			select {
			case <-s.done:
			default:
				continue // still in flight
			}
			if victim == nil || s.lastUse < victim.lastUse {
				victimKey, victim = k, s
			}
		}
		if victim == nil {
			return // everything is in flight; nothing evictable
		}
		m.bytes -= victim.bytes
		delete(m.slots, victimKey)
	}
}
