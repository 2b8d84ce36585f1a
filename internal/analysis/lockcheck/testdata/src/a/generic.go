package a

import "sync"

// cache is a generic struct: its guarded fields must be checked both in
// its own methods and through an instantiation.
type cache[K comparable, V any] struct {
	mu    sync.Mutex
	slots map[K]V // guarded by mu
	hits  int     // guarded by mu
}

func (c *cache[K, V]) get(k K) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	return c.slots[k]
}

func (c *cache[K, V]) badGet(k K) V {
	return c.slots[k] // want `access to c\.slots without holding c\.mu`
}

func peek(c *cache[string, int]) int {
	return len(c.slots) // want `access to c\.slots without holding c\.mu`
}
