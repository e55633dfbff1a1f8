// Package lru provides the repository's one cache primitive: a bounded,
// keyed singleflight. A key's fill function runs at most once while its
// entry is resident, concurrent callers join the running flight, and an
// insertion past the bound evicts the least recently used entry. The Lab
// keeps its grids (each with its analysis) in one; the daemon memoizes
// /v1/optimal answers in another.
//
// Eviction and failure semantics:
//
//   - Eviction happens at insertion time and takes the least recently used
//     entry even if its flight is still running. That flight's waiters
//     still get its result; the result is just not kept. onEvict runs
//     outside the lock, so it may re-enter the cache.
//   - A failed flight removes only its own entry, compared by identity, not
//     by key: a flight that fails after its entry was evicted or removed
//     never drops a newer entry for the same key. Failed results are never
//     served from the cache.
//   - A waiter whose context ends returns ctx.Err(); the flight keeps
//     running for everyone else.
package lru

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Cache is a fixed-capacity keyed singleflight, safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; Value is *entry[K, V]
	items   map[K]*list.Element
	onEvict func(K)
}

// entry is one key's flight. done closes once val and err are final; a
// failed flight leaves the map before closing done, so a resident entry
// whose done is closed always holds a value.
type entry[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
}

// New builds a cache holding at most max entries. onEvict, if non-nil, is
// called with each key displaced by capacity (not by Remove), after the
// cache lock is released.
func New[K comparable, V any](max int, onEvict func(K)) (*Cache[K, V], error) {
	if max < 1 {
		return nil, fmt.Errorf("lru: capacity %d < 1", max)
	}
	return &Cache[K, V]{
		max:     max,
		order:   list.New(),
		items:   make(map[K]*list.Element),
		onEvict: onEvict,
	}, nil
}

// Do returns key's value, running fn at most once per resident entry no
// matter how many goroutines ask concurrently. joined reports whether the
// caller found an existing entry — completed or in flight — rather than
// running fn itself; either way the entry becomes the most recently used.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (val V, joined bool, err error) {
	if v, ok := c.hit(key); ok {
		return v, true, nil
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	el, resident := c.insert(e)
	if resident != nil {
		select {
		case <-resident.done:
			return resident.val, true, resident.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}

	e.val, e.err = fn()
	if e.err != nil {
		c.mu.Lock()
		if c.items[key] == el {
			c.order.Remove(el)
			delete(c.items, key)
		}
		c.mu.Unlock()
	}
	close(e.done)
	return e.val, false, e.err
}

// hit is Do's fast path: a completed entry's value, marked most recently
// used. It is the read every cached request pays before any flight
// bookkeeping, so it must stay allocation-free.
func (c *Cache[K, V]) hit(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.completedLocked(key); ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// completedLocked returns key's element if its flight has finished. The
// caller holds c.mu.
func (c *Cache[K, V]) completedLocked(key K) (*list.Element, bool) {
	el, ok := c.items[key]
	if !ok || !el.Value.(*entry[K, V]).finished() {
		return nil, false
	}
	return el, true
}

func (e *entry[K, V]) finished() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// insert makes e the most recently used entry and returns its element,
// unless e.key is already resident: then it marks the resident entry most
// recently used, returns it instead, and drops e. An insertion past the
// bound evicts the least recently used entry and reports it to onEvict
// after the lock is released.
func (c *Cache[K, V]) insert(e *entry[K, V]) (*list.Element, *entry[K, V]) {
	c.mu.Lock()
	if el, ok := c.items[e.key]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return nil, el.Value.(*entry[K, V])
	}
	el := c.order.PushFront(e)
	c.items[e.key] = el
	// Entries arrive one at a time, so one eviction restores the bound.
	var evicted *entry[K, V]
	if c.order.Len() > c.max {
		evicted = c.order.Remove(c.order.Back()).(*entry[K, V])
		delete(c.items, evicted.key)
	}
	c.mu.Unlock()
	if evicted != nil && c.onEvict != nil {
		c.onEvict(evicted.key)
	}
	return el, nil
}

// Remove deletes key without invoking the eviction callback, reporting
// whether it was present. A running flight is unaffected: its waiters
// still get the result, which is just not kept.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, key)
	return true
}

// Len returns the number of resident entries, running flights included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
