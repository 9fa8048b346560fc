package main

import (
	"regexp"
	"sync"
	"time"

	"soma/internal/sim"
)

// Evaluation classes of the timing cache. A stage-1 key names an LFA
// encoding ("enc:" after the engine's cache scope), so the time between its
// Get miss and its Put is core.Parse plus sim.Evaluate. Every other key names
// a full schedule: stage-2 sim.Incremental proposals and the winner
// re-evaluations around them.
const (
	evalStage1 = iota
	evalStage2
	evalClasses
)

// stage1Key matches the engine's cache scope ("model|batch|platform|", plus
// "cfg:<digest>|" for hardware overrides) followed by soma's "enc:" prefix.
// A schedule key starts with binary varints, which would have to spell
// "enc:" right after the scope to be misclassified.
var stage1Key = regexp.MustCompile(`^[^|]*\|-?[0-9]+\|[^|]*\|(cfg:[0-9a-f]+\|)?enc:`)

func keyClass(key string) int {
	if stage1Key.MatchString(key) {
		return evalStage1
	}
	return evalStage2
}

// cacheTimes collects what the timing caches of one traced pass observe.
// Several timingCache values (one private cache per request) may feed one
// collector; it is safe for concurrent use.
type cacheTimes struct {
	mu       sync.Mutex
	gets     int
	hits     int
	getNS    []float64
	evalNS   [evalClasses][]float64
	unpaired int // Puts without a preceding Get miss on the same key
}

func (ct *cacheTimes) snapshot() (gets, hits int, getNS []float64, evalNS [evalClasses][]float64, unpaired int) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for c := range evalNS {
		evalNS[c] = append([]float64(nil), ct.evalNS[c]...)
	}
	return ct.gets, ct.hits, append([]float64(nil), ct.getNS...), evalNS, ct.unpaired
}

// timingCache is a sim.EvalCache that forwards to an inner cache and times
// what passes through it: the duration of every Get, and - by pairing each
// Get miss with the Put the caller makes for the same key once it has
// evaluated - the duration of every evaluation. Results are untouched, so a
// solve through a timing cache returns the same schedule as one through the
// bare inner cache.
type timingCache struct {
	inner sim.EvalCache
	col   *cacheTimes

	mu      sync.Mutex
	pending map[string][]time.Time // Get-miss times awaiting their Put, oldest first
}

func newTimingCache(inner sim.EvalCache, col *cacheTimes) *timingCache {
	return &timingCache{inner: inner, col: col, pending: map[string][]time.Time{}}
}

func (c *timingCache) Get(key string) (*sim.Metrics, error, bool) {
	start := time.Now()
	m, err, ok := c.inner.Get(key)
	end := time.Now()
	if !ok {
		c.mu.Lock()
		c.pending[key] = append(c.pending[key], end)
		c.mu.Unlock()
	}
	c.col.mu.Lock()
	c.col.gets++
	if ok {
		c.col.hits++
	}
	c.col.getNS = append(c.col.getNS, float64(end.Sub(start).Nanoseconds()))
	c.col.mu.Unlock()
	return m, err, ok
}

func (c *timingCache) Put(key string, m *sim.Metrics, err error) {
	now := time.Now()
	c.mu.Lock()
	starts := c.pending[key]
	var missAt time.Time
	if len(starts) > 0 {
		missAt = starts[0]
		if len(starts) == 1 {
			delete(c.pending, key)
		} else {
			c.pending[key] = starts[1:]
		}
	}
	c.mu.Unlock()
	c.col.mu.Lock()
	if missAt.IsZero() {
		c.col.unpaired++
	} else {
		cl := keyClass(key)
		c.col.evalNS[cl] = append(c.col.evalNS[cl], float64(now.Sub(missAt).Nanoseconds()))
	}
	c.col.mu.Unlock()
	c.inner.Put(key, m, err)
}

func (c *timingCache) Stats() sim.CacheStats { return c.inner.Stats() }
