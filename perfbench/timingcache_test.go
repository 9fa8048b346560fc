package main

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"soma/internal/engine"
	"soma/internal/sim"
)

func TestTimingCachePairsMissesByKey(t *testing.T) {
	col := &cacheTimes{}
	c := newTimingCache(sim.NewCache(0), col)
	s1 := "resnet50|1|edge|enc:\x03\x00\x01"
	s2 := "resnet50|1|edge|\x03\x00\x01\x07"
	m := &sim.Metrics{LatencyNS: 1}

	if _, _, ok := c.Get(s1); ok {
		t.Fatal("empty cache hit")
	}
	if _, _, ok := c.Get(s2); ok {
		t.Fatal("empty cache hit")
	}
	// Puts arrive in the other order; each pairs with its own key's miss.
	c.Put(s2, m, nil)
	c.Put(s1, m, nil)
	if got, _, ok := c.Get(s1); !ok || got.LatencyNS != 1 {
		t.Fatalf("Get after Put = %v, %v; want the stored metrics", got, ok)
	}
	c.Put("orphan", m, nil) // no Get miss before it

	gets, hits, getNS, evalNS, unpaired := col.snapshot()
	if gets != 3 || hits != 1 || len(getNS) != 3 {
		t.Errorf("gets=%d hits=%d timed=%d, want 3, 1, 3", gets, hits, len(getNS))
	}
	if len(evalNS[evalStage1]) != 1 || len(evalNS[evalStage2]) != 1 {
		t.Errorf("paired evaluations stage1=%d stage2=%d, want 1 and 1",
			len(evalNS[evalStage1]), len(evalNS[evalStage2]))
	}
	if unpaired != 1 {
		t.Errorf("unpaired Puts = %d, want 1", unpaired)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("inner stats %+v, want 1 hit and 2 misses", st)
	}
}

func TestKeyClass(t *testing.T) {
	cases := map[string]int{
		"resnet50|1|edge|enc:abc":                      evalStage1,
		"mobilenetv2|4|edge|cfg:0123456789abcdef|enc:": evalStage1,
		"resnet50|1|edge|\x05\x01\x02":                 evalStage2,
		"enc:abc":                                      evalStage2, // no engine scope
	}
	for key, want := range cases {
		if got := keyClass(key); got != want {
			t.Errorf("keyClass(%q) = %d, want %d", key, got, want)
		}
	}
}

// The wrapper must not change what a solve finds: a fixed-seed request
// through a timing cache returns the same schedule as one through the bare
// cache underneath.
func TestTimingCachePassesResultsThrough(t *testing.T) {
	req := engine.Request{Backend: "soma", Model: "mobilenetv2", Batch: 1,
		Platform: "edge", Params: fastParams(3)}
	ctx := context.Background()

	plain := req
	plain.Cache = sim.NewCache(0)
	want, err := engine.Run(ctx, plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := &cacheTimes{}
	timed := req
	timed.Cache = newTimingCache(sim.NewCache(0), col)
	got, err := engine.Run(ctx, timed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if digest(got) != digest(want) {
		t.Fatalf("timing cache changed the result:\n got %s\nwant %s", digest(got), digest(want))
	}
	gets, _, _, evalNS, unpaired := col.snapshot()
	if gets == 0 || len(evalNS[evalStage1]) == 0 || len(evalNS[evalStage2]) == 0 {
		t.Errorf("gets=%d stage1 evals=%d stage2 evals=%d; want all non-zero",
			gets, len(evalNS[evalStage1]), len(evalNS[evalStage2]))
	}
	if unpaired != 0 {
		t.Errorf("%d Puts without a preceding miss", unpaired)
	}
}

// dse-sweep shares one timing cache between its grid workers.
func TestTimingCacheConcurrentUse(t *testing.T) {
	col := &cacheTimes{}
	c := newTimingCache(sim.NewCache(0), col)
	m := &sim.Metrics{LatencyNS: 1}
	const workers, keys = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("resnet50|1|edge|enc:%d", k)
				if _, _, ok := c.Get(key); !ok {
					c.Put(key, m, nil)
				}
			}
		}()
	}
	wg.Wait()
	gets, hits, _, evalNS, unpaired := col.snapshot()
	if gets != workers*keys {
		t.Errorf("gets = %d, want %d", gets, workers*keys)
	}
	if misses := gets - hits; len(evalNS[evalStage1]) != misses || unpaired != 0 {
		t.Errorf("%d misses but %d paired evaluations and %d unpaired Puts",
			misses, len(evalNS[evalStage1]), unpaired)
	}
}
