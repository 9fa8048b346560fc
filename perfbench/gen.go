package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/report"
	"soma/internal/service"
	"soma/internal/soma"
)

// The generators turn (workload seed, round) into the requests the program
// receives. The same pair always gives the same requests. The seed orders
// the requests - the catalog of cnn-solve, the grid of dse-sweep, the job
// arrivals of somad-serve - and never changes the mix or the searches:
// every search runs with a fixed search seed (the soma CLI's default, and
// for the sweep's seed axis the next one too). One search's cost varies by
// up to 2x with its search seed (the Buffer Allocator runs 2 to 4
// iterations), so seeded searches spread runs far wider than any bound a
// regression check could use; fixed ones make every run repeat the same
// searches, and only order and host vary.

// roundRNG is the random stream of one workload round.
func roundRNG(tag string, seed int64, round int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", tag, seed, round)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// fastParams is the fast search profile with the given search seed.
func fastParams(seed int64) soma.Params {
	p := soma.FastParams()
	p.Seed = seed
	return p
}

var (
	cnnModels  = []string{"resnet50", "resnet101", "mobilenetv2", "randwire", "ires"}
	cnnBatches = []int{1, 4}
)

// cliSeed is the soma CLI's default search seed.
const cliSeed = 1

// cnnRound is one round of cnn-solve: every model x batch pair of the
// catalog once, in seeded order. Requests carry no cache, so each solve
// gets a private one, as the soma CLI does.
func cnnRound(seed int64, round int) []engine.Request {
	rng := roundRNG("cnn-solve", seed, round)
	var reqs []engine.Request
	for _, m := range cnnModels {
		for _, b := range cnnBatches {
			reqs = append(reqs, engine.Request{Backend: "soma", Model: m, Batch: b,
				Platform: "edge", Params: cnnParams()})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// stage1Cap caps stage 1 of the searches the benchmark makes itself. The
// fast profile caps it at 1200 annealing iterations; at that cap one
// gpt2s-prefill solve takes 13-37 s and one 48-point sweep 13-19 s on a
// 2-vCPU host, so a run would hold a single round, and one burst of load
// from other tenants of the host moves the whole run. The cap keeps the
// graphs and the Buffer Allocator loop of the fast profile and makes rounds
// short enough that each run reports the median of several. somad-serve
// jobs keep the plain fast profile, as the job API has no stage-1 cap and
// its rounds are short anyway.
const stage1Cap = 150

// cappedParams is the fast profile with the given search seed and stage 1
// capped at stage1Cap iterations.
func cappedParams(seed int64) soma.Params {
	p := fastParams(seed)
	p.Stage1MaxIters = stage1Cap
	return p
}

// cnnParams are the search parameters of cnn-solve: cappedParams with
// stage 2 capped at stage1Cap iterations as well. Left at the fast
// profile's 2000 iterations, stage 2 would take a visible share of a CNN
// solve beside a capped stage 1; capped too, stage 1 is ~96 % of the solve
// (soma.stage1_share), as it is of an uncapped default-profile solve, and a
// catalog pass takes ~5 s on a 2-vCPU host.
func cnnParams() soma.Params {
	p := cappedParams(cliSeed)
	p.Stage2MaxIters = stage1Cap
	return p
}

// llmRound is one round of llm-prefill: a single solve of the GPT-2 small
// prefill graph. It is the same request for every seed and round.
func llmRound(seed int64, round int) []engine.Request {
	return []engine.Request{{Backend: "soma", Model: "gpt2s-prefill", Batch: 1,
		Platform: "edge", Params: cappedParams(cliSeed)}}
}

// dseModels are the CNNs of the dse-sweep grid. Three models of different
// solve cost keep the median point inside one cluster of point times, not
// between two.
var dseModels = []string{"resnet50", "mobilenetv2", "randwire"}

// dseRound is one round of dse-sweep: a Fig.-7-style grid of CNN models x
// DRAM bandwidth x GBUF size x two objectives x two search seeds, on two
// grid workers. The seed orders the model axis, which reorders the grid
// and so the order in which the pool dispatches the same 48 points.
func dseRound(seed int64, round int) dse.Sweep {
	rng := roundRNG("dse-sweep", seed, round)
	models := append([]string(nil), dseModels...)
	par := cappedParams(cliSeed)
	rng.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
	return dse.Sweep{
		Name:       fmt.Sprintf("perfbench-dse-%d-%d", seed, round),
		Backends:   []string{"soma"},
		Platforms:  []string{"edge"},
		Models:     models,
		Batches:    []int{1},
		DRAMGBs:    []float64{8, 32},
		GBufMB:     []int64{4, 8},
		Objectives: []report.Objective{{N: 1, M: 1}, {N: 1, M: 2}},
		Seeds:      []int64{cliSeed, cliSeed + 1},
		Params:     &par,
		Workers:    2,
	}
}

// somadTemplate is one distinct job of the somad-serve catalog.
type somadTemplate struct {
	Model     string
	Batch     int
	Framework string
}

// somadCatalog lists the distinct jobs in popularity order: rank 1 is the
// most requested. Two of the eight run the cocco baseline, which solves
// uncached, so its repeats cost a full solve.
var somadCatalog = []somadTemplate{
	{"resnet50", 1, "soma"},
	{"mobilenetv2", 1, "cocco"},
	{"randwire", 1, "soma"},
	{"gpt2s-decode", 1, "soma"},
	{"mobilenetv2", 4, "soma"},
	{"resnet50", 1, "cocco"},
	{"randwire", 4, "soma"},
	{"mobilenetv2", 1, "soma"},
}

// somadJobsPerRound is the number of jobs one somad-serve round submits.
const somadJobsPerRound = 48

// zipfExponent shapes the somad-serve popularity: repeats go to rank r in
// proportion to 1/r^2. With 48 jobs over 8 templates the most popular one
// gets more than half of all jobs, so the median job is always one of its
// repeats instead of falling between two clusters of latencies.
const zipfExponent = 2

// zipfQuotas splits n jobs over k ranked templates: one first request per
// template, and the n-k repeats in proportion to 1/rank^zipfExponent, by
// largest remainder, so the counts sum to n exactly (n >= k).
func zipfQuotas(n, k int) []int {
	weights := make([]float64, k)
	var total float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipfExponent)
		total += weights[r]
	}
	quotas := make([]int, k)
	rem := make([]float64, k)
	left := n - k
	for r := range quotas {
		exact := float64(n-k) * weights[r] / total
		quotas[r] = int(exact)
		rem[r] = exact - float64(quotas[r])
		left -= quotas[r]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		quotas[best]++
		rem[best] = -1
	}
	for r := range quotas {
		quotas[r]++ // the template's first request
	}
	return quotas
}

// somadOverlaps are the catalog templates whose first request goes out
// twice, back to back, at the start of every round: the two clients post
// both copies at once, and the service (which does not coalesce identical
// jobs in flight) runs the same search twice side by side. Fixing the
// overlaps keeps that duplicate-solve path in every round, the same for
// every seed; service.dup_run_ms reports it.
var somadOverlaps = []int{0, 2}

// somadRound is one round of somad-serve: one job request per catalog
// template, and the submission order as template indices. The overlapped
// templates go first, each twice in a row; then the first request of every
// other template, in catalog order; then the remaining repeats - quotas 27,
// 8, 4, 3, 2, 2, 1, 1 less the requests already placed - in seeded order.
// With first requests interleaved at random, whether a repeat found its
// template's schedule cached or ran the same search again beside it
// depended on the seed, and round walls spread 30 % between seeds.
func somadRound(seed int64, round int) (templates []service.Request, order []int) {
	rng := roundRNG("somad-serve", seed, round)
	left := zipfQuotas(somadJobsPerRound, len(somadCatalog))
	for _, t := range somadCatalog {
		templates = append(templates, service.Request{Model: t.Model, Batch: t.Batch,
			HW: "edge", Framework: t.Framework,
			Params: &service.ParamsRequest{Profile: "fast", Seed: cliSeed}})
	}
	placed := make([]bool, len(somadCatalog))
	place := func(i int) {
		order = append(order, i)
		left[i]--
		placed[i] = true
	}
	for _, i := range somadOverlaps {
		place(i)
		place(i)
	}
	for i := range somadCatalog {
		if !placed[i] {
			place(i)
		}
	}
	var repeats []int
	for i, n := range left {
		for ; n > 0; n-- {
			repeats = append(repeats, i)
		}
	}
	rng.Shuffle(len(repeats), func(i, j int) { repeats[i], repeats[j] = repeats[j], repeats[i] })
	return templates, append(order, repeats...)
}

// warmupRequest is solved before timing on every workload. Its model,
// batch and platform appear in no workload's catalog, so it warms the
// process (code paths, heap, connection pools) without warming any cache
// entry a measured request could hit.
func warmupRequest() engine.Request {
	return engine.Request{Backend: "soma", Model: "mobilenetv2", Batch: 2,
		Platform: "cloud", Params: fastParams(1)}
}

// warmupJob is warmupRequest as a somad job.
func warmupJob() service.Request {
	return service.Request{Model: "mobilenetv2", Batch: 2, HW: "cloud",
		Params: &service.ParamsRequest{Profile: "fast", Seed: 1}}
}
