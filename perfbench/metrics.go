package main

import (
	"fmt"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, never in the result line
}

// gatedEndToEnd are the end-to-end metrics of the result line: the ones
// BENCHMARK.json bounds. The others are printed only: solve_tail_ms does
// not exist on workloads with fewer than 20 requests per run, the
// simulated latency is a time that reads the same on every run (searches
// are seed-independent, see gen.go) and so carries no host measurement,
// and the two failure fractions are 0 or small counts over a few requests.
var gatedEndToEnd = []string{"setup_s", "wall_s", "solves_per_s", "solve_p50_ms",
	"cpu_s", "alloc_mb_per_solve", "mem_peak_mb", "sim_edp_geomean", "sim_dram_mb_geomean"}

const mib = 1 << 20

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quality returns the geometric means of the simulated EDP (mJ x ms),
// latency (us) and DRAM traffic (MiB) of the distinct solved requests.
// EDP is in mJ x ms (1e15 pJ x ns) so that it prints as a plain decimal: in
// pJ x ns a gpt2s-prefill schedule's EDP is ~1e18, which encoding/json
// writes as a bare integer.
func (b *bench) qualityMetrics() []metric {
	var edp, lat, dram []float64
	for _, m := range b.quality {
		edp = append(edp, m.EnergyPJ*m.LatencyNS/1e15)
		lat = append(lat, m.LatencyNS/1e3)
		dram = append(dram, float64(m.TotalDRAMBytes)/mib)
	}
	note := fmt.Sprintf("simulated, %d schedules", len(b.quality))
	return []metric{
		{"sim_edp_geomean", geomean(edp), "mJ.ms", note},
		{"sim_latency_geomean_us", geomean(lat), "us", note},
		{"sim_dram_mb_geomean", geomean(dram), "MB", note},
	}
}

// endToEnd computes every end-to-end metric of a pass. Host times are
// brought to the reference host speed (hostref.go): each round's times by
// that round's scale, the set-ups' by setupScale; the notes give the raw
// figures. Wall, throughput, CPU and peak heap are per round (one round is
// the workload's fixed unit of work), medians over the rounds of the run: a
// burst of host load that slows one round does not move them.
func endToEnd(b *bench, setups []float64, setupScale float64) []metric {
	var walls, rawWalls, rates, rawRates, cpus, rawCPUs, peaks, scales, steals, lat, rawLat []float64
	var allocs float64
	solves := 0
	for _, r := range b.rounds {
		walls = append(walls, r.wall.Seconds()*r.wallScale())
		rawWalls = append(rawWalls, r.wall.Seconds())
		rates = append(rates, ratio(float64(r.solves), r.wall.Seconds()*r.wallScale()))
		rawRates = append(rawRates, ratio(float64(r.solves), r.wall.Seconds()))
		cpus = append(cpus, r.cpu.Seconds()*r.scale)
		rawCPUs = append(rawCPUs, r.cpu.Seconds())
		peaks = append(peaks, r.heapPeak/mib)
		scales = append(scales, r.scale)
		steals = append(steals, r.steal)
		allocs += r.allocBytes
		solves += r.solves
	}
	for i, a := range b.attempts {
		lat = append(lat, a.ms*b.roundOf(i).wallScale())
		rawLat = append(rawLat, a.ms)
	}
	tailM := metric{name: "solve_tail_ms", unit: "ms"}
	if t, ok := tailOf(lat); ok {
		tailM.value = t.Value
		tailM.note = fmt.Sprintf("p%g, %d of %d samples beyond", t.Pct, t.Beyond, t.N)
	} else {
		tailM.note = fmt.Sprintf("omitted: %d samples, fewer than %d beyond any percentile", len(lat), minBeyond)
	}
	out := []metric{
		{"setup_s", median(setups) * setupScale, "s",
			fmt.Sprintf("median of %d set-ups; raw %.4g s", len(setups), median(setups))},
		{"wall_s", median(walls), "s",
			fmt.Sprintf("per round, median of %d; raw %.4g s", len(walls), median(rawWalls))},
		{"solves_per_s", median(rates), "1/s", fmt.Sprintf("per round, median; raw %.4g/s", median(rawRates))},
		{"solve_p50_ms", midMean(lat), "ms",
			fmt.Sprintf("mean of the 40th-60th percentile of %d samples; raw %.4g ms", len(lat), midMean(rawLat))},
		tailM,
		{"cpu_s", median(cpus), "s", fmt.Sprintf("user+sys per round; raw %.4g s", median(rawCPUs))},
		{"alloc_mb_per_solve", ratio(allocs, float64(solves)) / mib, "MB", ""},
		{"mem_peak_mb", median(peaks), "MB", "peak live Go heap per round"},
		{"host_scale", median(scales), "ratio",
			fmt.Sprintf("per round, median; reference kernel %v over its median around the round; set-ups %.4g", refNominal, setupScale)},
		{"steal_share", median(steals), "ratio", "per round, median; stolen share of the CPUs' time, taken off wall times"},
	}
	out = append(out, b.qualityMetrics()...)
	attempted := len(b.attempts)
	out = append(out,
		metric{"failed_frac", ratio(float64(b.failedCount()), float64(attempted)), "ratio",
			fmt.Sprintf("%d of %d", b.failedCount(), attempted)},
		metric{"lower_fail_frac", ratio(float64(b.lowerBad), float64(b.lowerOK+b.lowerBad)), "ratio",
			fmt.Sprintf("%d of %d winners rejected by isa.Generate (known defect)", b.lowerBad, b.lowerOK+b.lowerBad)})
	return out
}

// perLayer computes the per-layer metrics of the traced rounds in b. twin
// holds the untraced rounds that alternated with them, round r of each
// doing the same requests. A layer the workload does not reach reports 0.
func perLayer(b *bench, twin *bench) []metric {
	var out []metric
	add := func(name string, v float64, unit string) {
		out = append(out, metric{name: name, value: v, unit: unit})
	}

	// engine / soma: stage split of every soma solve.
	var s1, s2 []float64
	var s1Sum, totSum, iters float64
	for _, r := range b.stages {
		s1 = append(s1, ms(r.stage1))
		s2 = append(s2, ms(r.stage2))
		s1Sum += r.stage1.Seconds()
		totSum += r.total.Seconds()
		iters += float64(r.allocIters)
	}
	add("soma.stage1_ms", median(s1), "ms")
	add("soma.stage2_ms", median(s2), "ms")
	add("soma.stage1_share", ratio(s1Sum, totSum), "ratio")
	add("soma.alloc_iters", ratio(iters, float64(len(b.stages))), "count")

	// sim cache, through the timing wrapper.
	var wallBusy float64
	for _, r := range b.rounds {
		wallBusy += r.wall.Seconds() * float64(r.goroutines)
	}
	ct := &cacheTimes{}
	if b.tr != nil {
		ct = &b.tr.cache
	}
	gets, hits, getNS, evalNS, _ := ct.snapshot()
	add("cache.gets", float64(gets), "count")
	add("cache.hit_ratio", ratio(float64(hits), float64(gets)), "ratio")
	add("cache.get_ns_p50", median(getNS), "ns")
	for c, stage := range []string{"stage1", "stage2"} {
		add(stage+".evals", float64(len(evalNS[c])), "count")
		add(stage+".eval_us_p50", median(evalNS[c])/1e3, "us")
		add(stage+".eval_busy_share", ratio(sum(evalNS[c])/1e9, wallBusy), "ratio")
	}

	// Layer operations replayed on every winner.
	costs := replayCosts(b.replays)
	for _, layer := range replayLayers {
		c := costs[layer]
		add(layer+"_ns", c.ns, "ns")
		add(layer+"_allocs", c.allocs, "count")
		add(layer+"_bytes", c.bytes, "B")
	}
	add("isa.lower_fail_frac", ratio(float64(b.lowerBad), float64(b.lowerOK+b.lowerBad)), "ratio")

	// dse worker pool.
	add("dse.point_ms_p50", median(b.dse.pointMS), "ms")
	add("dse.queue_wait_ms_p50", median(b.dse.waitMS), "ms")
	add("dse.busy_share", ratio(b.dse.busy.Seconds(), b.dse.wall.Seconds()*float64(b.dse.workers)), "ratio")

	// service and HTTP.
	sv := b.service
	add("service.queue_ms", median(sv.queueMS), "ms")
	add("service.run_ms", median(sv.runMS), "ms")
	add("http.overhead_ms", median(sv.overheadMS), "ms")
	add("http.resp_kb", median(sv.respKB), "KB")
	add("service.cache_hit_ratio", ratio(float64(sv.hits), float64(sv.hits+sv.misses)), "ratio")
	add("service.repeat_share", ratio(float64(sv.repeats), float64(sv.jobs)), "ratio")
	add("service.dup_run_ms", median(sv.dupRunMS), "ms")
	out[len(out)-1].note = fmt.Sprintf("%d repeats ran beside their template's first job", len(sv.dupRunMS))

	// Go runtime.
	var cycles, gcCPU, allCPU float64
	for _, r := range b.rounds {
		cycles += r.gcCycles
		gcCPU += r.gcCPU
		allCPU += r.allCPU
	}
	add("go.gc_cycles", cycles, "count")
	add("go.gc_cpu_share", ratio(gcCPU, allCPU), "ratio")

	// Tracing overhead: the median over round pairs of traced minus
	// untraced wall, raw (the two rounds of a pair run back to back).
	var diffs, untraced []float64
	for r := 0; twin != nil && r < len(b.rounds) && r < len(twin.rounds); r++ {
		diffs = append(diffs, ms(b.rounds[r].wall-twin.rounds[r].wall))
		untraced = append(untraced, ms(twin.rounds[r].wall))
	}
	add("trace.overhead_ms", median(diffs), "ms")
	out[len(out)-1].note = fmt.Sprintf("median of %d round pairs: %s ms", len(diffs), joinFloats(diffs))
	add("trace.overhead_share", ratio(median(diffs), median(untraced)), "ratio")
	return out
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func printMetrics(title string, list []metric) {
	fmt.Println(title + ":")
	for _, m := range list {
		line := fmt.Sprintf("  %-26s %14.6g %-6s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
}
