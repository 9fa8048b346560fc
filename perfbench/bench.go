package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"soma/internal/coresched"
	"soma/internal/hw"
	"soma/internal/isa"
	"soma/internal/report"
	"soma/internal/sim"
)

// workload is one named traffic mix. setup warms the process and is timed
// (as setup_s); it leaves no state behind that round depends on. round runs
// fixed unit of work r through b.measure. check runs after all timing and
// adds workload-specific output checks (re-solves, repeat matching).
type workload interface {
	setup(ctx context.Context, b *bench) error
	round(ctx context.Context, b *bench, r int) error
	check(ctx context.Context, b *bench)
}

// attempt is one request, sweep point or job of a measured round.
type attempt struct {
	ms  float64
	err string // request error, or the first output check it failed
}

// winner is a result whose in-memory artifacts (Result.Raw) are available,
// with the hardware it was solved for.
type winner struct {
	label string
	res   *report.Result
	cfg   hw.Config
	att   int // attempt index the result answers
}

// stageRec splits one soma solve's wall time by stage.
type stageRec struct {
	stage1, stage2, total time.Duration
	allocIters            int
}

// roundStat is what one measured round cost the process.
type roundStat struct {
	wall, cpu  time.Duration
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // CPU seconds the runtime attributes to GC
	allCPU     float64 // CPU seconds the runtime accounts in total
	heapPeak   float64 // peak live heap during the round, bytes
	solves     int
	goroutines int     // busy goroutines the round ran on (1 serial, 2 pooled)
	scale      float64 // host scale of the round (hostref.go)
	steal      float64 // share of the CPUs' time stolen during the round
	attStart   int     // index of the round's first attempt
}

// wallScale brings the round's wall times to the reference speed: the host
// scale, less the share of the round the hypervisor stole. CPU time needs
// no steal correction, as stolen time is no CPU time of the process.
func (r roundStat) wallScale() float64 { return r.scale * (1 - r.steal) }

// bench holds one pass of a workload: its measured rounds and everything
// the checks and the metrics read afterwards.
type bench struct {
	seed    int64
	workdir string
	tr      *tracer // nil outside the traced pass

	attempts []attempt
	rounds   []roundStat
	winners  []winner // checked by settle, then dropped
	checked  int      // winners settled so far
	replays  map[string][]opCost
	quality  []report.Metrics // one per distinct solved request
	stages   []stageRec
	lowerOK  int
	lowerBad int
	problems []string // failed checks that no single attempt owns

	dse     dseStats
	service serviceStats
}

type dseStats struct {
	pointMS, waitMS []float64
	busy, wall      time.Duration
	workers         int
}

type serviceStats struct {
	queueMS, runMS, overheadMS, respKB []float64
	dupRunMS                           []float64 // repeats run while their template's first job ran
	hits, misses                       int64
	jobs, repeats                      int
}

// addAttempt records one attempt and returns its index.
func (b *bench) addAttempt(ms float64, err error) int {
	a := attempt{ms: ms}
	if err != nil {
		a.err = err.Error()
	}
	b.attempts = append(b.attempts, a)
	return len(b.attempts) - 1
}

// fail records a failed output check against attempt att (or against the
// run as a whole when att < 0).
func (b *bench) fail(att int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "check failed:", msg)
	if att >= 0 && att < len(b.attempts) {
		if b.attempts[att].err == "" {
			b.attempts[att].err = msg
		}
		return
	}
	b.problems = append(b.problems, msg)
}

func (b *bench) failedCount() int {
	n := len(b.problems)
	for _, a := range b.attempts {
		if a.err != "" {
			n++
		}
	}
	if n > len(b.attempts) && len(b.attempts) > 0 {
		n = len(b.attempts)
	}
	return n
}

// runRounds calls round(0), round(1), ... while another round brings the
// measured wall time closer to the run length than stopping would: the run
// measures the whole number of rounds nearest to seconds, and at least one.
// round returns the wall time it measured.
func runRounds(seconds float64, round func(r int) (time.Duration, error)) error {
	var elapsed time.Duration
	for r := 0; ; r++ {
		last, err := round(r)
		if err != nil {
			return err
		}
		elapsed += last
		if elapsed.Seconds()+last.Seconds()/2 >= seconds {
			return nil
		}
	}
}

// roundOf returns the round attempt i belongs to: attempts are added while
// their round runs or right after it, before the next round starts.
func (b *bench) roundOf(i int) roundStat {
	r := 0
	for r+1 < len(b.rounds) && b.rounds[r+1].attStart <= i {
		r++
	}
	return b.rounds[r]
}

// rtNames are the runtime/metrics counters read around every measured
// round, in this order.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []float64 {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap every few milliseconds and keeps the
// peak. stop ends the polling goroutine and returns once it has exited.
type heapSampler struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak.Load()
}

// measure times one round: f runs the round's work and reports how many
// requests, points or jobs it completed. goroutines is how many busy
// goroutines the work runs on. The host reference is sampled before and
// after the round, outside its counters.
func (b *bench) measure(goroutines int, f func() (int, error)) error {
	refs := sampleRef()
	attStart := len(b.attempts)
	rt0 := readRuntime()
	heap := startHeapSampler()
	cpu0 := processCPU()
	ticks0 := readTicks()
	start := time.Now()
	n, err := f()
	wall := time.Since(start)
	ticks1 := readTicks()
	cpu := processCPU() - cpu0
	peak := heap.stop()
	rt1 := readRuntime()
	refs = append(refs, sampleRef()...)
	b.rounds = append(b.rounds, roundStat{
		wall: wall, cpu: cpu,
		allocBytes: rt1[0] - rt0[0], gcCycles: rt1[1] - rt0[1],
		gcCPU: rt1[2] - rt0[2], allCPU: rt1[3] - rt0[3],
		heapPeak: float64(peak), solves: n, goroutines: goroutines,
		scale: hostScale(refs), steal: stealShare(ticks0, ticks1), attStart: attStart,
	})
	return err
}

// digest renders the schedule-determined fields of a result: the ones a
// fixed request must reproduce exactly. Search statistics, telemetry and
// convergence depend on cache warmth and goroutine interleaving and are
// left out on purpose.
func digest(r *report.Result) string {
	buf, err := json.Marshal(struct {
		Cost           float64         `json:"cost"`
		EncodingSHA256 string          `json:"encoding_sha256"`
		ScheduleSHA256 string          `json:"schedule_sha256"`
		Metrics        report.Metrics  `json:"metrics"`
		Schedule       report.Schedule `json:"schedule"`
	}{r.Cost, r.EncodingSHA256, r.ScheduleSHA256, r.Metrics, r.Schedule})
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(buf)
}

// checkPayload runs the checks every result supports, with or without its
// in-memory artifacts: the cost is Energy^n x Delay^m of the reported
// metrics, and the peak buffer fits the GBUF.
func (b *bench) checkPayload(att int, label string, r *report.Result) {
	want := math.Pow(r.Metrics.EnergyPJ, r.Objective.N) * math.Pow(r.Metrics.LatencyNS, r.Objective.M)
	if !(math.Abs(r.Cost-want) <= 1e-9*math.Abs(want)) {
		b.fail(att, "%s: cost %g != energy^%g x delay^%g = %g",
			label, r.Cost, r.Objective.N, r.Objective.M, want)
	}
	if r.Metrics.PeakBufferBytes > r.Hardware.GBufBytes {
		b.fail(att, "%s: peak buffer %d B exceeds GBUF %d B",
			label, r.Metrics.PeakBufferBytes, r.Hardware.GBufBytes)
	}
}

// settle checks the winners gathered since the last call and drops them.
// It runs after every round, outside its timing: winners hold whole
// schedules, and keeping every round's until the end of the run grew the
// live heap round by round, which spaced out the garbage collections and
// made each round faster than the one before. With replayOps set (the traced
// rounds) it also replays the layer operations on them.
func (b *bench) settle(replayOps bool) {
	for _, w := range b.winners {
		b.checkWinner(w)
		if replayOps {
			if b.replays == nil {
				b.replays = map[string][]opCost{}
			}
			replay(w, b.replays)
		}
	}
	b.checked += len(b.winners)
	b.winners = nil
}

// checkWinner replays a winner's schedule through a fresh simulator at the
// platform GBUF and compares with the reported metrics, then lowers it to
// the ISA. A lowering failure is the known isa defect, counted in
// lower_fail_frac and not an output-check failure.
func (b *bench) checkWinner(w winner) {
	b.checkPayload(w.att, w.label, w.res)
	raw := w.res.Raw
	if raw == nil || raw.Schedule == nil {
		b.fail(w.att, "%s: result carries no schedule to replay", w.label)
		return
	}
	m, err := sim.Evaluate(raw.Schedule, coresched.New(w.cfg), sim.Options{BufferBudget: w.cfg.GBufBytes})
	if err != nil {
		b.fail(w.att, "%s: replaying the winner: %v", w.label, err)
		return
	}
	if got, want := metricsOf(m), w.res.Metrics; got != want {
		b.fail(w.att, "%s: replayed metrics %+v != reported %+v", w.label, got, want)
	}
	if _, err := isa.Generate(raw.Schedule, w.cfg.GBufBytes); err != nil {
		b.lowerBad++
	} else {
		b.lowerOK++
	}
}

// metricsOf mirrors report's sim.Metrics -> report.Metrics conversion, so a
// replay compares field by field with the payload.
func metricsOf(m *sim.Metrics) report.Metrics {
	return report.Metrics{
		LatencyNS: m.LatencyNS, EnergyPJ: m.EnergyPJ,
		CoreEnergyPJ: m.CoreEnergyPJ, DRAMEnergyPJ: m.DRAMEnergyPJ,
		Utilization: m.Utilization, TheoreticalMaxUtil: m.TheoreticalMaxUtil,
		DRAMUtilization: m.DRAMUtilization, TotalDRAMBytes: m.TotalDRAMBytes,
		PeakBufferBytes: m.PeakBufferBytes, AvgBufferBytes: m.AvgBufferBytes,
	}
}
