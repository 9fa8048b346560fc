// Command perfbench is the scheduler's benchmark. It runs one named
// workload through the public APIs of the engine, dse and service layers,
// checks the schedules it gets back, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 10, "failed": 0, "metrics": {"wall_s": {"value": 24.1, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set, measured untraced. With
// -trace 1 the run alternates untraced and traced rounds of the same
// requests, and reports the per-layer set of the traced rounds plus the
// tracing overhead. NOTES.md
// describes the workloads, the metrics and how to read them.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload cnn-solve --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// maxProcs is the CPU count every workload runs on.
const maxProcs = 2

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, "|")+"|all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 20, "measured wall time per run; rounds repeat until it is reached")
	trace := fs.Int("trace", 0, "1 = measure the per-layer metrics in a traced pass")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for journals and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if newWorkload(n) == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (%s|all)\n", *wl, strings.Join(workloadNames, "|"))
			return 2
		}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(maxProcs)
	fmt.Println("fingerprint:", fingerprint())

	summary := outcome{Correct: true, Metrics: map[string]value{}}
	var last outcome
	for _, n := range names {
		o, err := runWorkload(n, *seed, *seconds, *trace == 1, *workdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		if len(names) > 1 {
			printJSON(o)
		}
		last = o
		summary.Correct = summary.Correct && o.Correct
		summary.Attempted += o.Attempted
		summary.Failed += o.Failed
		for k, v := range o.Metrics {
			summary.Metrics[n+"."+k] = v
		}
	}
	if len(names) > 1 {
		last = summary
	}
	printJSON(last)
	return 0
}

// outcome is the result line's JSON object.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes the value with every digit and always as a decimal
// fraction or with an exponent, never as a bare integer, so that a reader
// parses every metric as a floating-point number.
func (v value) MarshalJSON() ([]byte, error) {
	if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
		return nil, fmt.Errorf("metric value %v is not a finite number", v.Value)
	}
	num := strconv.FormatFloat(v.Value, 'g', -1, 64)
	if !strings.ContainsAny(num, ".e") {
		num += ".0"
	}
	unit, err := json.Marshal(v.Unit)
	if err != nil {
		return nil, err
	}
	return []byte(`{"value":` + num + `,"unit":` + string(unit) + `}`), nil
}

func printJSON(o outcome) {
	buf, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", err)
		return
	}
	fmt.Println(string(buf))
}

// runWorkload sets a workload up, measures it, checks its outputs and
// returns its result line.
func runWorkload(name string, seed int64, seconds float64, traced bool, workdir string) (outcome, error) {
	ctx := context.Background()
	fmt.Printf("== %s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)

	var setups []float64
	refs := sampleRef()
	ticks0 := readTicks()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := newWorkload(name).setup(ctx, &bench{seed: seed, workdir: workdir}); err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	steal := stealShare(ticks0, readTicks())
	refs = append(refs, sampleRef()...)
	setupScale := hostScale(refs) * (1 - steal)

	// b is the measured pass. The traced run alternates untraced rounds
	// (into twin) with traced ones (into b), round r of each doing the same
	// requests: the paired differences are the tracing overhead, and the
	// alternation exposes both to the same host speed.
	b := &bench{seed: seed, workdir: workdir}
	w := newWorkload(name)
	var twin *bench
	var tw workload
	if traced {
		b.tr = &tracer{}
		twin, tw = &bench{seed: seed, workdir: workdir}, newWorkload(name)
	}
	err := runRounds(seconds, func(r int) (time.Duration, error) {
		var wall time.Duration
		if twin != nil {
			if err := tw.round(ctx, twin, r); err != nil {
				return 0, err
			}
			twin.settle(false)
			wall += twin.rounds[r].wall
		}
		if err := w.round(ctx, b, r); err != nil {
			return 0, err
		}
		b.settle(traced)
		return wall + b.rounds[r].wall, nil
	})
	if err != nil {
		return outcome{}, err
	}

	// The checks re-solve some requests. They run with the tracer detached,
	// so their solves feed no per-layer figure of the measured rounds.
	tr := b.tr
	b.tr = nil
	w.check(ctx, b)
	b.tr = tr
	b.settle(traced)
	attempted, failed := len(b.attempts), b.failedCount()
	if twin != nil {
		tw.check(ctx, twin)
		twin.settle(false)
		attempted += len(twin.attempts)
		failed += twin.failedCount()
	}

	solves := 0
	for _, r := range b.rounds {
		solves += r.solves
	}
	walls := make([]string, len(b.rounds))
	for i, r := range b.rounds {
		walls[i] = fmt.Sprintf("%.3f x%.3f s%.3f", r.wall.Seconds(), r.scale, r.steal)
	}
	fmt.Printf("rounds: %d (%s: wall s x host scale, steal share), %d requests, %d winners checked\n",
		len(b.rounds), strings.Join(walls, " "), solves, b.checked)
	e2e := endToEnd(b, setups, setupScale)
	printMetrics("end-to-end", e2e)
	o := outcome{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	if o.Attempted == 0 {
		return outcome{}, fmt.Errorf("no request was attempted")
	}
	if traced {
		pl := perLayer(b, twin)
		printMetrics("per-layer (traced rounds)", pl)
		for _, m := range pl {
			o.Metrics[m.name] = value{finite(m.value), m.unit}
		}
		path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := writeChromeTrace(path, b.tr.all()); err != nil {
			return outcome{}, fmt.Errorf("writing the trace: %w", err)
		}
		fmt.Println("trace:", path)
	} else {
		keep := map[string]bool{}
		for _, n := range gatedEndToEnd {
			keep[n] = true
		}
		for _, m := range e2e {
			if keep[m.name] {
				o.Metrics[m.name] = value{finite(m.value), m.unit}
			}
		}
	}
	fmt.Printf("check: correct=%v attempted=%d failed=%d\n", o.Correct, o.Attempted, o.Failed)
	return o, nil
}

// finite maps NaN and infinities (no valid JSON number) to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// fingerprint names what the numbers were measured on.
func fingerprint() string {
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
