package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host reference. The benchmark shares its host with other tenants,
// and the host's speed moves by 20-30 % in bursts and steps: the same round
// reads that much slower or faster, with no change of the code and little
// or no steal time to show for it. So every host time in the result line is
// scaled to a reference speed. Before and after each round (and around the
// set-ups) the benchmark times a fixed kernel of its own - a pointer chase
// through a random cycle larger than a core's cache - on every CPU the
// workloads use, and multiplies the round's times by refNominal over the
// kernel's median time around it. Of the kernels tried, the chase tracked
// the searches' slow-downs best: interleaved with resnet50 solves, its time
// correlated 0.87 with theirs over 15-second windows, and the
// solve-to-kernel ratio varied 1.17x where the solve time varied 1.54x.
// The kernel is the benchmark's code, so a change to the program cannot
// move it; a change of the host moves it with the rounds.

// refNominal is the kernel's median wall time on the host the benchmark
// was tuned on (2-vCPU Xeon VM, go1.24.0): on that host, at that speed,
// a scaled time equals the raw one.
const refNominal = 25 * time.Millisecond

// refSamples is how many kernel timings are taken before and after each
// round and the set-ups.
const refSamples = 3

var refSink float64

// refNodes is the length of one goroutine's cycle: 16 MiB of 4-byte links,
// more than a core's L2 and a fair share of the L3 the host's tenants
// contend for.
const refNodes = 1 << 22

// refSteps is how many links one kernel run follows.
const refSteps = 1 << 17

// refCycles are the cycles, one per goroutine, built once. They live
// outside the Go heap (anonymous mappings), so they neither count toward
// the heap the garbage collector paces the workloads by nor get scanned,
// and the timed kernel allocates nothing.
var refCycles [maxProcs][]uint32

// newRefCycle maps n links and joins them into one cycle in a fixed
// pseudo-random order (Sattolo's shuffle), so every step is a dependent
// load the prefetcher cannot predict.
func newRefCycle(n int) []uint32 {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mapping the host reference: %v", err))
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return next
}

// refKernel follows refSteps links of a cycle.
func refKernel(next []uint32) float64 {
	p := uint32(0)
	for i := 0; i < refSteps; i++ {
		p = next[p]
	}
	return float64(p)
}

// refTime runs the kernel once on each of maxProcs goroutines and returns
// the wall time until all have finished.
func refTime() time.Duration {
	for g, c := range refCycles {
		if c == nil {
			refCycles[g] = newRefCycle(refNodes)
		}
	}
	var wg sync.WaitGroup
	sums := make([]float64, maxProcs)
	start := time.Now()
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = refKernel(refCycles[g])
		}()
	}
	wg.Wait()
	el := time.Since(start)
	for _, s := range sums {
		refSink += s
	}
	return el
}

// sampleRef times the kernel refSamples times, then collects the garbage
// of what ran before, so that the interval measured next starts from a
// clean heap.
func sampleRef() []float64 {
	out := make([]float64, refSamples)
	for i := range out {
		out[i] = refTime().Seconds()
	}
	runtime.GC()
	return out
}

// hostScale is the factor that brings the times measured between kernel
// timings to the reference speed: refNominal over their median.
func hostScale(refs []float64) float64 {
	return ratio(refNominal.Seconds(), median(refs))
}

// cpuTicks is the first line of /proc/stat: the time all CPUs spent in
// every state, and of it the steal time, the time the hypervisor ran
// something else on them while they had work.
type cpuTicks struct{ steal, total uint64 }

// readTicks reads the CPU time counters; where /proc/stat is unreadable it
// returns zeros, and stealShare reads no steal.
func readTicks() cpuTicks {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the CPU time between two readings that was
// stolen. A wall time measured between them, times one minus the share,
// is the time the VM's CPUs actually ran: the steal a slow spell brings
// no longer counts against the program.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
