package main

import (
	"runtime"
	"testing"
)

func TestStealShare(t *testing.T) {
	a := cpuTicks{steal: 100, total: 10000}
	if got := stealShare(a, cpuTicks{steal: 150, total: 10200}); got != 0.25 {
		t.Errorf("50 of 200 ticks stolen: share %v, want 0.25", got)
	}
	// Counters that did not advance or went back (a failed read returns
	// zeros) read as no steal.
	for _, b := range []cpuTicks{a, {}, {steal: 90, total: 10100}} {
		if got := stealShare(a, b); got != 0 {
			t.Errorf("stealShare(%v, %v) = %v, want 0", a, b, got)
		}
	}
}

func TestReadTicks(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/stat is Linux only")
	}
	a := readTicks()
	if a.total == 0 || a.steal > a.total {
		t.Errorf("readTicks() = %+v", a)
	}
}
