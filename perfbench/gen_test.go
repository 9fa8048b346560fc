package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// generate renders every workload's round r for a seed, as comparable JSON.
func generate(t *testing.T, seed int64, r int) map[string]string {
	t.Helper()
	templates, order := somadRound(seed, r)
	out := map[string]any{
		"cnn-solve":   cnnRound(seed, r),
		"llm-prefill": llmRound(seed, r),
		"dse-sweep":   dseRound(seed, r),
		"somad-serve": []any{templates, order},
	}
	res := map[string]string{}
	for k, v := range out {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		res[k] = string(buf)
	}
	return res
}

func TestGeneratorIsSeedDeterministic(t *testing.T) {
	a, b := generate(t, 7, 0), generate(t, 7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different requests")
	}
	for _, other := range []map[string]string{generate(t, 8, 0), generate(t, 7, 1)} {
		for name := range a {
			if name == "llm-prefill" {
				continue // one fixed request: see the generators' comment
			}
			if a[name] == other[name] {
				t.Errorf("%s: a different seed or round generated the same requests", name)
			}
		}
	}
}

// The seed changes search seeds and order, never the mix: every round
// covers the same catalog, so runs with different seeds do comparable work.
func TestGeneratorKeepsTheMix(t *testing.T) {
	count := func(seed int64) map[string]int {
		n := map[string]int{}
		for _, req := range cnnRound(seed, 0) {
			n[fmt.Sprintf("%s/%d", req.Model, req.Batch)]++
		}
		templates, order := somadRound(seed, 0)
		for _, i := range order {
			n[fmt.Sprintf("somad %s %s/%d", templates[i].Framework, templates[i].Model, templates[i].Batch)]++
		}
		return n
	}
	if a, b := count(1), count(2); !reflect.DeepEqual(a, b) {
		t.Errorf("request mix differs between seeds:\n%v\n%v", a, b)
	}
	for _, seed := range []int64{1, 2} {
		_, order := somadRound(seed, 0)
		for k, i := range somadOverlaps {
			if order[2*k] != i || order[2*k+1] != i {
				t.Errorf("seed %d: somad order starts %v, want each of %v twice in a row", seed, order[:4], somadOverlaps)
			}
		}
	}
	if got := len(cnnRound(1, 0)); got != len(cnnModels)*len(cnnBatches) {
		t.Errorf("cnn round has %d requests, want the whole catalog", got)
	}
	if pts, err := dseRound(1, 0).Expand(); err != nil || len(pts) != 48 {
		t.Errorf("dse round expands to %d points (%v), want 48", len(pts), err)
	}
}

func TestZipfQuotas(t *testing.T) {
	q := zipfQuotas(somadJobsPerRound, len(somadCatalog))
	total := 0
	for i, n := range q {
		total += n
		if n < 1 {
			t.Errorf("rank %d gets no job", i+1)
		}
		if i > 0 && n > q[i-1] {
			t.Errorf("rank %d gets more jobs (%d) than rank %d (%d)", i+1, n, i, q[i-1])
		}
	}
	if total != somadJobsPerRound {
		t.Errorf("quotas sum to %d, want %d", total, somadJobsPerRound)
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}

	units := map[string]string{}
	for _, m := range endToEnd(&bench{}, nil, 1) {
		units[m.name] = m.unit
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q, program reports %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if !reflect.DeepEqual(e2e, gatedEndToEnd) {
		t.Errorf("end_to_end %v, program gates %v", e2e, gatedEndToEnd)
	}

	var want, got []string
	for _, m := range perLayer(&bench{}, nil) {
		want = append(want, m.name+" "+m.unit)
	}
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v\nprogram reports %v", got, want)
	}
}
