package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"time"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/isa"
	"soma/internal/sim"
)

// opCost is the measured cost of one layer operation.
type opCost struct{ ns, allocs, bytes float64 }

// replayBudget bounds how long one operation is repeated on one winner;
// an operation slower than the budget runs once.
const replayBudget = 5 * time.Millisecond

// measureOp runs f once to warm it, then repeats it until replayBudget has
// passed (at most 1000 times) and returns the cost per call.
func measureOp(f func()) opCost {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for n == 0 || (n < 1000 && time.Since(start) < replayBudget) {
		f()
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return opCost{
		ns:     float64(el.Nanoseconds()) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

// incMoves is the length of the stage-2 move walk replayed on each winner.
const incMoves = 200

// replayLayers are the layer operations replayed on every winner, in
// report order.
var replayLayers = []string{"core.parse", "core.key", "sim.evaluate",
	"coresched.evaluate", "sim.inc_move", "report.encode", "isa.lower"}

// replay re-runs each layer operation on a winner's schedule and appends
// its cost per operation to per, by layer. Lowering is timed only on
// winners isa.Generate accepts.
func replay(w winner, per map[string][]opCost) {
	raw := w.res.Raw
	if raw == nil || raw.Graph == nil || raw.Encoding == nil || raw.Schedule == nil {
		return
	}
	s := raw.Schedule
	opt := sim.Options{BufferBudget: w.cfg.GBufBytes}
	warm := coresched.New(w.cfg)
	if _, err := sim.Evaluate(s, warm, opt); err != nil {
		return
	}
	per["core.parse"] = append(per["core.parse"], measureOp(func() {
		if _, err := core.Parse(raw.Graph, raw.Encoding); err != nil {
			panic(err) // the winner's own encoding parsed during the solve
		}
	}))
	per["core.key"] = append(per["core.key"], measureOp(func() { _ = raw.Encoding.CanonicalKey() }))
	per["sim.evaluate"] = append(per["sim.evaluate"], measureOp(func() {
		if _, err := sim.Evaluate(s, warm, opt); err != nil {
			panic(err) // evaluated without error just above
		}
	}))
	per["coresched.evaluate"] = append(per["coresched.evaluate"], measureOp(func() {
		cs := coresched.New(w.cfg)
		for i := 0; i < s.NumTiles(); i++ {
			cs.Evaluate(s.TileRequest(i))
		}
	}))
	if c, ok := incWalk(s, warm, opt); ok {
		per["sim.inc_move"] = append(per["sim.inc_move"], c)
	}
	per["report.encode"] = append(per["report.encode"], measureOp(func() {
		if _, err := json.Marshal(w.res); err != nil {
			panic(err) // payloads are plain data
		}
	}))
	if _, err := isa.Generate(s, w.cfg.GBufBytes); err == nil {
		per["isa.lower"] = append(per["isa.lower"], measureOp(func() {
			_, _ = isa.Generate(s, w.cfg.GBufBytes)
		}))
	}
}

// replayCosts returns, per layer, the median over winners of the replayed
// cost per operation.
func replayCosts(per map[string][]opCost) map[string]opCost {
	out := map[string]opCost{}
	for layer, cs := range per {
		var ns, allocs, bytes []float64
		for _, c := range cs {
			ns = append(ns, c.ns)
			allocs = append(allocs, c.allocs)
			bytes = append(bytes, c.bytes)
		}
		out[layer] = opCost{median(ns), median(allocs), median(bytes)}
	}
	return out
}

// incWalk replays a fixed seeded walk of stage-2 DLSA moves on a
// sim.Incremental evaluator over a copy of s: each move proposes a tensor
// reorder or a living-duration change, evaluates it and accepts or rejects
// it by coin flip. It returns the cost per proposed move.
func incWalk(s *core.Schedule, cs *coresched.Scheduler, opt sim.Options) (opCost, bool) {
	if len(s.Tensors) == 0 {
		return opCost{}, false
	}
	opt.TileCosts = sim.PrecomputeTileCosts(s, cs)
	inc, err := sim.NewIncremental(s.Clone(), cs, opt)
	if err != nil {
		return opCost{}, false
	}
	rng := rand.New(rand.NewSource(1))
	step := func() {
		cur := inc.Schedule()
		id := rng.Intn(len(cur.Tensors))
		t := &cur.Tensors[id]
		var ok bool
		switch {
		case rng.Intn(2) == 0:
			ok = inc.MoveTensor(inc.PosOf(id), rng.Intn(len(cur.Order)))
		case t.Kind.IsLoad():
			ok = inc.SetStart(id, t.Start+rng.Intn(17)-8)
		default:
			ok = inc.SetEnd(id, t.End+rng.Intn(17)-8)
		}
		if !ok {
			return
		}
		if _, err := inc.EvaluateProposal(); err != nil || rng.Intn(2) == 0 {
			inc.Reject()
			return
		}
		inc.Accept()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < incMoves; i++ {
		step()
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return opCost{
		ns:     float64(el.Nanoseconds()) / incMoves,
		allocs: float64(m1.Mallocs-m0.Mallocs) / incMoves,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / incMoves,
	}, true
}
