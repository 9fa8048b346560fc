package exp

import (
	"context"
	"fmt"
	"math"

	"soma/internal/core"
	"soma/internal/coresched"
	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/graph"
	"soma/internal/hw"
	"soma/internal/report"
	"soma/internal/sim"
	"soma/internal/soma"
)

// Workloads returns the paper's Fig. 6 workload list for a platform (GPT-2
// Small on edge, XL on cloud).
func Workloads(platform string) []string {
	gpt := "gpt2s"
	if platform == "cloud" {
		gpt = "gpt2xl"
	}
	return []string{"resnet50", "resnet101", "ires", "randwire",
		gpt + "-prefill", gpt + "-decode"}
}

// Batches are the paper's batch-size sweep.
var Batches = []int{1, 4, 16, 64}

// Row is one scheme's measured data point (one bar group of Fig. 6).
type Row struct {
	Scheme    string
	LatencyNS float64
	EnergyPJ  float64
	CorePJ    float64
	DRAMPJ    float64
	Util      float64
	TheoUtil  float64
	AvgBufMB  float64
	PeakBufMB float64
	DRAMBytes int64
	Tiles     int
	Tensors   int
	LGs       int
	FLGs      int
}

func rowFromMetrics(scheme string, m *sim.Metrics, s *core.Schedule) Row {
	st := s.Summarize()
	return Row{
		Scheme:    scheme,
		LatencyNS: m.LatencyNS,
		EnergyPJ:  m.EnergyPJ,
		CorePJ:    m.CoreEnergyPJ,
		DRAMPJ:    m.DRAMEnergyPJ,
		Util:      m.Utilization,
		TheoUtil:  m.TheoreticalMaxUtil,
		AvgBufMB:  m.AvgBufferBytes / (1 << 20),
		PeakBufMB: float64(m.PeakBufferBytes) / (1 << 20),
		DRAMBytes: m.TotalDRAMBytes,
		Tiles:     st.Tiles,
		Tensors:   st.Tensors,
		LGs:       st.LGs,
		FLGs:      st.FLGs,
	}
}

// Case identifies one experiment point.
type Case struct {
	Platform string
	Workload string
	Batch    int
}

func (c Case) String() string {
	return fmt.Sprintf("%s/%s/b%d", c.Platform, c.Workload, c.Batch)
}

// PairResult is one Fig. 6 bar group: Cocco vs SoMa stage 1 vs stage 2.
type PairResult struct {
	Case  Case
	Cocco Row
	Ours1 Row
	Ours2 Row
	Err   error
}

// Fig6Grid is one platform's share of Fig. 6: a bar group per (model, batch)
// pair on Platform.
type Fig6Grid struct {
	Platform string
	Models   []string
	Batches  []int
}

// Fig6Grids lays out the paper's Fig. 6 on the given platforms: each
// platform's Workloads at every batch size (48 bar groups for edge and cloud
// at the four paper batches).
func Fig6Grids(platforms []string, batches []int) []Fig6Grid {
	grids := make([]Fig6Grid, len(platforms))
	for i, pf := range platforms {
		grids[i] = Fig6Grid{Platform: pf, Models: Workloads(pf), Batches: batches}
	}
	return grids
}

// sweep is the grid's dse spec: both backends over Models x Batches. Backend
// is the outermost expansion axis, so with n bar groups row i is Cocco's
// half of group i and row n+i SoMa's.
func (g Fig6Grid) sweep(par soma.Params, workers int) dse.Sweep {
	return dse.Sweep{
		Name:      "fig6-" + g.Platform,
		Backends:  []string{"cocco", "soma"},
		Platforms: []string{g.Platform}, Models: g.Models, Batches: g.Batches,
		Params: &par, Workers: workers,
	}
}

// Fig6 runs the overall comparison: one dse sweep per grid (the GPT-2
// variant differs between edge and cloud, so platforms cannot share a models
// axis), every sweep on the dse worker pool and all sharing one evaluation
// cache; hooks (nil for none) receives the sweeps' point events. It returns
// the bar groups in grid order and the shared cache's counters after the
// last sweep. A failed point fails only its bar group; an invalid grid or a
// canceled ctx fails the whole figure.
func Fig6(ctx context.Context, grids []Fig6Grid, par soma.Params, workers int,
	hooks *engine.Hooks) ([]PairResult, sim.CacheStats, error) {
	opt := dse.Options{Cache: sim.NewCache(0), Hooks: hooks}
	var out []PairResult
	var cache sim.CacheStats
	for _, g := range grids {
		res, err := dse.Run(ctx, g.sweep(par, workers), opt)
		if err != nil {
			return nil, sim.CacheStats{}, err
		}
		n := len(res.Rows) / 2
		for i, base := range res.Rows[:n] {
			out = append(out, pairFromRows(base, res.Rows[n+i]))
		}
		cache = res.Cache
	}
	return out, cache, nil
}

// pairFromRows builds one bar group from its Cocco and SoMa sweep rows.
// Stage 1 metrics come from re-parsing SoMa's winning encoding with the
// heuristic double-buffer DLSA (what "Ours_1" shows in Fig. 6).
func pairFromRows(base, ours dse.Row) PairResult {
	p := base.Point
	out := PairResult{Case: Case{Platform: p.Platform, Workload: p.Model, Batch: p.Batch}}
	for _, r := range []dse.Row{base, ours} {
		if r.Err != "" {
			out.Err = fmt.Errorf("%s: %s: %s", out.Case, r.Point.Backend, r.Err)
			return out
		}
	}
	out.Cocco = rowFromMetrics("cocco", base.Result.Raw.Metrics, base.Result.Raw.Schedule)
	raw := ours.Result.Raw
	s1sched, err := core.Parse(raw.Graph, raw.Encoding)
	if err != nil {
		out.Err = err
		return out
	}
	out.Ours1 = rowFromMetrics("ours1", raw.Stage1Metrics, s1sched)
	out.Ours2 = rowFromMetrics("ours2", raw.Metrics, raw.Schedule)
	return out
}

// GeoMeans summarizes Fig. 6 results the way Sec. VI-B reports them:
// geometric-mean speedups and energy ratios of SoMa over Cocco.
type GeoMeans struct {
	SpeedupStage1 float64 // Ours_1 vs Cocco
	SpeedupStage2 float64 // Ours_2 vs Cocco
	Stage2Extra   float64 // Ours_2 vs Ours_1
	EnergyRatio   float64 // Ours_2 / Cocco energy
	GapToBound    float64 // mean (bound - util)/bound of Ours_2
	N             int
}

// Summarize folds valid pair results into geometric means.
func Summarize(rs []PairResult) GeoMeans {
	var gm GeoMeans
	var s1, s2, extra, en, gap float64
	for _, r := range rs {
		if r.Err != nil || r.Cocco.LatencyNS == 0 || r.Ours2.LatencyNS == 0 {
			continue
		}
		gm.N++
		s1 += math.Log(r.Cocco.LatencyNS / r.Ours1.LatencyNS)
		s2 += math.Log(r.Cocco.LatencyNS / r.Ours2.LatencyNS)
		extra += math.Log(r.Ours1.LatencyNS / r.Ours2.LatencyNS)
		en += math.Log(r.Ours2.EnergyPJ / r.Cocco.EnergyPJ)
		gap += (r.Ours2.TheoUtil - r.Ours2.Util) / r.Ours2.TheoUtil
	}
	if gm.N == 0 {
		return gm
	}
	n := float64(gm.N)
	gm.SpeedupStage1 = math.Exp(s1 / n)
	gm.SpeedupStage2 = math.Exp(s2 / n)
	gm.Stage2Extra = math.Exp(extra / n)
	gm.EnergyRatio = math.Exp(en / n)
	gm.GapToBound = gap / n
	return gm
}

// ScatterPoint is one dot of Fig. 3 (normalized ops vs DRAM access).
type ScatterPoint struct {
	Name     string
	NormOps  float64
	NormDRAM float64
}

// Fig3Layers produces the per-layer scatter of Fig. 3(a)/(b): each compute
// layer's DRAM demand (weights + boundary fmaps, assuming no fusion) against
// its operation count, both normalized to the maximum.
func Fig3Layers(g *graph.Graph) []ScatterPoint {
	var pts []ScatterPoint
	var maxOps, maxDRAM float64
	raw := make([][2]float64, 0, len(g.ComputeLayers()))
	names := make([]string, 0, len(g.ComputeLayers()))
	for _, id := range g.ComputeLayers() {
		l := g.Layer(id)
		dram := float64(l.WeightBytes)
		for _, d := range l.Deps {
			dram += float64(g.OutBytes(d.Producer))
		}
		dram += float64(g.OutBytes(id))
		ops := float64(l.Ops)
		raw = append(raw, [2]float64{ops, dram})
		names = append(names, l.Name)
		if ops > maxOps {
			maxOps = ops
		}
		if dram > maxDRAM {
			maxDRAM = dram
		}
	}
	for i, r := range raw {
		pts = append(pts, ScatterPoint{Name: names[i],
			NormOps: r[0] / maxOps, NormDRAM: r[1] / maxDRAM})
	}
	return pts
}

// Fig3Tiles produces the per-tile scatter of Fig. 3(c)/(d) under the Cocco
// baseline schedule: each computing tile's DRAM demand (the tensors it
// gates) against its operation count.
func Fig3Tiles(g *graph.Graph, cfg hw.Config, par soma.Params) ([]ScatterPoint, error) {
	base, err := engine.Run(context.Background(), engine.Request{Backend: "cocco",
		Graph: g, Batch: 1, Config: &cfg, Objective: soma.EDP(), Params: par}, nil)
	if err != nil {
		return nil, err
	}
	s := base.Raw.Schedule
	dramOf := make([]float64, s.NumTiles())
	for i := range s.Tensors {
		t := &s.Tensors[i]
		if t.Kind.IsLoad() {
			dramOf[t.FirstUse] += float64(t.Bytes)
		} else {
			dramOf[t.Producer] += float64(t.Bytes)
		}
	}
	var maxOps, maxDRAM float64
	ops := make([]float64, s.NumTiles())
	for i := 0; i < s.NumTiles(); i++ {
		ops[i] = float64(s.TileRequest(i).Ops)
		if ops[i] > maxOps {
			maxOps = ops[i]
		}
		if dramOf[i] > maxDRAM {
			maxDRAM = dramOf[i]
		}
	}
	if maxDRAM == 0 {
		maxDRAM = 1
	}
	pts := make([]ScatterPoint, s.NumTiles())
	for i := range pts {
		pts[i] = ScatterPoint{
			Name:     fmt.Sprintf("%s#%d", g.Layer(s.Tiles[i].Layer).Name, s.Tiles[i].Index),
			NormOps:  ops[i] / maxOps,
			NormDRAM: dramOf[i] / maxDRAM,
		}
	}
	return pts, nil
}

// Spread quantifies how spread out along the axes a scatter is: the mean
// angular deviation of each point from the balanced diagonal, normalized to
// [0,1] (0 = every point has matched compute/DRAM demand, 1 = every point
// sits on an axis). The paper's Fig. 3 claim is that per-tile points are
// more spread out than per-layer points.
func Spread(pts []ScatterPoint) float64 {
	var acc float64
	n := 0
	for _, p := range pts {
		if p.NormOps == 0 && p.NormDRAM == 0 {
			acc += 1 // degenerate: counts as axis-hugging
			n++
			continue
		}
		angle := math.Atan2(p.NormDRAM, p.NormOps) // 0..pi/2
		acc += math.Abs(angle-math.Pi/4) / (math.Pi / 4)
		n++
	}
	if n == 0 {
		return 0
	}
	return acc / float64(n)
}

// DSEPoint is one cell of Fig. 7's heatmaps.
type DSEPoint struct {
	DRAMGBs  float64
	BufferMB int64
	// LatencyMS per scheme.
	CoccoMS, SoMaMS float64
	CoccoErr        string
	SoMaErr         string
}

// Fig7Grid is the paper's DSE sweep for the 16 TOPS edge accelerator.
var (
	Fig7Bandwidths = []float64{8, 16, 32, 64, 128}
	Fig7Buffers    = []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20}
)

// Fig7 sweeps DRAM bandwidth x buffer size for one workload/batch: a thin
// adapter over the dse grid runner. Both backends run as one sweep sharing
// one evaluation cache; ctx cancels promptly between (and within) grid
// points. Per-cell search failures surface as the point's CoccoErr/SoMaErr,
// exactly like the paper's infeasible heatmap corners.
func Fig7(ctx context.Context, workload string, batch int, par soma.Params, workers int) ([]DSEPoint, error) {
	bufsMB := make([]int64, len(Fig7Buffers))
	for i, b := range Fig7Buffers {
		bufsMB[i] = b >> 20
	}
	res, err := dse.Run(ctx, dse.Sweep{
		Name:      "fig7",
		Backends:  []string{"cocco", "soma"},
		Platforms: []string{"edge"}, Models: []string{workload},
		Batches: []int{batch},
		DRAMGBs: Fig7Bandwidths, GBufMB: bufsMB,
		Params: &par, Workers: workers,
	}, dse.Options{})
	if err != nil {
		return nil, err
	}
	out := make([]DSEPoint, 0, len(Fig7Bandwidths)*len(Fig7Buffers))
	cell := make(map[[2]float64]int)
	for _, bw := range Fig7Bandwidths {
		for _, buf := range Fig7Buffers {
			cell[[2]float64{bw, float64(buf >> 20)}] = len(out)
			out = append(out, DSEPoint{DRAMGBs: bw, BufferMB: buf >> 20})
		}
	}
	for _, row := range res.Rows {
		i := cell[[2]float64{row.Point.DRAMGBs, float64(row.Point.GBufMB)}]
		var ms float64
		if row.Result != nil {
			ms = row.Result.Metrics.LatencyNS / 1e6
		}
		switch row.Point.Backend {
		case "cocco":
			out[i].CoccoMS, out[i].CoccoErr = ms, row.Err
		case "soma":
			out[i].SoMaMS, out[i].SoMaErr = ms, row.Err
		}
	}
	return out, nil
}

// TracePair renders the Fig. 8 execution graphs: Cocco, SoMa stage 1 and
// SoMa stage 2 schedules of one workload, each with a traced evaluation.
type TracePair struct {
	Cocco, Ours1, Ours2 *core.Schedule
	MCocco, M1, M2      *sim.Metrics
}

// Fig8 produces the three traced schedules for one case: a two-point dse
// sweep over the backend axis (Cocco and SoMa on the same cell), then traced
// re-evaluations of the three schedules.
func Fig8(ctx context.Context, c Case, par soma.Params) (*TracePair, error) {
	cfg, err := hw.Platform(c.Platform)
	if err != nil {
		return nil, err
	}
	cs := coresched.New(cfg)
	res, err := dse.Run(ctx, dse.Sweep{
		Name:      "fig8",
		Backends:  []string{"cocco", "soma"},
		Platforms: []string{c.Platform}, Models: []string{c.Workload},
		Batches: []int{c.Batch}, Params: &par,
	}, dse.Options{})
	if err != nil {
		return nil, err
	}
	var base, ours *report.Result
	for _, row := range res.Rows {
		if row.Err != "" {
			return nil, fmt.Errorf("%s: %s", row.Point.Label(), row.Err)
		}
		switch row.Point.Backend {
		case "cocco":
			base = row.Result
		case "soma":
			ours = row.Result
		}
	}
	s1, err := core.Parse(ours.Raw.Graph, ours.Raw.Encoding)
	if err != nil {
		return nil, err
	}
	tp := &TracePair{Cocco: base.Raw.Schedule, Ours1: s1, Ours2: ours.Raw.Schedule}
	if tp.MCocco, err = sim.Evaluate(base.Raw.Schedule, cs, sim.Options{Trace: true}); err != nil {
		return nil, err
	}
	if tp.M1, err = sim.Evaluate(s1, cs, sim.Options{Trace: true}); err != nil {
		return nil, err
	}
	if tp.M2, err = sim.Evaluate(ours.Raw.Schedule, cs, sim.Options{Trace: true}); err != nil {
		return nil, err
	}
	return tp, nil
}
