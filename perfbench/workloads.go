package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"soma/internal/dse"
	"soma/internal/engine"
	"soma/internal/hw"
	"soma/internal/report"
	"soma/internal/service"
	"soma/internal/sim"
	"soma/internal/soma"
)

// workloadNames lists the workloads in the order `-workload all` runs them.
var workloadNames = []string{"cnn-solve", "llm-prefill", "dse-sweep", "somad-serve"}

// newWorkload builds a fresh workload by name (nil for an unknown name).
func newWorkload(name string) workload {
	switch name {
	case "cnn-solve":
		return &serialWorkload{gen: cnnRound}
	case "llm-prefill":
		return &serialWorkload{gen: llmRound}
	case "dse-sweep":
		return &dseWorkload{}
	case "somad-serve":
		return &somadWorkload{}
	}
	return nil
}

func label(req engine.Request) string {
	return fmt.Sprintf("%s %s b%d %s seed %d", req.Backend, req.Model, req.Batch, req.Platform, req.Params.Seed)
}

// solve runs one engine request the way every workload's direct solves do:
// in the traced pass with a timing cache in front of a fresh private cache,
// stage spans from the engine hooks, and an engine span around the call.
func (b *bench) solve(ctx context.Context, req engine.Request) (*report.Result, stageRec, error) {
	rq := b.tr.newReq()
	if b.tr != nil && req.Cache == nil {
		req.Cache = newTimingCache(sim.NewCache(0), &b.tr.cache)
	}
	hooks, totals := b.tr.stageHooks(rq)
	start := time.Now()
	res, err := engine.Run(ctx, req, hooks)
	end := time.Now()
	b.tr.add(rq, 0, "engine", "engine.Run "+label(req), start, end)
	s1, s2 := totals()
	rec := stageRec{stage1: s1, stage2: s2, total: end.Sub(start)}
	if err == nil && res.Search != nil {
		rec.allocIters = res.Search.AllocIters
	}
	return res, rec, err
}

// serialWorkload is one closed-loop client making serial engine.Run calls
// (cnn-solve, llm-prefill).
type serialWorkload struct {
	gen func(seed int64, round int) []engine.Request
}

func (w *serialWorkload) setup(ctx context.Context, b *bench) error {
	_, err := engine.Run(ctx, warmupRequest(), nil)
	return err
}

func (w *serialWorkload) round(ctx context.Context, b *bench, r int) error {
	reqs := w.gen(b.seed, r)
	return b.measure(1, func() (int, error) {
		for _, req := range reqs {
			res, rec, err := b.solve(ctx, req)
			att := b.addAttempt(ms(rec.total), err)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", label(req), err)
				continue
			}
			cfg, err := hw.Platform(req.Platform)
			if err != nil {
				return len(reqs), err
			}
			b.stages = append(b.stages, rec)
			b.winners = append(b.winners, winner{label: label(req), res: res, cfg: cfg, att: att})
			b.quality = append(b.quality, res.Metrics)
		}
		return len(reqs), nil
	})
}

func (w *serialWorkload) check(context.Context, *bench) {}

// dseWorkload is one dse.Run over a sweep grid per round, on two grid
// workers sharing one evaluation cache, journaling to a work directory.
type dseWorkload struct {
	first     dse.Sweep
	firstRows []dse.Row // nil until round 0 has run
	firstAtt  int       // attempt index of round 0's first point
}

func (w *dseWorkload) setup(ctx context.Context, b *bench) error {
	warm := warmupRequest()
	sw := dse.Sweep{Name: "perfbench-warmup", Platforms: []string{warm.Platform},
		Models: []string{warm.Model}, Batches: []int{warm.Batch},
		Search: &dse.Search{Profile: "fast", Seed: warm.Params.Seed}, Workers: 2}
	dir, err := os.MkdirTemp(b.workdir, "dse-warmup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	out, err := dse.Run(ctx, sw, dse.Options{Journal: filepath.Join(dir, "journal.jsonl")})
	if err == nil && out.Failed > 0 {
		err = fmt.Errorf("warm-up sweep: %s", out.Rows[0].Err)
	}
	return err
}

func (w *dseWorkload) round(ctx context.Context, b *bench, r int) error {
	sw := dseRound(b.seed, r)
	pts, err := sw.Expand()
	if err != nil {
		return err
	}
	par := *sw.Params
	dir, err := os.MkdirTemp(b.workdir, "dse-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var cache sim.EvalCache = sim.NewCache(0)
	if b.tr != nil {
		cache = newTimingCache(cache, &b.tr.cache)
	}
	// Hook events arrive serialized; the slices are read after dse.Run.
	starts := make([]time.Time, len(pts))
	ends := make([]time.Time, len(pts))
	var sweepStart time.Time
	hooks := &engine.Hooks{Event: func(e engine.Event) {
		switch e.Kind {
		case "sweep-start":
			sweepStart = time.Now()
		case "point-start":
			starts[e.Iter] = time.Now()
		case "point-done", "point-error":
			ends[e.Iter] = time.Now()
		}
	}}
	var out *dse.Outcome
	rq := b.tr.newReq()
	err = b.measure(sw.Workers, func() (int, error) {
		start := time.Now()
		var err error
		out, err = dse.Run(ctx, sw, dse.Options{Cache: cache, Hooks: hooks,
			Journal: filepath.Join(dir, "journal.jsonl")})
		end := time.Now()
		parent := b.tr.add(rq, 0, "dse", "dse.Run "+sw.Name, start, end)
		for i := range pts {
			b.tr.add(b.tr.newReq(), parent, "dse", "point "+pts[i].Label(), starts[i], ends[i])
		}
		b.dse.wall += end.Sub(start)
		return len(pts), err
	})
	if err != nil {
		return err
	}
	b.dse.workers = sw.Workers
	base := len(b.attempts)
	for i, row := range out.Rows {
		pointDur := ends[i].Sub(starts[i])
		b.dse.pointMS = append(b.dse.pointMS, ms(pointDur))
		b.dse.waitMS = append(b.dse.waitMS, ms(starts[i].Sub(sweepStart)))
		b.dse.busy += pointDur
		var rowErr error
		if row.Err != "" {
			rowErr = errors.New(row.Err)
		}
		att := b.addAttempt(ms(pointDur), rowErr)
		if row.Result == nil {
			fmt.Fprintf(os.Stderr, "%s: %s\n", pts[i].Label(), row.Err)
			continue
		}
		req, err := pts[i].Request(par)
		if err != nil {
			return err
		}
		lbl := pts[i].Label()
		b.winners = append(b.winners, winner{label: lbl, res: row.Result, cfg: *req.Config, att: att})
		b.quality = append(b.quality, row.Result.Metrics)
		if raw := row.Result.Raw; raw != nil {
			b.stages = append(b.stages, stageRec{stage1: time.Duration(raw.Stage1WallNS),
				stage2: time.Duration(raw.Stage2WallNS), total: pointDur,
				allocIters: row.Result.Search.AllocIters})
		}
	}
	if w.firstRows == nil {
		w.first, w.firstRows, w.firstAtt = sw, out.Rows, base
	}
	return nil
}

// dseResolves is how many sweep points of round 0 are re-solved directly
// through engine.Run and compared with their sweep rows.
const dseResolves = 2

func (w *dseWorkload) check(ctx context.Context, b *bench) {
	if w.firstRows == nil {
		return
	}
	pts, err := w.first.Expand()
	if err != nil {
		b.fail(-1, "expanding the checked sweep: %v", err)
		return
	}
	par := *w.first.Params
	rng := roundRNG("dse-sweep/check", b.seed, 0)
	for _, i := range sampleIndices(rng, len(pts), dseResolves) {
		row := w.firstRows[i]
		if row.Result == nil {
			continue
		}
		req, err := pts[i].Request(par)
		if err != nil {
			b.fail(w.firstAtt+i, "%s: %v", pts[i].Label(), err)
			continue
		}
		res, _, err := b.solve(ctx, req)
		if err != nil {
			b.fail(w.firstAtt+i, "%s: direct re-solve: %v", pts[i].Label(), err)
			continue
		}
		if got, want := digest(res), digest(row.Result); got != want {
			b.fail(w.firstAtt+i, "%s: direct re-solve %s != sweep row %s", pts[i].Label(), got, want)
		}
	}
}

// somadClients is the number of closed-loop clients driving somad-serve.
const somadClients = 2

// somadWorkload is service.New{Workers: 2} behind a loopback httptest
// server, driven by closed-loop clients that each POST /v1/jobs?wait=1.
// Every round gets a fresh service, so its cache starts empty.
type somadWorkload struct {
	firstTemplates []service.Request
	firstReplies   map[int]*report.Result // template -> first successful reply
	firstAtt       map[int]int            // template -> that reply's attempt
}

// somadServer is one running service instance with its loopback listener.
type somadServer struct {
	srv *service.Server
	ts  *httptest.Server
}

func startSomad() *somadServer {
	srv := service.New(service.Config{Workers: 2})
	return &somadServer{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

// close drains the service, shuts the listener and waits for the workers.
func (s *somadServer) close() {
	s.srv.Stop()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "somad shutdown:", err)
	}
}

// jobReply is one client-side view of a POST /v1/jobs?wait=1 round trip.
type jobReply struct {
	tmpl  int
	sent  time.Time
	ms    float64
	bytes int
	view  service.View
	err   error
}

func (s *somadServer) post(ctx context.Context, body []byte) jobReply {
	rep := jobReply{sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		rep.err = err
		return rep
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		rep.err = err
		return rep
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	rep.ms = ms(time.Since(rep.sent))
	rep.bytes = len(data)
	switch {
	case err != nil:
		rep.err = err
	case resp.StatusCode != http.StatusOK:
		rep.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		if err := json.Unmarshal(data, &rep.view); err != nil {
			rep.err = err
		} else if rep.view.State != service.StateDone || rep.view.Result == nil {
			rep.err = fmt.Errorf("job %s ended %s: %s", rep.view.ID, rep.view.State, rep.view.Error)
		}
	}
	return rep
}

func (s *somadServer) stats(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (w *somadWorkload) setup(ctx context.Context, b *bench) error {
	s := startSomad()
	defer s.close()
	body, err := json.Marshal(warmupJob())
	if err != nil {
		return err
	}
	return s.post(ctx, body).err
}

func (w *somadWorkload) round(ctx context.Context, b *bench, r int) error {
	templates, order := somadRound(b.seed, r)
	bodies := make([][]byte, len(templates))
	for i, t := range templates {
		var err error
		if bodies[i], err = json.Marshal(t); err != nil {
			return err
		}
	}
	s := startSomad()
	defer s.close()
	before, err := s.stats(ctx)
	if err != nil {
		return err
	}
	replies := make([]jobReply, len(order))
	err = b.measure(somadClients, func() (int, error) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < somadClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(order) {
						return
					}
					replies[i] = s.post(ctx, bodies[order[i]])
					replies[i].tmpl = order[i]
				}
			}()
		}
		wg.Wait()
		return len(order), nil
	})
	if err != nil {
		return err
	}
	after, err := s.stats(ctx)
	if err != nil {
		return err
	}
	b.service.hits += after.Cache.Hits - before.Cache.Hits
	b.service.misses += after.Cache.Misses - before.Cache.Misses

	first := map[int]*report.Result{}
	firstAtt := map[int]int{}
	firstDone := map[int]time.Time{} // when each template's first job finished
	for i, rep := range replies {
		att := b.addAttempt(rep.ms, rep.err)
		if rep.err != nil {
			fmt.Fprintf(os.Stderr, "somad job %d: %v\n", i, rep.err)
			continue
		}
		t := templates[rep.tmpl]
		lbl := fmt.Sprintf("somad %s %s b%d seed %d", t.Framework, t.Model, t.Batch, t.Params.Seed)
		res := rep.view.Result
		b.checkPayload(att, lbl, res)
		cfg, err := hw.Platform(t.HW)
		if err != nil {
			return err
		}
		if res.Hardware.GBufBytes != cfg.GBufBytes {
			b.fail(att, "%s: reply GBUF %d != platform %d", lbl, res.Hardware.GBufBytes, cfg.GBufBytes)
		}
		created, e1 := time.Parse(time.RFC3339Nano, rep.view.CreatedAt)
		started, e2 := time.Parse(time.RFC3339Nano, rep.view.StartedAt)
		finished, e3 := time.Parse(time.RFC3339Nano, rep.view.FinishedAt)
		if e1 != nil || e2 != nil || e3 != nil {
			b.fail(att, "%s: job view timestamps unparsable", lbl)
			continue
		}
		if f, ok := first[rep.tmpl]; !ok {
			first[rep.tmpl], firstAtt[rep.tmpl] = res, att
			firstDone[rep.tmpl] = finished
			b.quality = append(b.quality, res.Metrics)
		} else {
			b.service.repeats++
			if got, want := digest(res), digest(f); got != want {
				b.fail(att, "%s: repeat reply %s != first reply %s", lbl, got, want)
			}
			if started.Before(firstDone[rep.tmpl]) {
				b.service.dupRunMS = append(b.service.dupRunMS, ms(finished.Sub(started)))
			}
		}
		b.service.jobs++
		b.service.respKB = append(b.service.respKB, float64(rep.bytes)/1024)
		b.service.queueMS = append(b.service.queueMS, ms(started.Sub(created)))
		b.service.runMS = append(b.service.runMS, ms(finished.Sub(started)))
		b.service.overheadMS = append(b.service.overheadMS, rep.ms-ms(finished.Sub(created)))
		rq := b.tr.newReq()
		parent := b.tr.add(rq, 0, "http", "POST /v1/jobs "+lbl, rep.sent, rep.sent.Add(time.Duration(rep.ms*1e6)))
		b.tr.add(rq, parent, "service", "queue", created, started)
		b.tr.add(rq, parent, "service", "run", started, finished)
	}
	if w.firstReplies == nil {
		w.firstTemplates, w.firstReplies, w.firstAtt = templates, first, firstAtt
	}
	return nil
}

// somadResolves is how many catalog templates of round 0 are re-solved
// directly through engine.Run and compared with the service's reply.
const somadResolves = 2

func (w *somadWorkload) check(ctx context.Context, b *bench) {
	if w.firstReplies == nil {
		return
	}
	rng := roundRNG("somad-serve/check", b.seed, 0)
	for _, i := range sampleIndices(rng, len(w.firstTemplates), somadResolves) {
		reply, ok := w.firstReplies[i]
		if !ok {
			continue
		}
		t := w.firstTemplates[i]
		req := engine.Request{Backend: t.Framework, Model: t.Model, Batch: t.Batch,
			Platform: t.HW, Objective: soma.EDP(), Params: fastParams(t.Params.Seed)}
		res, _, err := b.solve(ctx, req)
		att := w.firstAtt[i]
		if err != nil {
			b.fail(att, "%s: direct re-solve: %v", label(req), err)
			continue
		}
		if got, want := digest(res), digest(reply); got != want {
			b.fail(att, "%s: direct re-solve %s != somad reply %s", label(req), got, want)
		}
		cfg, err := hw.Platform(t.HW)
		if err != nil {
			b.fail(att, "%s: %v", label(req), err)
			continue
		}
		b.winners = append(b.winners, winner{label: label(req), res: res, cfg: cfg, att: att})
	}
}

// sampleIndices picks k distinct indices below n with a seeded stream.
func sampleIndices(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	return rng.Perm(n)[:k]
}
