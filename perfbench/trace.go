package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"soma/internal/engine"
)

// span is one interval the benchmark recorded around a call into a layer.
// Spans of one request share Req; Parent is the enclosing span's ID (0 for
// none).
type span struct {
	ID, Parent int
	Req        int
	Name       string
	Layer      string
	Start, End time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps the spans of the traced pass in memory until the benchmark
// writes them out. It also owns the timing-cache collector. A nil tracer
// (the untraced passes) records nothing; every method is nil-safe.
type tracer struct {
	mu    sync.Mutex
	spans []span
	reqs  int
	cache cacheTimes
}

// newReq returns a fresh request identifier.
func (t *tracer) newReq() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a finished span and returns its ID.
func (t *tracer) add(req, parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req,
		Name: name, Layer: layer, Start: start, End: end})
	return id
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// stageHooks returns engine hooks that turn a solve's stage events into
// "soma" spans of request req (one per stage per allocator iteration), plus
// a function that returns the stage-1 and stage-2 totals once the solve has
// returned. With a nil tracer the hooks are nil, which the engine treats as
// "no streaming", and the totals zero.
func (t *tracer) stageHooks(req int) (*engine.Hooks, func() (stage1, stage2 time.Duration)) {
	if t == nil {
		return nil, func() (time.Duration, time.Duration) { return 0, 0 }
	}
	var (
		open   = map[string]time.Time{}
		totals = map[string]time.Duration{}
	)
	closeSpan := func(stage string, end time.Time) {
		if st, ok := open[stage]; ok {
			t.add(req, 0, "soma", stage, st, end)
			totals[stage] += end.Sub(st)
			delete(open, stage)
		}
	}
	h := &engine.Hooks{Event: func(e engine.Event) {
		// Hooks deliver events serialized, so the maps need no lock. A
		// stage that finds no feasible schedule returns without a
		// "stage-done" event; it is closed at the next event instead - the
		// next stage start or the end of the solve - the nearest boundary
		// the hooks expose.
		now := time.Now()
		switch e.Kind {
		case "stage":
			for stage := range open {
				closeSpan(stage, now)
			}
			open[e.Stage] = now
		case "stage-done":
			closeSpan(e.Stage, now)
		case "done", "error":
			for stage := range open {
				closeSpan(stage, now)
			}
		}
	}}
	return h, func() (time.Duration, time.Duration) {
		return totals["stage1"], totals["stage2"]
	}
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (loadable in
// ui.perfetto.dev): one track per request, nested by time.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var t0 time.Time
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			PID: 1, TID: s.Req, Args: map[string]int{"id": s.ID, "parent": s.Parent}})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
