package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"crowdram/crow"
	"crowdram/internal/engine"
)

// runRecorder records what the benchmark can see at the engine and
// simulator boundaries: engine observer events (queue wait, execution
// time, in-flight intervals) and, through the run function the benchmark
// hands the engine, every executed simulation's report and host time.
type runRecorder struct {
	mu       sync.Mutex
	queuedAt map[string]time.Time
	startAt  map[string]time.Time
	waits    []float64 // ms, EventQueued to EventStarted
	execs    []float64 // ms, EventFinished.Duration
	spans    []interval
	failures int
	runs     []execution
}

type interval struct{ start, end time.Time }

// execution is one simulation the run function performed.
type execution struct {
	key    string
	report crow.Report
	host   time.Duration
	start  time.Time
}

func newRunRecorder() *runRecorder {
	return &runRecorder{queuedAt: map[string]time.Time{}, startAt: map[string]time.Time{}}
}

// observe is an engine.Observer.
func (r *runRecorder) observe(e engine.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e.Type {
	case engine.EventQueued:
		r.queuedAt[e.Key] = e.Time
	case engine.EventStarted:
		r.startAt[e.Key] = e.Time
		if q, ok := r.queuedAt[e.Key]; ok {
			r.waits = append(r.waits, ms(e.Time.Sub(q)))
		}
	case engine.EventFinished:
		r.execs = append(r.execs, ms(e.Duration))
		if s, ok := r.startAt[e.Key]; ok {
			r.spans = append(r.spans, interval{s, e.Time})
		}
		if e.Err != nil {
			r.failures++
		}
	}
}

// run executes one simulation with crow.RunContext and records it.
func (r *runRecorder) run(ctx context.Context, o crow.Options) (crow.Report, error) {
	t0 := time.Now()
	rep, err := crow.RunContext(ctx, o)
	host := time.Since(t0)
	if err == nil {
		r.mu.Lock()
		r.runs = append(r.runs, execution{key: o.Key(), report: rep, host: host, start: t0})
		r.mu.Unlock()
	}
	return rep, err
}

// tailIdlePct is the share of [from, to) during which fewer than workers
// executions were in flight.
func tailIdlePct(spans []interval, from, to time.Time, workers int) float64 {
	type edge struct {
		t time.Time
		d int
	}
	var edges []edge
	for _, s := range spans {
		edges = append(edges, edge{s.start, +1}, edge{s.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t.Before(edges[j].t) })
	var idle time.Duration
	inflight, last := 0, from
	for _, e := range edges {
		t := e.t
		if t.Before(from) {
			t = from
		}
		if t.After(to) {
			t = to
		}
		if inflight < workers {
			idle += t.Sub(last)
		}
		inflight += e.d
		last = t
	}
	if inflight < workers && to.After(last) {
		idle += to.Sub(last)
	}
	return 100 * ratio(idle.Seconds(), to.Sub(from).Seconds())
}

// modeledMetrics reports the simulated counters over the distinct runs
// executed (rates as means, counts as sums; summed in key order so equal
// runs give bit-identical values), plus host time per simulated DRAM
// command over every execution. A host-only change leaves all but
// sim.host_ns_per_cmd identical.
func modeledMetrics(runs []execution) []metric {
	byKey := map[string]crow.Report{}
	var hostNs, cmds float64
	for _, x := range runs {
		byKey[x.key] = x.report
		hostNs += float64(x.host.Nanoseconds())
		cmds += float64(commands(x.report))
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var ipc, mpki, rowHit, readP99, crowHit []float64
	var acts, refs int64
	var energy float64
	for _, k := range keys {
		rep := byKey[k]
		ipc = append(ipc, mean(rep.IPC))
		mpki = append(mpki, mean(rep.MPKI))
		rowHit = append(rowHit, rep.RowHitRate)
		readP99 = append(readP99, rep.ReadLatencyP99Ns)
		crowHit = append(crowHit, rep.CROWTableHitRate)
		acts += rep.ACT + rep.ACTt + rep.ACTc
		refs += rep.REF
		energy += rep.EnergyNJ.Total()
	}
	n := len(keys)
	return []metric{
		{name: "cpu.ipc_mean", value: mean(ipc), unit: "inst/cycle", n: n},
		{name: "cache.mpki_mean", value: mean(mpki), unit: "miss/kinst", n: n},
		{name: "ctrl.row_hit_rate", value: mean(rowHit), unit: "ratio", n: n},
		{name: "ctrl.read_p99_ns", value: mean(readP99), unit: "ns", n: n},
		{name: "dram.acts", value: float64(acts), unit: "count"},
		{name: "dram.refs", value: float64(refs), unit: "count"},
		{name: "core.crow_hit_rate", value: mean(crowHit), unit: "ratio", n: n},
		{name: "energy.total_nj", value: energy, unit: "nJ"},
		{name: "sim.host_ns_per_cmd", value: ratio(hostNs, cmds), unit: "ns", n: len(runs)},
	}
}

// commands counts the DRAM commands a report records.
func commands(rep crow.Report) int64 {
	return rep.ACT + rep.ACTt + rep.ACTc + rep.RD + rep.WR + rep.REF
}

// sameModeled reports whether two modeled-counter sets agree on every
// simulated value (sim.host_ns_per_cmd is host time and may differ).
func sameModeled(a, b []metric) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].name != "sim.host_ns_per_cmd" && a[i].value != b[i].value {
			return false
		}
	}
	return true
}
