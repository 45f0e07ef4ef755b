package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdram/crow"
	"crowdram/internal/exp"
	"crowdram/internal/service"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9},
		{200, 0.95}, {419, 0.95}, {999, 0.95}, {1000, 0.99}, {1800, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if b := beyond(419, 0.95); b != 20 {
		t.Errorf("beyond(419, 0.95) = %d, want 20 (the sweep's engine.exec_p95_ms)", b)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

// fakeJobs serves the two job endpoints the load generator uses: a submit
// answers queued and the first poll answers done with a report.
func fakeJobs() *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.Status{ID: "j1", State: service.StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rep := crow.Report{Mechanism: crow.Cache}
		json.NewEncoder(w).Encode(service.Status{ID: "j1", State: service.StateDone,
			Result: &service.Result{Report: &rep}})
	})
	return httptest.NewServer(mux)
}

// An open-loop job is timed from when it was due, so a generator that runs
// late charges its lateness to the job's latency, and reports it.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	srv := fakeJobs()
	defer srv.Close()
	c := newClient(srv.URL, 2)
	defer c.close()

	j := &job{spec: []byte(`{"options":{}}`)}
	due := time.Now().Add(-40 * time.Millisecond)
	c.send(j, due)
	if j.err != nil {
		t.Fatal(j.err)
	}
	if j.late < 40*time.Millisecond {
		t.Errorf("late = %v, want at least the 40ms the send was overdue", j.late)
	}
	if j.latency < j.late+j.submit {
		t.Errorf("latency %v < lateness %v + submit %v: not measured from the due time", j.latency, j.late, j.submit)
	}
	if len(j.polls) == 0 || j.status.State != service.StateDone {
		t.Errorf("polls %d, state %s: want at least one poll ending done", len(j.polls), j.status.State)
	}
}

func TestRunStepSendsOnSchedule(t *testing.T) {
	srv := fakeJobs()
	defer srv.Close()
	c := newClient(srv.URL, 2)
	defer c.close()
	var jobs []*job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, &job{spec: []byte(`{"options":{}}`), due: time.Duration(i) * 5 * time.Millisecond})
	}
	start := c.runStep(jobs)
	for i, j := range jobs {
		if j.err != nil {
			t.Fatal(j.err)
		}
		sent := start.Add(j.due).Add(j.late)
		if j.late < 0 || j.doneAt.Before(sent) || j.latency != j.doneAt.Sub(start.Add(j.due)) {
			t.Errorf("job %d: late %v, latency %v not measured from its due time", i, j.late, j.latency)
		}
	}
}

func TestTailIdlePct(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Two workers: both busy over [0,50), one busy over [50,100).
	spans := []interval{{at(0), at(100)}, {at(0), at(50)}}
	if got := tailIdlePct(spans, at(0), at(100), 2); math.Abs(got-50) > 1e-9 {
		t.Errorf("tailIdlePct = %v, want 50", got)
	}
}

// A repetition's peak counts memory touched within it, and a reset returns
// the freed memory so the next repetition's peak starts low again.
func TestRSSWatchPeakPerRepetition(t *testing.T) {
	w := watchRSS()
	defer w.close()
	w.reset()
	base := w.peakMiB()
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	if got := w.peakMiB(); got < base+48 {
		t.Fatalf("peak %.1f MiB after touching 64 MiB from %.1f MiB", got, base)
	}
	w.reset() // buf is dead here, so the collection frees it
	if got := w.peakMiB(); got > base+16 {
		t.Errorf("peak %.1f MiB after reset, want near %.1f MiB", got, base)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"crowdram/internal/ctrl.(*Controller).serviceRefresh":                                "crowdram/internal/ctrl",
		"crowdram/internal/engine.(*Pool[go.shape.struct { M crowdram/crow.Mechanism }]).Do": "crowdram/internal/engine",
		"runtime.mallocgc":          "runtime",
		"net/http.(*conn).serve":    "net/http",
		"encoding/json.Unmarshal":   "encoding/json",
		"internal/runtime/atomic.X": "internal/runtime/atomic",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeFixtureProfile(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "pprof-raw.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	if got := samples[0].frames; len(got) != 4 || got[1] != "crowdram/internal/ctrl.allbankRefresh.Issue" {
		t.Errorf("sample 0 frames %q: want the inlined caller after the leaf", got)
	}
	want := map[string]float64{
		"dram.self_pct": 40, "ctrl.self_pct": 20, "runtime.gc_pct": 20, "engine.self_pct": 20,
		"other.self_pct": 0, "ctrl.refresh_pct": 40, "dram.open_scan_pct": 40,
		"ctrl.schedule_pct": 20, "sim.setup_pct": 20,
	}
	self := 0.0
	for _, m := range attribute(samples) {
		if w, ok := want[m.name]; ok && math.Abs(m.value-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", m.name, m.value, w)
		}
		if strings.HasSuffix(m.name, ".self_pct") || m.name == "runtime.gc_pct" {
			self += m.value
		}
		if m.n != 5 {
			t.Errorf("%s has %d samples behind it, want 5", m.name, m.n)
		}
	}
	if math.Abs(self-100) > 1e-9 {
		t.Errorf("self shares sum to %v, want 100", self)
	}
}

// BENCHMARK.json and the catalogue the benchmark prints from must agree.
// A multicore-verify run at a seed with no recorded digest is held to the
// digest of an unverified run, and a report that differs from it fails.
func TestMulticoreVerifyReference(t *testing.T) {
	cfg := tinyConfig(t, false)
	o := multicoreOptions(cfg.seed, cfg.multicoreInsts, true)
	want, err := multicoreReference(cfg, o)
	if err != nil || want == "" {
		t.Fatalf("reference %q, %v", want, err)
	}
	rep, err := crow.RunContext(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	res := &result{}
	checkMulticore(res, o, []multicoreRep{{report: rep}}, want)
	if !res.correct() {
		t.Fatalf("verified report differs from the unverified one: %v", res.problems)
	}
	rep.Hits++
	res = &result{}
	checkMulticore(res, o, []multicoreRep{{report: rep}}, want)
	if res.failed != 1 {
		t.Fatalf("a changed report passed the reference check")
	}
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// tinyConfig shrinks every workload to a smoke run: a one-second phase, a
// two-experiment sweep at a few thousand instructions (so not compared with
// the QuickScale goldens), a short multicore run, and a seed with no
// recorded reference.
func tinyConfig(t *testing.T, traced bool) config {
	exps, err := exp.Select([]string{"table1", "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	return config{
		seed: 987654, seconds: time.Second, trace: traced, workers: 2,
		scratch: t.TempDir(), log: io.Discard,
		scale: exp.Scale{Insts: 5000, Warmup: 500, MixesPerGroup: 1,
			SingleApps: []string{"mcf", "gcc"}, Seed: 1},
		exps:           exps,
		multicoreInsts: 5000,
	}
}

// Every workload, traced and untraced, prints every metric it names with
// its unit and passes its own correctness checks.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := w.run(tinyConfig(t, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("%d of %d failed: %v", res.failed, res.attempted, res.problems)
				}
				want := expected(traced)
				if len(res.metrics) != len(want) {
					t.Fatalf("printed %d metrics, want %d", len(res.metrics), len(want))
				}
				for i, m := range res.metrics {
					if m.name != want[i].name || m.unit != want[i].unit || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
						t.Errorf("metric %d: %s = %v %s, want %s in %s", i, m.name, m.value, m.unit, want[i].name, want[i].unit)
					}
				}
				var out strings.Builder
				res.print(&out, &w, tinyConfig(t, traced))
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !last.Correct || len(last.Metrics) != len(want) {
					t.Errorf("JSON result: correct %v with %d metrics", last.Correct, len(last.Metrics))
				}
			})
		}
	}
}
