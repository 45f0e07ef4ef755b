package exp

import (
	"strings"
	"sync/atomic"
	"testing"

	"crowdram/internal/engine"
)

func TestAnalyticTablesRender(t *testing.T) {
	tables := []Table{Table1(), Fig5(), Fig6(), Fig7(), WeakProb(), Overhead()}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.Title)
		}
		s := tb.String()
		if !strings.Contains(s, tb.Title) {
			t.Errorf("rendering must include the title")
		}
		for _, row := range tb.Rows {
			if len(row) > len(tb.Header) {
				t.Errorf("%s: row wider than header", tb.Title)
			}
		}
	}
}

func TestTable1Content(t *testing.T) {
	tb := Table1()
	s := tb.String()
	// The model's ACT-t fully-restored tRCD must round to the paper's -38%.
	if !strings.Contains(s, "-38.0%") {
		t.Errorf("Table 1 must show the -38%% tRCD reduction:\n%s", s)
	}
}

func TestFig5Shape(t *testing.T) {
	tb := Fig5()
	if len(tb.Rows) != 9 {
		t.Fatalf("Figure 5 sweeps 1..9 rows, got %d", len(tb.Rows))
	}
	if tb.Rows[0][1] != "+0.0%" {
		t.Errorf("row 1 must be baseline, got %s", tb.Rows[0][1])
	}
}

// tinyScale keeps the simulation experiments fast enough for unit tests.
func tinyScale() Scale {
	return Scale{Insts: 20_000, Warmup: 2_000, MixesPerGroup: 1, Seed: 1,
		SingleApps: []string{"mcf", "soplex"}}
}

func TestFig8SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r := NewRunner(tinyScale())
	res, err := Fig8(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %v", res.Apps)
	}
	for _, app := range res.Apps {
		for _, c := range res.Configs {
			if hr := res.HitRate[c][app]; hr < 0 || hr > 1 {
				t.Errorf("%s CROW-%d hit rate %f out of range", app, c, hr)
			}
		}
		if res.Ideal[app] < -0.05 {
			t.Errorf("%s: ideal CROW-cache should not slow down (%.3f)", app, res.Ideal[app])
		}
	}
	// More copy rows never hurt the average hit rate.
	if res.AvgHitRate[8] < res.AvgHitRate[1]-0.01 {
		t.Errorf("hit rate must not degrade with more copy rows: %f vs %f",
			res.AvgHitRate[8], res.AvgHitRate[1])
	}
	if res.Table().Rows == nil {
		t.Error("table must render")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	var runs atomic.Int64
	r := NewRunner(tinyScale(), Observe(func(e engine.Event) {
		if e.Type == engine.EventFinished {
			runs.Add(1)
		}
	}))
	if _, err := Fig8(r); err != nil {
		t.Fatal(err)
	}
	first := runs.Load()
	if _, err := Fig8(r); err != nil { // fully cached
		t.Fatal(err)
	}
	if got := runs.Load(); got != first {
		t.Errorf("second Fig8 must hit the cache entirely (%d -> %d runs)", first, got)
	}
	if first == 0 {
		t.Error("observer must see fresh runs finish")
	}
}

// TestPlanCoversReduce asserts the tentpole invariant: after Execute(Plan),
// the reduce phase performs zero fresh simulations — every run it requests,
// including recursive alone-run baselines, was declared in the plan.
func TestPlanCoversReduce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	for _, e := range Experiments() {
		if e.Plan == nil {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			var fresh atomic.Int64
			executed := make(chan struct{})
			r := NewRunner(tinyScale(), Workers(4), Observe(func(ev engine.Event) {
				if ev.Type == engine.EventFinished {
					select {
					case <-executed:
						fresh.Add(1)
					default:
					}
				}
			}))
			if err := r.Execute(e.Plan(r)); err != nil {
				t.Fatal(err)
			}
			close(executed)
			if _, err := e.Table(r); err != nil {
				t.Fatal(err)
			}
			if n := fresh.Load(); n != 0 {
				t.Errorf("reduce phase ran %d simulations not declared in the plan", n)
			}
		})
	}
}

// TestParallelMatchesSequential is the determinism guard: rendered output
// must be byte-identical whether runs execute on one worker or four, in
// whatever order the scheduler picks. The RowHammer lab (hammerlab, tenant)
// rides along so its flip model and mitigations also run at one worker.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment (QuickScale)")
	}
	sel, err := Select([]string{"fig8", "fig9", "hammerlab", "tenant"})
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		r := NewRunner(QuickScale(), Workers(workers))
		if err := r.Execute(PlanAll(r, sel)); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range sel {
			tb, err := e.Table(r)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tb.String())
		}
		return b.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Errorf("-j 4 output differs from -j 1 output:\n--- j1 ---\n%s\n--- j4 ---\n%s", seq, par)
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	s := tinyScale()
	s.SingleApps = []string{"mcf"}
	// Refresh fires every ~31k CPU cycles; the run must span many
	// refresh intervals for CROW-ref to show.
	s.Insts = 120_000
	s.Warmup = 12_000
	r := NewRunner(s)
	res, err := Fig13(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("Figure 13 sweeps 4 densities")
	}
	// Refresh savings must grow with density.
	lo, hi := res.Point(8), res.Point(64)
	if hi.SingleSpeedup <= lo.SingleSpeedup {
		t.Errorf("CROW-ref speedup must grow with density: %f vs %f",
			hi.SingleSpeedup, lo.SingleSpeedup)
	}
	if hi.SingleEnergy >= lo.SingleEnergy {
		t.Errorf("CROW-ref energy savings must grow with density")
	}
}
