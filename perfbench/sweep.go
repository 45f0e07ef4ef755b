package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"crowdram/crow"
	"crowdram/internal/exp"
)

// goldenDir holds the byte-compared reports of every experiment at
// QuickScale seed 1, relative to the repository root. The benchmark only
// reads it.
var goldenDir = filepath.Join("internal", "exp", "testdata", "golden")

// sweepRep is one regeneration of every registered experiment on a fresh
// runner and pool, with no store.
type sweepRep struct {
	rec    *runRecorder
	wall   time.Duration // Execute plus every Table
	cpu    time.Duration // process CPU time over the same span
	peak   float64       // peak resident set in MiB, set-up included
	reduce time.Duration // the Table calls alone
	from   time.Time
	to     time.Time
	tables []string
	hit    float64 // engine memo hit ratio
	execs  int64
	err    error
}

type sweepSetup struct {
	runner *exp.Runner
	plan   []crow.Options
	rec    *runRecorder
}

// newSweep builds the runner and plan: the set-up a sweep pays before
// executing anything.
func newSweep(cfg config, exps []exp.Experiment) sweepSetup {
	rec := newRunRecorder()
	r := exp.NewRunner(cfg.scale, exp.Workers(cfg.workers),
		exp.Observe(rec.observe), exp.RunWith(rec.run))
	return sweepSetup{runner: r, plan: exp.PlanAll(r, exps), rec: rec}
}

func (s sweepSetup) execute(exps []exp.Experiment) sweepRep {
	cpu0 := cpuTime()
	rep := sweepRep{rec: s.rec, from: time.Now()}
	if rep.err = s.runner.Execute(s.plan); rep.err == nil {
		t := time.Now()
		for _, e := range exps {
			tbl, err := e.Table(s.runner)
			if err != nil {
				rep.err = fmt.Errorf("%s: %w", e.Name, err)
				break
			}
			rep.tables = append(rep.tables, tbl.String())
		}
		rep.reduce = time.Since(t)
	}
	rep.to = time.Now()
	rep.wall = rep.to.Sub(rep.from)
	rep.cpu = cpuTime() - cpu0
	snap := s.runner.Pool().Snapshot()
	rep.hit, rep.execs = snap.HitRatio(), snap.Executions
	return rep
}

// sweepMinReps is how many sweeps a phase makes at least. One sweep's wall
// time depends on when its longest run (about 10 s) happens to start, and
// Execute starts every run at once, so that is a matter of chance: it
// started between 6 and 12 s into the sweep, and sweeps took 15 to 22 s on
// a 2-core host. The untraced run therefore reports the median of three; a
// traced run makes one per phase.
func sweepMinReps(cfg config) int {
	if cfg.trace {
		return 1
	}
	return 3
}

// sweepPhase runs sweeps on fresh runners until the phase has lasted
// cfg.seconds. The first runner comes from the caller's
// set-up; later ones are built, and timed as set-up, per repetition.
func sweepPhase(cfg config, exps []exp.Experiment, first sweepSetup, setups *[]float64) []sweepRep {
	var reps []sweepRep
	next := first
	peaks, _ := repeatFor(cfg.seconds, sweepMinReps(cfg), func() error {
		if len(reps) > 0 {
			t0 := time.Now()
			next = newSweep(cfg, exps)
			*setups = append(*setups, time.Since(t0).Seconds())
		}
		reps = append(reps, next.execute(exps))
		return nil // a failed sweep is recorded in its sweepRep
	})
	for i := range reps {
		reps[i].peak = peaks[i]
	}
	return reps
}

// checkSweep verifies every repetition: no run failed, the tables are
// identical across repetitions and, at QuickScale, equal the goldens.
func checkSweep(res *result, cfg config, exps []exp.Experiment, reps []sweepRep, planned int) {
	var golden []string
	if reflect.DeepEqual(cfg.scale, exp.QuickScale()) {
		for _, e := range exps {
			b, err := os.ReadFile(filepath.Join(goldenDir, e.Name+".txt"))
			if err != nil {
				res.fail("golden %s: %v", e.Name, err)
			}
			golden = append(golden, string(b))
		}
	}
	for i, rep := range reps {
		res.attempted += planned + len(exps)
		if rep.err != nil {
			res.failed += rep.rec.failures
			res.fail("sweep %d: %v", i, rep.err)
			continue
		}
		for j, t := range rep.tables {
			switch {
			case golden != nil && t != golden[j]:
				res.fail("sweep %d: %s differs from its golden report", i, exps[j].Name)
			case i > 0 && reps[0].err == nil && t != reps[0].tables[j]:
				res.fail("sweep %d: %s differs from repetition 0", i, exps[j].Name)
			}
		}
	}
}

func runSweep(cfg config) (*result, error) {
	exps := cfg.exps
	res := &result{}
	// Set-up is timed in a burst before the phase and once per later sweep;
	// setup_s is the median of all of them.
	first, setups, err := repeatSetup(5, 200*time.Millisecond, func() (sweepSetup, error) {
		return newSweep(cfg, exps), nil
	})
	if err != nil {
		return nil, err
	}
	planned := len(first.plan)
	fmt.Fprintf(cfg.log, "perfbench: sweep set-up %.6fs (median of %d), %d planned runs\n", median(setups), len(setups), planned)

	reps := sweepPhase(cfg, exps, first, &setups)
	for i, r := range reps {
		var long interval
		for _, sp := range r.rec.spans {
			if sp.end.Sub(sp.start) > long.end.Sub(long.start) {
				long = sp
			}
		}
		fmt.Fprintf(cfg.log, "perfbench: sweep %d: wall %.2fs, cpu %.2fs, longest run %.2fs from %.2fs, peak %.1f MiB\n",
			i, r.wall.Seconds(), r.cpu.Seconds(), long.end.Sub(long.start).Seconds(), long.start.Sub(r.from).Seconds(), r.peak)
	}
	checkSweep(res, cfg, exps, reps, planned)
	if !cfg.trace {
		var walls, peaks []float64
		for _, r := range reps {
			walls = append(walls, r.wall.Seconds())
			peaks = append(peaks, r.peak)
		}
		res.add("setup_s", median(setups), "s")
		res.addTiming("wall_s", median(walls), "s", len(walls))
		res.addTiming("peak_rss_mb", median(peaks), "MiB", len(peaks))
		return res, res.conform("sweep", false)
	}

	// Traced: the same phase again with the CPU profiler on.
	prof := filepath.Join(cfg.scratch, "sweep.prof")
	stop, err := startProfile(prof)
	if err != nil {
		return nil, err
	}
	traced := sweepPhase(cfg, exps, newSweep(cfg, exps), &setups)
	if err := stop(); err != nil {
		return nil, err
	}
	checkSweep(res, cfg, exps, traced, planned)
	samples, err := readProfile(prof)
	if err != nil {
		return nil, err
	}
	res.metrics = append(res.metrics, attribute(samples)...)

	var walls, untracedWalls, execs, waits, idle, reduce, hits, counts []float64
	var runs []execution
	longest := 0.0
	for _, r := range reps {
		untracedWalls = append(untracedWalls, r.wall.Seconds())
	}
	for _, r := range traced {
		walls = append(walls, r.wall.Seconds())
		execs = append(execs, r.rec.execs...)
		waits = append(waits, r.rec.waits...)
		idle = append(idle, tailIdlePct(r.rec.spans, r.from, r.to, cfg.workers))
		reduce = append(reduce, ms(r.reduce))
		hits = append(hits, r.hit)
		counts = append(counts, float64(r.execs))
		runs = append(runs, r.rec.runs...)
		for _, x := range r.rec.execs {
			longest = max(longest, x/1000)
		}
	}
	res.addPercentile("engine.exec_p50_ms", execs, 0.5, "ms")
	res.addPercentile("engine.exec_p95_ms", execs, 0.95, "ms")
	res.addPercentile("engine.wait_p50_ms", waits, 0.5, "ms")
	res.add("engine.executions", median(counts), "count")
	res.add("engine.hit_ratio", median(hits), "ratio")
	res.add("engine.tail_idle_pct", median(idle), "%")
	res.add("engine.longest_run_s", longest, "s")
	res.addTiming("exp.reduce_ms", median(reduce), "ms", len(reduce))
	res.add("bench.trace_overhead_pct", 100*(ratio(median(walls), median(untracedWalls))-1), "%")

	var untracedRuns []execution
	for _, r := range reps {
		untracedRuns = append(untracedRuns, r.rec.runs...)
	}
	modeled := modeledMetrics(runs)
	if !sameModeled(modeled, modeledMetrics(untracedRuns)) {
		res.fail("modeled counters differ between the untraced and traced sweeps")
	}
	res.metrics = append(res.metrics, modeled...)
	return res, res.conform("sweep", true)
}

// repeatFor runs rep at least min times and until d has elapsed, starting
// another repetition only while a typical one still fits. It returns each
// repetition's peak resident set size in MiB. Each repetition starts from a
// collected heap whose free memory was returned to the OS, so its peak does
// not depend on when the previous repetition's garbage happened to be
// collected.
func repeatFor(d time.Duration, min int, rep func() error) ([]float64, error) {
	w := watchRSS()
	defer w.close()
	start := time.Now()
	var times, peaks []float64
	for {
		w.reset()
		t0 := time.Now()
		if err := rep(); err != nil {
			return peaks, err
		}
		times = append(times, time.Since(t0).Seconds())
		peaks = append(peaks, w.peakMiB())
		if len(times) >= min && time.Since(start).Seconds()+median(times) > d.Seconds() {
			return peaks, nil
		}
	}
}
