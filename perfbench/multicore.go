package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"crowdram/crow"
)

// multicoreInsts is the measured instructions per core of the multicore
// workloads (warm-up adds a tenth): the size the ROADMAP profiled, long
// enough that set-up is a small share of a run.
const multicoreInsts = 200_000

// multicoreOptions is the paper-shaped 4-core configuration: CROW-cache on
// a memory-intensive mix with LPDDR4 defaults.
func multicoreOptions(seed, insts int64, verify bool) crow.Options {
	return crow.Options{
		Mechanism:    crow.Cache,
		Workloads:    []string{"mcf", "lbm", "soplex", "omnetpp"},
		MeasureInsts: insts,
		Seed:         seed,
		Verify:       verify,
	}
}

// reportDigest hashes a report without its oracle fields, so a verified
// run and an unverified one of the same options digest alike.
func reportDigest(rep crow.Report) string {
	rep.Violations, rep.ViolationCounts, rep.ViolationSamples = 0, nil, nil
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // crow.Report holds only encodable fields
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

type multicoreRep struct {
	wall   time.Duration
	cpu    time.Duration // process CPU time over the same span
	peak   float64       // peak resident set in MiB
	report crow.Report
}

// multicorePhase repeats the run until the phase has lasted cfg.seconds.
// between, if not nil, runs after every repetition, outside its timing.
func multicorePhase(cfg config, o crow.Options, between func() error) ([]multicoreRep, error) {
	var reps []multicoreRep
	peaks, err := repeatFor(cfg.seconds, 1, func() error {
		cpu0, t0 := cpuTime(), time.Now()
		rep, err := crow.RunContext(context.Background(), o)
		if err != nil {
			return err
		}
		reps = append(reps, multicoreRep{wall: time.Since(t0), cpu: cpuTime() - cpu0, report: rep})
		if between != nil {
			return between()
		}
		return nil
	})
	for i := range peaks {
		reps[i].peak = peaks[i]
	}
	return reps, err
}

// checkMulticore verifies each repetition against the first and against
// want, the digest of the unverified report at the seed (empty if there is
// none), and that a verified run found no violations.
func checkMulticore(res *result, o crow.Options, reps []multicoreRep, want string) {
	first := ""
	for i, r := range reps {
		res.attempted++
		d := reportDigest(r.report)
		switch {
		case o.Verify && r.report.Violations != 0:
			res.fail("repetition %d: oracle found %d violations: %v", i, r.report.Violations, r.report.ViolationSamples)
		case want != "" && d != want:
			res.fail("repetition %d: report digest %s, reference for seed %d is %s", i, d, o.Seed, want)
		case i > 0 && d != first:
			res.fail("repetition %d: report differs from repetition 0", i)
		}
		if i == 0 {
			first = d
		}
	}
}

// multicoreReference returns the digest o's report must have: the one
// recorded for the seed in refs.json or, for a verified run at a seed with
// none recorded, that of an unverified run made now.
func multicoreReference(cfg config, o crow.Options) (string, error) {
	if want, ok := references[fmt.Sprint(o.Seed)]; ok {
		return want, nil
	}
	if !o.Verify {
		fmt.Fprintf(cfg.log, "perfbench: no reference digest for multicore seed %d; repetitions are checked against each other\n", o.Seed)
		return "", nil
	}
	plain := o
	plain.Verify = false
	rep, err := crow.RunContext(context.Background(), plain)
	if err != nil {
		return "", err
	}
	return reportDigest(rep), nil
}

// setupsPerRep is how many set-ups the untraced phase times after each
// repetition.
const setupsPerRep = 5

func runMulticore(cfg config) (*result, error)       { return multicore(cfg, false) }
func runMulticoreVerify(cfg config) (*result, error) { return multicore(cfg, true) }

func multicore(cfg config, verify bool) (*result, error) {
	name := "multicore"
	if verify {
		name = "multicore-verify"
	}
	o := multicoreOptions(cfg.seed, cfg.multicoreInsts, verify)
	if err := o.Validate(); err != nil {
		return nil, err
	}
	want, err := multicoreReference(cfg, o)
	if err != nil {
		return nil, err
	}
	// Set-up is building the simulated system: a run of one instruction
	// per core pays sim.New (LLC prefill included) and nothing else. One
	// takes a few milliseconds, so it is timed many times: in a burst
	// before the timed phase and, untraced, setupsPerRep times after each
	// repetition, so that its median spans the same stretch of host time
	// as the runs' rather than only the process's first 200 ms.
	tiny := o
	tiny.MeasureInsts = 1
	var setups []float64
	setupOnce := func() error {
		runtime.GC()
		t0 := time.Now()
		_, err := crow.RunContext(context.Background(), tiny)
		setups = append(setups, time.Since(t0).Seconds())
		return err
	}
	for start := time.Now(); len(setups) < 10 || time.Since(start) < 200*time.Millisecond; {
		if err := setupOnce(); err != nil {
			return nil, err
		}
	}
	var between func() error
	if !cfg.trace {
		between = func() error {
			for i := 0; i < setupsPerRep; i++ {
				if err := setupOnce(); err != nil {
					return err
				}
			}
			return nil
		}
	}

	res := &result{}
	reps, err := multicorePhase(cfg, o, between)
	if err != nil {
		return nil, err
	}
	checkMulticore(res, o, reps, want)
	fmt.Fprintf(cfg.log, "perfbench: %s set-up %.6fs (median of %d)\n", name, median(setups), len(setups))
	for i, r := range reps {
		fmt.Fprintf(cfg.log, "perfbench: %s %d: wall %.3fs, cpu %.3fs, peak %.1f MiB\n", name, i, r.wall.Seconds(), r.cpu.Seconds(), r.peak)
	}
	walls := func(reps []multicoreRep) []float64 {
		var w []float64
		for _, r := range reps {
			w = append(w, r.wall.Seconds())
		}
		return w
	}
	if !cfg.trace {
		res.add("setup_s", median(setups), "s")
		res.addTiming("wall_s", median(walls(reps)), "s", len(reps))
		var peaks []float64
		for _, r := range reps {
			peaks = append(peaks, r.peak)
		}
		res.addTiming("peak_rss_mb", median(peaks), "MiB", len(peaks))
		return res, res.conform(name, false)
	}

	prof := filepath.Join(cfg.scratch, name+".prof")
	stop, err := startProfile(prof)
	if err != nil {
		return nil, err
	}
	traced, err := multicorePhase(cfg, o, nil)
	if err := stop(); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	checkMulticore(res, o, traced, want)
	samples, err := readProfile(prof)
	if err != nil {
		return nil, err
	}
	res.metrics = append(res.metrics, attribute(samples)...)
	res.add("bench.trace_overhead_pct", 100*(ratio(median(walls(traced)), median(walls(reps)))-1), "%")
	toRuns := func(reps []multicoreRep) []execution {
		var runs []execution
		for _, r := range reps {
			runs = append(runs, execution{key: "multicore", report: r.report, host: r.wall})
		}
		return runs
	}
	modeled := modeledMetrics(toRuns(traced))
	if !sameModeled(modeled, modeledMetrics(toRuns(reps))) {
		res.fail("modeled counters differ between the untraced and traced runs")
	}
	res.metrics = append(res.metrics, modeled...)
	return res, res.conform(name, true)
}
