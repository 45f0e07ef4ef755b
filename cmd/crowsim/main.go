// Command crowsim runs a single CROW simulation and prints a report.
//
// Examples:
//
//	crowsim -mech crow-cache -workloads mcf
//	crowsim -mech crow-cache+ref -workloads mcf,lbm,gcc,povray -density 64
//	crowsim -mech tl-dram -workloads soplex -compare -j 4
//	crowsim -mech crow-cache -workloads mcf -verify -trace-out run.json
//	crowsim -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"crowdram/crow"
	"crowdram/internal/engine"
	"crowdram/internal/metrics"
	"crowdram/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "crowsim:", err)
		os.Exit(1)
	}
}

// errVerifyFailed marks an oracle-violation exit; the report has already
// been printed when it is returned.
var errVerifyFailed = errors.New("verification failed")

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("crowsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mech      = fs.String("mech", "baseline", "mechanism: baseline, crow-cache, crow-ref, crow-cache+ref, crow-hammer, ideal-cache, ideal-norefresh, tl-dram, salp, raidr, chargecache")
		standard  = fs.String("standard", "lpddr4", "memory standard: "+strings.Join(crow.Standards(), ", "))
		sched     = fs.String("sched", "", "controller scheduler: "+strings.Join(crow.Schedulers(), ", ")+" (default frfcfs-cap)")
		rowPol    = fs.String("rowpolicy", "", "row-buffer policy: "+strings.Join(crow.RowPolicies(), ", ")+" (default timeout)")
		mapping   = fs.String("mapping", "", "address mapping: "+strings.Join(crow.Mappings(), ", ")+" (default robarococh)")
		loads     = fs.String("workloads", "mcf", "comma-separated workload names, one per core (1-4)")
		traces    = fs.String("traces", "", "comma-separated trace files (tracegen format), one per core; overrides -workloads")
		copyRows  = fs.Int("copyrows", 8, "copy rows per subarray (CROW-n)")
		density   = fs.Int("density", 8, "DRAM chip density in Gbit: 8, 16, 32, 64")
		llcMiB    = fs.Int("llc", 8, "LLC capacity in MiB")
		llcKiB    = fs.Int("llc-kib", 0, "LLC capacity in KiB, overriding -llc (0 = use -llc); cache-flush attack studies need sub-MiB caches")
		insts     = fs.Int64("insts", 500_000, "measured instructions per core")
		warmup    = fs.Int64("warmup", 0, "warmup instructions per core (default insts/10)")
		seed      = fs.Int64("seed", 1, "random seed")
		prefetch  = fs.Bool("prefetch", false, "enable the stride prefetcher")
		tlNear    = fs.Int("tl-near", 8, "TL-DRAM near-segment rows")
		salpSub   = fs.Int("salp", 128, "SALP subarrays per bank")
		salpOpen  = fs.Bool("salp-open", false, "SALP open-page policy")
		hammerT   = fs.Int("hammer-threshold", 2048, "RowHammer detection threshold")
		mitig     = fs.String("mitigation", "", "RowHammer mitigation: "+strings.Join(crow.Mitigations(), ", ")+" (default none)")
		paraPM    = fs.Int("para-permille", 0, "PARA neighbour-refresh probability in 1/1000 per ACT (default 5 when -mitigation para)")
		refScale  = fs.Int("refresh-scale", 0, "refresh-rate multiplier for -mitigation refresh-scale (default 4)")
		flipHC    = fs.Int("flip-hcfirst", 0, "enable the bit-flip model with this median HC_first threshold (0 = off)")
		flipJit   = fs.Int("flip-jitter", 0, "flip model per-row threshold jitter in percent (default 25)")
		flipBlast = fs.Int("flip-blast", 0, "flip model distance-2 blast dose in percent of distance-1 (negative disables)")
		flipPat   = fs.Int("flip-pattern", 0, "flip model data-pattern threshold scale in percent for the susceptible half of rows (default 75)")
		transl    = fs.String("translation", "", "virtual-to-physical translation: "+strings.Join(crow.Translations(), ", ")+" (default hash)")
		share     = fs.Int("table-share", 1, "CROW-table sharing group (Section 6.1)")
		perBank   = fs.Bool("refpb", false, "use LPDDR4 per-bank refresh")
		postpone  = fs.Int("postpone", 0, "elastic refresh postponement limit (JEDEC allows 8)")
		verify    = fs.Bool("verify", false, "run the correctness oracle alongside the simulation and report violations")
		compare   = fs.Bool("compare", false, "also run the baseline and report speedup/energy savings")
		jobs      = fs.Int("j", 1, "max simulations in flight for -compare (0 = GOMAXPROCS)")
		timeout   = fs.Duration("timeout", 0, "per-simulation wall-clock limit (0 = none)")
		verbose   = fs.Bool("v", false, "print progress per simulation run")
		asJSON    = fs.Bool("json", false, "emit the report as JSON")
		list      = fs.Bool("list", false, "list available workloads and exit")
		listStds  = fs.Bool("list-standards", false, "list registered standards, schedulers, row policies and mappings, then exit")

		traceOut   = fs.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON of the run (open at ui.perfetto.dev)")
		traceCap   = fs.Int("trace-cap", 1_000_000, "event-tracer ring capacity; oldest events drop beyond it")
		cpuProfile = fs.String("cpuprofile", "", "write a Go CPU profile of the simulator process")
		memProfile = fs.String("memprofile", "", "write a Go heap profile at exit")
		execTrace  = fs.String("exectrace", "", "write a Go runtime execution trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(crow.Workloads(), "\n"))
		return nil
	}
	if *listStds {
		fmt.Fprintf(stdout, "standards:    %s\n", strings.Join(crow.Standards(), ", "))
		fmt.Fprintf(stdout, "schedulers:   %s\n", strings.Join(crow.Schedulers(), ", "))
		fmt.Fprintf(stdout, "row policies: %s\n", strings.Join(crow.RowPolicies(), ", "))
		fmt.Fprintf(stdout, "mappings:     %s\n", strings.Join(crow.Mappings(), ", "))
		return nil
	}
	if *traceOut != "" && *compare {
		return errors.New("-trace-out traces a single run; it cannot be combined with -compare")
	}
	if *traceOut != "" && *traceCap <= 0 {
		return errors.New("-trace-cap must be positive")
	}

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	opts := crow.Options{
		Mechanism:       crow.Mechanism(*mech),
		Standard:        *standard,
		Scheduler:       *sched,
		RowPolicy:       *rowPol,
		Mapping:         *mapping,
		Workloads:       strings.Split(*loads, ","),
		TraceFiles:      splitNonEmpty(*traces),
		CopyRows:        *copyRows,
		DensityGbit:     *density,
		LLCBytes:        llcBytes(*llcMiB, *llcKiB),
		MeasureInsts:    *insts,
		WarmupInsts:     *warmup,
		Seed:            *seed,
		Prefetch:        *prefetch,
		TLDRAMNearRows:  *tlNear,
		SALPSubarrays:   *salpSub,
		SALPOpenPage:    *salpOpen,
		HammerThreshold: *hammerT,
		Mitigation:      *mitig,
		ParaPerMille:    *paraPM,
		RefreshScale:    *refScale,
		FlipHCFirst:     *flipHC,
		FlipJitterPct:   *flipJit,
		FlipBlastPct:    *flipBlast,
		FlipPatternPct:  *flipPat,
		Translation:     *transl,
		TableShareGroup: *share,
		PerBankRefresh:  *perBank,
		RefreshPostpone: *postpone,
		Verify:          *verify,
	}
	// Reject unknown names (standard, scheduler, …) with the registry listing
	// up front, instead of failing deep inside a run.
	if err := opts.Validate(); err != nil {
		return err
	}

	if *compare {
		c, err := compareParallel(ctx, opts, *jobs, *timeout, *verbose, stderr)
		if err != nil {
			return err
		}
		if *asJSON {
			return emitJSON(stdout, c)
		}
		printReport(stdout, c.Mech)
		fmt.Fprintf(stdout, "\nvs baseline:\n")
		fmt.Fprintf(stdout, "  weighted speedup:   %+.1f%%\n", 100*c.Speedup)
		fmt.Fprintf(stdout, "  DRAM energy ratio:  %.3f (%+.1f%%)\n", c.EnergyRatio, 100*(c.EnergyRatio-1))
		return nil
	}

	// The tracer rides the run context, not Options (whose key memoizes
	// runs): a traced simulation is the same simulation.
	var bundle *obs.Observers
	if *traceOut != "" {
		bundle = &obs.Observers{TraceCapacity: *traceCap}
		ctx = obs.With(ctx, bundle)
	}

	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if *timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, *timeout)
	}
	defer cancel()
	rep, err := crow.RunContext(runCtx, opts)
	if err != nil {
		return err
	}
	if bundle != nil {
		if err := writeTrace(*traceOut, bundle.Tracer()); err != nil {
			return err
		}
		if t := bundle.Tracer(); t != nil {
			fmt.Fprintf(stderr, "crowsim: wrote %s (%d events, %d dropped)\n",
				*traceOut, t.Len(), t.Dropped())
		}
	}
	if *asJSON {
		if err := emitJSON(stdout, rep); err != nil {
			return err
		}
		if *verify && rep.Violations > 0 {
			return errVerifyFailed
		}
		return nil
	}
	printReport(stdout, rep)
	if *verify {
		if rep.Violations == 0 {
			fmt.Fprintln(stdout, "verification: ok (0 oracle violations)")
		} else {
			fmt.Fprintf(stdout, "verification: FAILED, %d violations\n", rep.Violations)
			counts := metrics.Counters(rep.ViolationCounts)
			for _, class := range counts.Names() {
				fmt.Fprintf(stdout, "  %s: %d\n", class, counts[class])
			}
			for _, s := range rep.ViolationSamples {
				fmt.Fprintf(stdout, "  sample: %s\n", s)
			}
			return errVerifyFailed
		}
	}
	return nil
}

// writeTrace exports the tracer's ring as Chrome trace-event JSON.
func writeTrace(path string, t *obs.Tracer) error {
	if t == nil {
		return errors.New("trace-out: no tracer was attached (internal error)")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

// compareParallel runs the mechanism, baseline, and (for multi-core options)
// alone-run simulations behind crow.Compare concurrently on an engine pool,
// then assembles the comparison from the memoized results.
func compareParallel(ctx context.Context, opts crow.Options, jobs int, timeout time.Duration, verbose bool, stderr io.Writer) (crow.Comparison, error) {
	popts := []engine.Option[crow.Report]{}
	if timeout > 0 {
		popts = append(popts, engine.WithTimeout[crow.Report](timeout))
	}
	if verbose {
		popts = append(popts, engine.WithObserver[crow.Report](progress(stderr)))
	}
	pool := engine.New(jobs, popts...)

	runs := crow.CompareRuns(opts)
	do := func(o crow.Options) (crow.Report, error) {
		label := fmt.Sprintf("%s on %s", o.Mechanism, strings.Join(o.Workloads, "+"))
		return pool.Do(ctx, o.Key(), label, func(ctx context.Context) (crow.Report, error) {
			return crow.RunContext(ctx, o)
		})
	}
	if err := engine.All(ctx, pool, runs,
		func(o crow.Options) (string, string, func(context.Context) (crow.Report, error)) {
			label := fmt.Sprintf("%s on %s", o.Mechanism, strings.Join(o.Workloads, "+"))
			return o.Key(), label, func(ctx context.Context) (crow.Report, error) {
				return crow.RunContext(ctx, o)
			}
		}); err != nil {
		return crow.Comparison{}, err
	}
	reps := make([]crow.Report, len(runs))
	for i, o := range runs {
		rep, err := do(o) // cache hit: All already ran it
		if err != nil {
			return crow.Comparison{}, err
		}
		reps[i] = rep
	}
	return crow.CompareFrom(opts, reps)
}

// progress renders engine events as one stderr line each.
func progress(stderr io.Writer) engine.Observer {
	return func(e engine.Event) {
		switch e.Type {
		case engine.EventStarted:
			fmt.Fprintf(stderr, "  run   %s\n", e.Label)
		case engine.EventFinished:
			status := fmt.Sprintf("in %v", e.Duration.Round(time.Millisecond))
			if e.Err != nil {
				status = "FAILED: " + e.Err.Error()
			}
			fmt.Fprintf(stderr, "  done  %s %s\n", e.Label, status)
		}
	}
}

func printReport(w io.Writer, r crow.Report) {
	fmt.Fprintf(w, "mechanism: %s\n", r.Mechanism)
	for i := range r.IPC {
		fmt.Fprintf(w, "  core %d: IPC %.3f, LLC MPKI %.2f\n", i, r.IPC[i], r.MPKI[i])
	}
	fmt.Fprintf(w, "DRAM commands: ACT %d, ACT-t %d, ACT-c %d, RD %d, WR %d, REF %d\n",
		r.ACT, r.ACTt, r.ACTc, r.RD, r.WR, r.REF)
	fmt.Fprintf(w, "row-buffer hit rate: %.1f%%, read latency avg %.1f ns (p50 <= %.0f, p99 <= %.0f)\n",
		100*r.RowHitRate, r.AvgReadLatencyNs, r.ReadLatencyP50Ns, r.ReadLatencyP99Ns)
	if r.Hits+r.Misses > 0 {
		fmt.Fprintf(w, "CROW-table: hit rate %.1f%% (%d hits, %d misses), %d copies, %d evictions, %d restores\n",
			100*r.CROWTableHitRate, r.Hits, r.Misses, r.Copies, r.Evictions, r.RestoreOps)
	}
	if r.RefRemaps > 0 {
		fmt.Fprintf(w, "CROW-ref: %d activations redirected to copy rows\n", r.RefRemaps)
	}
	if r.HammerRemaps > 0 {
		fmt.Fprintf(w, "RowHammer: %d victim rows remapped\n", r.HammerRemaps)
	}
	if r.Mitigation != "" {
		fmt.Fprintf(w, "mitigation: %s (%d neighbour refreshes)\n", r.Mitigation, r.MitigationRefreshes)
	}
	if r.Flips > 0 || r.ShieldedFlips > 0 {
		fmt.Fprintf(w, "bit flips: %d on %d rows (%d shielded by remaps)", r.Flips, r.FlipVictimRows, r.ShieldedFlips)
		if len(r.FlipsByCore) > 0 {
			fmt.Fprintf(w, ", by tenant %v", r.FlipsByCore)
		}
		fmt.Fprintln(w)
	}
	e := r.EnergyNJ
	fmt.Fprintf(w, "DRAM energy: %.0f nJ (act/pre %.0f, rd %.0f, wr %.0f, refresh %.0f, background %.0f)\n",
		e.Total(), e.ActPre, e.Read, e.Write, e.Refresh, e.Background)
	if r.ChipAreaOverhead > 0 {
		fmt.Fprintf(w, "chip area overhead: %.2f%%, capacity overhead: %.2f%%\n",
			100*r.ChipAreaOverhead, 100*r.CapacityOverhead)
	}
}

func emitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// llcBytes resolves the two LLC size flags: -llc-kib, when set, overrides
// the MiB-granular -llc so sub-MiB caches (the RowHammer lab's 64 KiB
// cache-flush-attack stand-in) are expressible from the command line.
func llcBytes(mib, kib int) int64 {
	if kib > 0 {
		return int64(kib) << 10
	}
	return int64(mib) << 20
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}
