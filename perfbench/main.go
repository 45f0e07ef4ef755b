// Command perfbench is the repository benchmark: it runs one workload
// against the module's public API (exp, crow, engine, service, store),
// checks that every output is correct, and prints the end-to-end metrics
// (untraced) or the per-layer metrics (traced) as the last line of standard
// output. See README.md for the workloads, the metric glossary and how to
// run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"crowdram/internal/exp"
)

// workload is one benchmark workload: run executes its set-up and timed
// phase under cfg and returns the measured result.
type workload struct {
	name string
	why  string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"sweep", "the regenerate-the-paper path: every experiment at QuickScale, so per-run set-up, memo dedup and the parallel tail dominate", runSweep},
	{"multicore", "one paper-shaped 4-core run, repeated: the tick loop, scheduling, refresh and the CROW table do almost all the work", runMulticore},
	{"multicore-verify", "the multicore run with the correctness oracle attached, so the oracle layer is measured and its cost isolated", runMulticoreVerify},
	{"serve", "crowserve under open-loop load: HTTP, queue, memo and store do most of the work; the simulator runs only for cold jobs", runServe},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workers bounds engine workers and client connections (nproc).
	workers int
	// scratch is a private directory under the checkout for stores and
	// profiles; it is removed when the run ends.
	scratch string
	log     io.Writer

	// Sizes, fixed by the benchmark; tests shrink them.
	scale          exp.Scale // sweep scale
	exps           []exp.Experiment
	multicoreInsts int64
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sweep, multicore, multicore-verify or serve")
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Int("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics from a traced run; 0 prints the end-to-end metrics")
	writeRefs := fs.String("write-refs", "", "recompute the multicore reference digests for seeds LO-HI into perfbench/refs.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *writeRefs != "" {
		return 0, writeReferences(*writeRefs, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	scratch, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(scratch)

	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
		scratch: scratch,
		log:     stderr,

		scale:          exp.QuickScale(),
		exps:           exp.Experiments(),
		multicoreInsts: multicoreInsts,
	}
	res, err := w.run(cfg)
	if err != nil {
		return 1, err
	}
	res.print(stdout, w, cfg)
	if !res.correct() {
		return 1, fmt.Errorf("%s: %d of %d operations failed or were wrong", w.name, res.failed, res.attempted)
	}
	return 0, nil
}

// metric is one named measurement. n is the sample count behind a timing
// (0 for counts, ratios and single measurements).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	thin  bool // a percentile with fewer than ten samples beyond it
}

// result is what a workload reports: operation counts, correctness
// problems, and the metrics of the requested mode.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

// addTiming records a timing with the number of samples behind it.
func (r *result) addTiming(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, n: n})
}

// addPercentile records the nearest-rank p-quantile of xs. A percentile with
// fewer than ten samples beyond it is flagged where it is printed.
func (r *result) addPercentile(name string, xs []float64, p float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: percentile(xs, p), unit: unit,
		n: len(xs), thin: p > highestPercentile(len(xs))})
}

// fail records a correctness problem; it counts as one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report (host metadata, problems, every
// metric with its unit and sample count) followed by the one-line JSON
// result every run ends with.
func (r *result) print(w io.Writer, wl *workload, cfg config) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s, seed %d, %v): %s\n", wl.name, mode, cfg.seed, cfg.seconds, wl.why)
	fmt.Fprintf(w, "host: %s\n", hostMetadata())
	for _, p := range r.problems {
		fmt.Fprintf(w, "WRONG: %s\n", p)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-28s %14d / %d = %.6f ratio\n", "failed_ratio", r.failed, r.attempted, ratio)
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.n)
		}
		if m.thin {
			samples += " fewer than 10 samples beyond this percentile"
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s%s\n", m.name, m.value, m.unit, samples)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only NaN or Inf values fail to encode; metrics guard against both.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// hostMetadata describes where a number was measured: nproc, GOMAXPROCS,
// Go version, commit, CPU model and date.
func hostMetadata() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s cpu=%q date=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), cpuModel(),
		time.Now().UTC().Format(time.RFC3339))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
