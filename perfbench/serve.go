package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"crowdram/crow"
	"crowdram/internal/exp"
	"crowdram/internal/service"
	"crowdram/internal/store"
)

// step is one rate of the open-loop ladder. share is its part of the timed
// phase; the rest is left for draining backlogs between steps.
type step struct {
	rate  float64 // jobs per second
	share float64
	ref   bool // the reference rate the latency metrics are read at
}

// ladder runs from light load, through a reference rate at which the
// simulator keeps a quarter of one core busy, to far past saturation on a
// 2-core host. At --seconds 15 the reference step sends 3150 jobs.
var ladder = []step{
	{rate: 50, share: 0.10},
	{rate: 300, share: 0.70, ref: true},
	{rate: 600, share: 0.10},
	{rate: 5000, share: 0.05},
}

// latencyLimit is the job_p99_ms a ladder rate must meet to count towards
// max_rate_jobs_per_s.
const latencyLimit = 500 * time.Millisecond

// Class mix of the jobs. No record of real crowserve traffic exists, so
// these shares are an assumption; README.md gives the reason for each.
// Store keys cost a simulation each in set-up, so their share is kept small.
const (
	storeShare = 0.03
	coldShare  = 0.05
)

// Every job runs gcc under one of the paper's four main configurations,
// cycled in turn. One app keeps a class's latency distribution unimodal:
// across QuickScale's six apps run times span 16–67 ms, and a class median
// over ~50 jobs then jumps between app clusters from seed to seed. gcc is
// the cheapest of them, so at the reference rate cold jobs rarely overlap
// and the class medians measure the serving path rather than queueing
// behind simulations. The seed draws the run seeds, the order of the
// classes and the arrival times.
var serveMechs = []crow.Mechanism{crow.Baseline, crow.Cache, crow.Ref, crow.CacheRef}

const serveApp = "gcc"

// warmKeys is how many distinct keys the warm class draws from.
const warmKeys = 24

// job is one scheduled submission and what the client saw of it.
type job struct {
	class string // warm, store or cold
	step  int
	due   time.Duration // offset from the step's start
	spec  []byte        // POST /v1/jobs body
	opt   []byte        // its options document
	key   string        // the run key the service should execute or recall
	opts  crow.Options  // the options at the service's scale

	late    time.Duration
	submit  time.Duration
	polls   []float64 // ms per poll request
	latency time.Duration
	status  service.Status
	err     error
	code    int // non-2xx status that ended the job, if any
	doneAt  time.Time
}

// population is a phase's inputs, all drawn from the seed: the warm keys,
// and every step's jobs with their classes and due times.
type population struct {
	warm  []*job
	steps [][]*job
}

func servicePop(seed int64, seconds time.Duration) population {
	rng := rand.New(rand.NewSource(seed))
	keyer := exp.NewRunner(exp.QuickScale())
	scale := exp.QuickScale()
	used := map[int64]bool{}
	made := map[string]int{}
	newJob := func(class string) *job {
		s := rng.Int63n(1<<40) + 1
		for used[s] {
			s = rng.Int63n(1<<40) + 1
		}
		used[s] = true
		o := crow.Options{
			Mechanism: serveMechs[made[class]%len(serveMechs)],
			Workloads: []string{serveApp},
			Seed:      s,
		}
		made[class]++
		opt, err := json.Marshal(map[string]any{"Mechanism": o.Mechanism, "Workloads": o.Workloads, "Seed": o.Seed})
		if err != nil {
			panic(err) // strings and integers always encode
		}
		spec, err := json.Marshal(service.Spec{Options: opt})
		if err != nil {
			panic(err)
		}
		scaled := o
		scaled.MeasureInsts, scaled.WarmupInsts = scale.Insts, scale.Warmup
		return &job{class: class, spec: spec, opt: opt, key: keyer.KeyOf(o), opts: scaled}
	}
	var p population
	for i := 0; i < warmKeys; i++ {
		p.warm = append(p.warm, newJob("warm"))
	}
	for si, st := range ladder {
		dur := time.Duration(st.share * float64(seconds))
		n := int(st.rate * dur.Seconds())
		var dues []time.Duration
		for i := 0; i < n; i++ {
			dues = append(dues, time.Duration(rng.Int63n(int64(dur))))
		}
		// Uniform arrival times over the step: a Poisson process
		// conditioned on its count.
		sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
		// Exact class counts per step, in seeded order, so every seed
		// stores and executes the same number of keys.
		classes := make([]string, n)
		for i := range classes {
			switch {
			case i < int(math.Round(storeShare*float64(n))):
				classes[i] = "store"
			case i < int(math.Round((storeShare+coldShare)*float64(n))):
				classes[i] = "cold"
			default:
				classes[i] = "warm"
			}
		}
		rng.Shuffle(n, func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
		var jobs []*job
		for i, due := range dues {
			var j *job
			if classes[i] == "warm" {
				w := p.warm[rng.Intn(len(p.warm))]
				j = &job{class: "warm", spec: w.spec, opt: w.opt, key: w.key, opts: w.opts}
			} else {
				j = newJob(classes[i])
			}
			j.step, j.due = si, due
			jobs = append(jobs, j)
		}
		p.steps = append(p.steps, jobs)
	}
	return p
}

func (p population) class(c string) []*job {
	var out []*job
	for _, s := range p.steps {
		for _, j := range s {
			if j.class == c {
				out = append(out, j)
			}
		}
	}
	return out
}

// timedStore is the service's Backing: the disk store, with every Get and
// Put timed at the boundary.
type timedStore struct {
	st *store.Store[crow.Report]

	mu     sync.Mutex
	reads  []float64
	writes []float64
	gets   int
	hits   int
}

func (t *timedStore) Get(key string) (crow.Report, bool) {
	t0 := time.Now()
	v, ok := t.st.Get(key)
	d := ms(time.Since(t0))
	t.mu.Lock()
	t.reads = append(t.reads, d)
	t.gets++
	if ok {
		t.hits++
	}
	t.mu.Unlock()
	return v, ok
}

func (t *timedStore) Put(key string, v crow.Report) {
	t0 := time.Now()
	t.st.Put(key, v)
	d := ms(time.Since(t0))
	t.mu.Lock()
	t.writes = append(t.writes, d)
	t.mu.Unlock()
}

func (t *timedStore) reset() {
	t.mu.Lock()
	t.reads, t.writes, t.gets, t.hits = nil, nil, 0, 0
	t.mu.Unlock()
}

// instance is a running service behind a loopback HTTP server.
type instance struct {
	svc   *service.Service
	srv   *http.Server
	done  chan error
	base  string
	store *timedStore
	rec   *runRecorder
}

func startInstance(cfg config, dir string, queueDepth int) (*instance, error) {
	st, err := exp.OpenStore(dir, 0)
	if err != nil {
		return nil, err
	}
	in := &instance{store: &timedStore{st: st}, rec: newRunRecorder(), done: make(chan error, 1)}
	in.svc = service.New(service.Config{
		Scale:         exp.QuickScale(),
		Workers:       cfg.workers,
		EngineWorkers: cfg.workers,
		QueueDepth:    queueDepth,
		RetainJobs:    queueDepth,
		Backing:       in.store,
		Run:           in.rec.run,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.svc.Drain(context.Background())
		return nil, err
	}
	in.base = "http://" + ln.Addr().String()
	in.srv = &http.Server{Handler: in.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { in.done <- in.srv.Serve(ln) }()
	return in, nil
}

// stop shuts the server and the service down and waits for both.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := in.svc.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// runAll submits jobs straight to the service (no HTTP; this is set-up) and
// waits for every one to finish.
func runAll(svc *service.Service, jobs []*job) error {
	var handles []*service.Job
	for _, j := range jobs {
		h, err := svc.Submit(service.Spec{Options: j.opt})
		if err != nil {
			return err
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		for !h.State().Terminal() {
			time.Sleep(time.Millisecond)
		}
		if st := h.Status(); st.State != service.StateDone {
			return fmt.Errorf("set-up job %s (%s): %s %s", h.ID, jobs[i].key, st.State, st.Error)
		}
	}
	return nil
}

// serveSetup prepares one phase: an earlier service instance writes the
// store-class keys to a fresh store directory and stops; the measured
// instance then starts on that directory and executes the warm keys so they
// sit in its memo. It returns the measured instance and the references the
// earlier instance's executions captured.
func serveSetup(cfg config, pop population, dir string, queueDepth int) (*instance, map[string]crow.Report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	earlier, err := startInstance(cfg, dir, queueDepth)
	if err != nil {
		return nil, nil, err
	}
	err = runAll(earlier.svc, pop.class("store"))
	if serr := earlier.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, nil, err
	}
	refs := map[string]crow.Report{}
	for _, x := range earlier.rec.runs {
		refs[x.key] = x.report
	}
	in, err := startInstance(cfg, dir, queueDepth)
	if err != nil {
		return nil, nil, err
	}
	if err := runAll(in.svc, pop.warm); err != nil {
		in.stop()
		return nil, nil, err
	}
	return in, refs, nil
}

// client is the load generator's HTTP side: at most workers connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(req *http.Request, out any) (int, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.StatusCode, json.Unmarshal(body, out)
}

// jobDeadline bounds how long the client waits for one job.
const jobDeadline = 60 * time.Second

// send submits j at its due time and polls until the job is terminal. Polls
// back off to a quarter of the time waited so far, which bounds the
// overshoot of the observed completion to a quarter of the latency while
// keeping the poll rate of a backlog in check.
func (c *client) send(j *job, due time.Time) {
	t0 := time.Now()
	j.late = t0.Sub(due)
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(j.spec))
	if err != nil {
		j.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	var st service.Status
	j.code, j.err = c.do(req, &st)
	j.submit = time.Since(t0)
	if j.err != nil {
		return
	}
	for !st.State.Terminal() {
		if time.Since(t0) > jobDeadline {
			j.err = fmt.Errorf("job %s not done after %v", st.ID, jobDeadline)
			return
		}
		time.Sleep(max(500*time.Microsecond, time.Since(t0)/4))
		p0 := time.Now()
		req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+st.ID, nil)
		if err != nil {
			j.err = err
			return
		}
		id := st.ID
		st = service.Status{}
		j.code, j.err = c.do(req, &st)
		j.polls = append(j.polls, ms(time.Since(p0)))
		if j.err != nil {
			j.err = fmt.Errorf("job %s: %w", id, j.err)
			return
		}
	}
	j.doneAt = time.Now()
	j.latency = j.doneAt.Sub(due)
	j.status = st
	j.code = 0
}

// runStep sends a step's jobs on their schedule (open loop: a goroutine per
// job, so a slow job never delays the next send) and waits for all of them.
func (c *client) runStep(jobs []*job) (start time.Time) {
	var wg sync.WaitGroup
	start = time.Now()
	for _, j := range jobs {
		due := start.Add(j.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			c.send(j, due)
		}(j)
	}
	wg.Wait()
	return start
}

// servePhase is one run of the ladder against one instance.
type servePhase struct {
	pop       population
	in        *instance
	refs      map[string]crow.Report
	starts    []time.Time
	from, to  time.Time
	cpu       time.Duration
	peak      float64 // peak resident set in MiB
	seconds   time.Duration
	execsFrom int // index into in.rec.runs where the timed phase begins
	snapFrom  [2]int64
}

func runServePhase(cfg config, pop population, in *instance, refs map[string]crow.Report) *servePhase {
	ph := &servePhase{pop: pop, in: in, refs: map[string]crow.Report{}, seconds: cfg.seconds}
	for k, v := range refs {
		ph.refs[k] = v
	}
	in.store.reset()
	in.rec.mu.Lock()
	for _, x := range in.rec.runs {
		ph.refs[x.key] = x.report // the warm-up executions
	}
	ph.execsFrom = len(in.rec.runs)
	in.rec.mu.Unlock()
	snap := in.svc.EngineSnapshot()
	ph.snapFrom = [2]int64{snap.CacheHits + snap.StoreHits, snap.Executions}
	c := newClient(in.base, cfg.workers)
	defer c.close()
	// Start from a collected heap, as repeatFor does.
	w := watchRSS()
	defer w.close()
	w.reset()
	cpu0 := cpuTime()
	ph.from = time.Now()
	for _, jobs := range pop.steps {
		ph.starts = append(ph.starts, c.runStep(jobs))
	}
	ph.to = time.Now()
	ph.cpu = cpuTime() - cpu0
	ph.peak = w.peakMiB()
	return ph
}

// executions returns the simulations the instance ran in the timed phase.
func (ph *servePhase) executions() []execution {
	ph.in.rec.mu.Lock()
	defer ph.in.rec.mu.Unlock()
	return append([]execution(nil), ph.in.rec.runs[ph.execsFrom:]...)
}

// check verifies every job: accepted, done, and reporting exactly what
// crow.RunContext returned for its key — the executions captured in set-up
// (warm and store keys) or in the phase (cold keys). A seeded sample of
// cold keys is also re-run directly.
func (ph *servePhase) check(res *result, cfg config) {
	refs := ph.refs
	for _, x := range ph.executions() {
		refs[x.key] = x.report
	}
	var cold []*job
	for _, jobs := range ph.pop.steps {
		for _, j := range jobs {
			res.attempted++
			switch ref, ok := refs[j.key]; {
			case j.err != nil:
				res.fail("%s job: %v", j.class, j.err)
			case j.status.State != service.StateDone:
				res.fail("%s job %s: %s %s", j.class, j.status.ID, j.status.State, j.status.Error)
			case j.status.Result == nil || j.status.Result.Report == nil:
				res.fail("%s job %s: done without a report", j.class, j.status.ID)
			case !ok:
				res.fail("%s job %s: service never executed key %s", j.class, j.status.ID, j.key)
			case !sameReport(*j.status.Result.Report, ref):
				res.fail("%s job %s: report differs from crow.RunContext at its key", j.class, j.status.ID)
			case j.class == "cold":
				cold = append(cold, j)
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(cold), func(a, b int) { cold[a], cold[b] = cold[b], cold[a] })
	for _, j := range cold[:min(4, len(cold))] {
		rep, err := crow.RunContext(context.Background(), j.opts)
		if err != nil || !sameReport(*j.status.Result.Report, rep) {
			res.fail("cold job %s: report differs from a direct crow.RunContext (%v)", j.status.ID, err)
		}
	}
}

func sameReport(a, b crow.Report) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// stepStats summarizes one ladder step.
type stepStats struct {
	byClass map[string][]float64
	lat     []float64
	rate    float64 // jobs completed per second, first due to last done
	drain   time.Duration
	failed  int
}

func (ph *servePhase) step(i int) stepStats {
	s := stepStats{byClass: map[string][]float64{}}
	jobs := ph.pop.steps[i]
	var lastDone time.Time
	for _, j := range jobs {
		if j.err != nil || j.status.State != service.StateDone {
			s.failed++
			continue
		}
		l := ms(j.latency)
		s.lat = append(s.lat, l)
		s.byClass[j.class] = append(s.byClass[j.class], l)
		if j.doneAt.After(lastDone) {
			lastDone = j.doneAt
		}
	}
	if len(jobs) > 0 && !lastDone.IsZero() {
		start := ph.starts[i]
		s.rate = float64(len(jobs)-s.failed) / lastDone.Sub(start.Add(jobs[0].due)).Seconds()
		s.drain = lastDone.Sub(start.Add(jobs[len(jobs)-1].due))
	}
	return s
}

// refWindows is how many equal windows of due time the reference step is
// cut into for its latency medians.
const refWindows = 5

// windowedMedian returns the median, over refWindows equal windows of the
// reference step, of each window's median latency for class c ("" for every
// class), and the sample count. A host stall of a second or two then moves
// one window, not the reported value: on a shared 2-core host the plain
// median of cold jobs swung by 0.43 of its value over ten seeds.
func (ph *servePhase) windowedMedian(c string) (float64, int) {
	i := refStep()
	win := time.Duration(ladder[i].share*float64(ph.seconds)) / refWindows
	lat := make([][]float64, refWindows)
	n := 0
	for _, j := range ph.pop.steps[i] {
		if j.err != nil || j.status.State != service.StateDone || (c != "" && j.class != c) {
			continue
		}
		w := min(int(j.due/win), refWindows-1)
		lat[w] = append(lat[w], ms(j.latency))
		n++
	}
	var meds []float64
	for _, l := range lat {
		if len(l) > 0 {
			meds = append(meds, median(l))
		}
	}
	return median(meds), n
}

// maxRate is the completion rate of the highest ladder step whose p99 is
// within latencyLimit with no job failed and no backlog left growing: the
// step's last job must also finish within the limit of its due time.
func (ph *servePhase) maxRate() (float64, int) {
	best, at := 0.0, -1
	for i := range ladder {
		s := ph.step(i)
		lim := ms(latencyLimit)
		if s.failed == 0 && len(s.lat) > 0 && percentile(s.lat, 0.99) <= lim && ms(s.drain) <= lim {
			best, at = s.rate, i
		}
	}
	return best, at
}

func refStep() int {
	for i, s := range ladder {
		if s.ref {
			return i
		}
	}
	panic("perfbench: the ladder has no reference step")
}

func runServe(cfg config) (*result, error) {
	pop := servicePop(cfg.seed, cfg.seconds)
	total := 0
	for _, s := range pop.steps {
		total += len(s)
	}
	// The queue and the job table hold a whole phase, so overload shows as
	// latency and backlog rather than as refused jobs, or as finished jobs
	// evicted from the table before their clients poll them.
	depth := total + len(pop.warm)
	res := &result{}

	// Set-up is repeated in fresh directories and its median reported;
	// the last set-up's instance is measured.
	var in *instance
	var refs map[string]crow.Report
	setupN := 5
	if cfg.trace {
		setupN = 1
	}
	var setups []float64
	for i := 0; i < setupN; i++ {
		if in != nil {
			if err := in.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		in, refs, err = serveSetup(cfg, pop, filepath.Join(cfg.scratch, fmt.Sprintf("store-%d", i)), depth)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(cfg.log, "perfbench: serve set-up %.3fs (median of %d): %d store keys, %d warm keys, %d jobs\n",
		median(setups), len(setups), len(pop.class("store")), len(pop.warm), total)
	// A traced run replays the phase on a second instance whose store is a
	// copy taken before the first phase wrote to it.
	var copyDir string
	if cfg.trace {
		copyDir = filepath.Join(cfg.scratch, "store-copy")
		if err := copyStore(in.store.st.Dir(), copyDir); err != nil {
			in.stop()
			return nil, err
		}
	}

	ph := runServePhase(cfg, pop, in, refs)
	if err := in.stop(); err != nil {
		return nil, err
	}
	ph.check(res, cfg)
	fmt.Fprintf(cfg.log, "perfbench: serve ladder %s\n", ph.ladderSummary())
	if !cfg.trace {
		// A served job's wall time is its latency at the reference rate.
		job, n := ph.windowedMedian("")
		res.add("setup_s", median(setups), "s")
		res.addTiming("wall_s", job/1000, "s", n)
		res.add("peak_rss_mb", ph.peak, "MiB")
		return res, res.conform("serve", false)
	}

	pop2 := servicePop(cfg.seed, cfg.seconds)
	in2, err := startInstance(cfg, copyDir, depth)
	if err != nil {
		return nil, err
	}
	if err := runAll(in2.svc, pop2.warm); err != nil {
		in2.stop()
		return nil, err
	}
	prof := filepath.Join(cfg.scratch, "serve.prof")
	stop, err := startProfile(prof)
	if err != nil {
		in2.stop()
		return nil, err
	}
	// The second instance found the warm keys in its store copy, so its
	// references are the first phase's.
	ph2 := runServePhase(cfg, pop2, in2, ph.refs)
	perr := stop()
	if err := in2.stop(); err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	ph2.check(res, cfg)
	samples, err := readProfile(prof)
	if err != nil {
		return nil, err
	}
	res.metrics = append(res.metrics, attribute(samples)...)
	ph2.layerMetrics(res, cfg)
	// The class medians and the ladder's rates are read from the untraced
	// phase, as wall_s is. The cold median is noisy: a cold job is a
	// simulation, and when the shared host briefly gives the process one
	// core instead of two its median doubles (20–28 ms in calm runs, 43–50
	// ms in others).
	for _, c := range []string{"warm", "store", "cold"} {
		v, n := ph.windowedMedian(c)
		res.addTiming(c+"_p50_ms", v, "ms", n)
	}
	rate, at := ph.maxRate()
	fmt.Fprintf(cfg.log, "perfbench: serve highest passing step %d\n", at)
	res.add("max_rate_jobs_per_s", rate, "jobs/s")
	// The service's throughput: the completion rate of the last step, which
	// offers far more than the host serves, read from the untraced phase.
	// It is unbounded: its window is about three seconds of two workers
	// running mostly cold simulations, and its spread over ten seeds was
	// 0.17 of its median (0.28 with a step twice as long).
	sat := ph.step(len(ladder) - 1)
	res.addTiming("saturated_jobs_per_s", sat.rate, "jobs/s", len(sat.lat))
	res.add("bench.trace_overhead_pct", 100*(ratio(ph2.cpu.Seconds(), ph.cpu.Seconds())-1), "%")
	modeled := modeledMetrics(ph2.executions())
	if !sameModeled(modeled, modeledMetrics(ph.executions())) {
		res.fail("modeled counters differ between the untraced and traced phases")
	}
	res.metrics = append(res.metrics, modeled...)
	return res, res.conform("serve", true)
}

// layerMetrics reports the boundary timings of the phase: store and engine
// over the whole phase, service and HTTP at the reference rate.
func (ph *servePhase) layerMetrics(res *result, cfg config) {
	st := ph.in.store
	st.mu.Lock()
	res.addPercentile("store.read_p50_ms", st.reads, 0.5, "ms")
	res.addPercentile("store.write_p50_ms", st.writes, 0.5, "ms")
	res.addPercentile("store.write_p99_ms", st.writes, 0.99, "ms")
	res.add("store.hit_ratio", ratio(float64(st.hits), float64(st.gets)), "ratio")
	st.mu.Unlock()

	runs := ph.executions()
	var execs, waits []float64
	var spans []interval
	startOf := map[string]time.Time{}
	longest := 0.0
	for _, x := range runs {
		execs = append(execs, ms(x.host))
		spans = append(spans, interval{x.start, x.start.Add(x.host)})
		startOf[x.key] = x.start
		longest = max(longest, x.host.Seconds())
	}
	var queue, run, submit, polls []float64
	pollCount, rejected := 0, 0
	for si, jobs := range ph.pop.steps {
		for _, j := range jobs {
			if j.code == http.StatusServiceUnavailable {
				rejected++
			}
			if j.status.Started != nil {
				if s, ok := startOf[j.key]; ok && j.class == "cold" {
					waits = append(waits, ms(s.Sub(*j.status.Started)))
				}
			}
			if si != refStep() || j.status.Started == nil || j.status.Finished == nil {
				continue
			}
			queue = append(queue, ms(j.status.Started.Sub(j.status.Submitted)))
			run = append(run, ms(j.status.Finished.Sub(*j.status.Started)))
			submit = append(submit, ms(j.submit))
			polls = append(polls, j.polls...)
			pollCount += len(j.polls)
		}
	}
	snap := ph.in.svc.EngineSnapshot()
	hits := snap.CacheHits + snap.StoreHits - ph.snapFrom[0]
	executions := snap.Executions - ph.snapFrom[1]
	res.addPercentile("engine.exec_p50_ms", execs, 0.5, "ms")
	res.addPercentile("engine.exec_p95_ms", execs, 0.95, "ms")
	res.addPercentile("engine.wait_p50_ms", waits, 0.5, "ms")
	res.add("engine.executions", float64(executions), "count")
	res.add("engine.hit_ratio", ratio(float64(hits), float64(hits+executions)), "ratio")
	res.add("engine.tail_idle_pct", tailIdlePct(spans, ph.from, ph.to, cfg.workers), "%")
	res.add("engine.longest_run_s", longest, "s")
	res.addPercentile("service.queue_wait_p50_ms", queue, 0.5, "ms")
	res.addPercentile("service.queue_wait_p99_ms", queue, 0.99, "ms")
	res.addPercentile("service.run_p50_ms", run, 0.5, "ms")
	res.add("service.rejected", float64(rejected), "count")
	// The p99 is reported here, unbounded: on a 2-core host its spread over
	// ten seeds (0.42 of its median, set by fsync outliers on cold jobs'
	// store writes) exceeds any bound an end-to-end metric may have.
	ref := ph.step(refStep())
	res.addPercentile("job_p99_ms", ref.lat, 0.99, "ms")
	res.addPercentile("http.submit_p50_ms", submit, 0.5, "ms")
	res.addPercentile("http.submit_p99_ms", submit, 0.99, "ms")
	res.addPercentile("http.poll_p50_ms", polls, 0.5, "ms")
	res.addTiming("http.polls_per_job", ratio(float64(pollCount), float64(len(submit))), "polls/job", len(submit))
	var late []float64
	for _, jobs := range ph.pop.steps {
		for _, j := range jobs {
			late = append(late, ms(j.late))
		}
	}
	res.addPercentile("loadgen.late_p99_ms", late, 0.99, "ms")
}

func (ph *servePhase) ladderSummary() string {
	var b bytes.Buffer
	for i, st := range ladder {
		s := ph.step(i)
		fmt.Fprintf(&b, "[%g/s: %d jobs, p50 %.1fms p95 %.1fms p99 %.1fms, drain %.0fms, %.1f jobs/s, %d failed] ",
			st.rate, len(ph.pop.steps[i]), median(s.lat), percentile(s.lat, 0.95), percentile(s.lat, 0.99), ms(s.drain), s.rate, s.failed)
	}
	return b.String()
}

// copyStore copies the store directory's files into dst.
func copyStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
