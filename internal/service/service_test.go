package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdram/crow"
	"crowdram/internal/exp"
)

// testHook is a controllable context-aware run executor: runs block until
// released (or their context is cancelled) and every execution is counted.
type testHook struct {
	mu       sync.Mutex
	execs    atomic.Int64
	blocked  map[string]chan struct{} // workload → release channel
	started  chan string              // workload names, in execution order
	blockAll bool
}

func newTestHook(blockAll bool) *testHook {
	return &testHook{
		blocked:  make(map[string]chan struct{}),
		started:  make(chan string, 64),
		blockAll: blockAll,
	}
}

// release unblocks every current and future run of the workload.
func (h *testHook) release(workload string) {
	close(h.gate(workload))
}

func (h *testHook) gate(workload string) chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.blocked[workload]
	if !ok {
		g = make(chan struct{})
		h.blocked[workload] = g
	}
	return g
}

func (h *testHook) run(ctx context.Context, o crow.Options) (crow.Report, error) {
	h.execs.Add(1)
	name := strings.Join(o.Workloads, "+")
	select {
	case h.started <- name:
	default:
	}
	if h.blockAll {
		select {
		case <-h.gate(name):
		case <-ctx.Done():
			return crow.Report{}, ctx.Err()
		}
	}
	rep := crow.Report{
		Mechanism: o.Mechanism,
		IPC:       make([]float64, len(o.Workloads)),
		MPKI:      make([]float64, len(o.Workloads)),
		EnergyNJ:  crow.EnergyBreakdown{Read: 1},
	}
	for i := range rep.IPC {
		rep.IPC[i] = 1
		rep.MPKI[i] = 10
	}
	return rep, nil
}

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Scale.Insts == 0 {
		cfg.Scale = exp.QuickScale()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &st)
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (fatal on timeout or on
// reaching a different terminal state).
func waitState(t *testing.T, ts *httptest.Server, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return Status{}
}

const mcfCache = `{"options": {"Mechanism": "crow-cache", "Workloads": ["mcf"]}}`

func TestSubmitRunGet(t *testing.T) {
	hook := newTestHook(false)
	_, ts := newTestService(t, Config{Run: hook.run})
	st, resp := postJob(t, ts, mcfCache)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit returned %+v", st)
	}
	done := waitState(t, ts, st.ID, StateDone)
	if done.Result == nil || done.Result.Report == nil {
		t.Fatal("done job must carry a report")
	}
	if done.Result.Report.Mechanism != crow.Cache || done.Result.Report.IPC[0] != 1 {
		t.Errorf("report = %+v", done.Result.Report)
	}
	if done.Started == nil || done.Finished == nil {
		t.Error("done job must carry started/finished timestamps")
	}
}

// TestConcurrentDedup is the headline acceptance test: two concurrent
// submissions with identical Options execute once on the engine
// (singleflight as cross-request cache) and both jobs complete with
// identical results.
func TestConcurrentDedup(t *testing.T) {
	hook := newTestHook(true)
	s, ts := newTestService(t, Config{Run: hook.run, Workers: 2})

	a, _ := postJob(t, ts, mcfCache)
	b, _ := postJob(t, ts, mcfCache)
	// Both jobs must be running (one executing, one coalesced on the
	// same in-flight engine entry) before the run is released.
	waitState(t, ts, a.ID, StateRunning)
	waitState(t, ts, b.ID, StateRunning)
	hook.release("mcf")

	sa := waitState(t, ts, a.ID, StateDone)
	sb := waitState(t, ts, b.ID, StateDone)
	if n := hook.execs.Load(); n != 1 {
		t.Errorf("identical concurrent submissions must execute once, got %d", n)
	}
	ja, _ := json.Marshal(sa.Result)
	jb, _ := json.Marshal(sb.Result)
	if !bytes.Equal(ja, jb) {
		t.Errorf("deduped results differ:\n  %s\n  %s", ja, jb)
	}
	if snap := s.EngineSnapshot(); snap.Executions != 1 || snap.CacheHits < 1 {
		t.Errorf("engine snapshot = %+v, want 1 execution and >=1 cache hit", snap)
	}
	// A third, later submission is a warm cache hit.
	c, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, c.ID, StateDone)
	if n := hook.execs.Load(); n != 1 {
		t.Errorf("warm resubmission must not re-execute, got %d executions", n)
	}
}

// TestCancelMidRun: DELETE of a running job stops the underlying run
// promptly (the context-aware hook observes cancellation), the job goes
// terminal 'cancelled', and the memo cache is not poisoned — an identical
// resubmission re-executes and succeeds.
func TestCancelMidRun(t *testing.T) {
	hook := newTestHook(true)
	s, ts := newTestService(t, Config{Run: hook.run})
	st, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, st.ID, StateRunning)
	select {
	case <-hook.started:
	case <-time.After(5 * time.Second):
		t.Fatal("run never started")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	got := waitState(t, ts, st.ID, StateCancelled)
	if got.Result != nil {
		t.Error("cancelled job must not carry a result")
	}

	// Cancelling an already-terminal job stays terminal 'cancelled'.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, _ = http.DefaultClient.Do(req)
	var again Status
	json.NewDecoder(resp.Body).Decode(&again)
	resp.Body.Close()
	if again.State != StateCancelled {
		t.Errorf("re-cancel state = %q", again.State)
	}

	// The cache must not hold the interrupted run: resubmit, release, and
	// expect a fresh, successful execution.
	hook.release("mcf")
	st2, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, st2.ID, StateDone)
	if n := hook.execs.Load(); n != 2 {
		t.Errorf("resubmission after cancel must re-execute (executions = %d, want 2)", n)
	}
	if snap := s.EngineSnapshot(); snap.Failures != 1 {
		t.Errorf("engine must count the cancelled run as a failure: %+v", snap)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	hook := newTestHook(true)
	_, ts := newTestService(t, Config{Run: hook.run, Workers: 1})
	blocker, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, blocker.ID, StateRunning)
	queued, _ := postJob(t, ts, `{"options": {"Mechanism": "crow-ref", "Workloads": ["lbm"]}}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("queued job must cancel immediately, state = %q", st.State)
	}
	hook.release("mcf")
	waitState(t, ts, blocker.ID, StateDone)
	if n := hook.execs.Load(); n != 1 {
		t.Errorf("cancelled queued job must never execute (executions = %d)", n)
	}
}

// TestAdmissionControl: a full queue rejects with 503 + Retry-After.
func TestAdmissionControl(t *testing.T) {
	hook := newTestHook(true)
	_, ts := newTestService(t, Config{Run: hook.run, Workers: 1, QueueDepth: 1})
	running, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, running.ID, StateRunning)
	// Queue slot 1: admitted. Queue now full.
	q1, resp := postJob(t, ts, `{"options": {"Workloads": ["lbm"]}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submission: %d", resp.StatusCode)
	}
	_, resp = postJob(t, ts, `{"options": {"Workloads": ["gcc"]}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submission = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 must carry Retry-After")
	}
	hook.release("mcf")
	hook.release("lbm")
	waitState(t, ts, running.ID, StateDone)
	waitState(t, ts, q1.ID, StateDone)
}

// TestPriorityOrdering: with one worker, a higher-priority submission
// overtakes an earlier lower-priority one.
func TestPriorityOrdering(t *testing.T) {
	hook := newTestHook(true)
	_, ts := newTestService(t, Config{Run: hook.run, Workers: 1})
	blocker, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, blocker.ID, StateRunning)
	<-hook.started
	low, _ := postJob(t, ts, `{"options": {"Workloads": ["lbm"]}, "priority": 1}`)
	high, _ := postJob(t, ts, `{"options": {"Workloads": ["gcc"]}, "priority": 9}`)
	hook.release("mcf")
	hook.release("lbm")
	hook.release("gcc")
	waitState(t, ts, low.ID, StateDone)
	waitState(t, ts, high.ID, StateDone)
	order := []string{<-hook.started, <-hook.started}
	if order[0] != "gcc" || order[1] != "lbm" {
		t.Errorf("execution order = %v, want [gcc lbm] (priority before FIFO)", order)
	}
}

// TestDrain: during drain, inflight jobs finish, new submissions get 503,
// healthz flips to 503, and Drain returns cleanly.
func TestDrain(t *testing.T) {
	hook := newTestHook(true)
	s := New(Config{Run: hook.run, Scale: exp.QuickScale()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, st.ID, StateRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Drain must reject new work while the inflight job keeps running.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	_, resp := postJob(t, ts, `{"options": {"Workloads": ["lbm"]}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain = %d, want 503", resp.StatusCode)
	}
	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", hResp.StatusCode)
	}

	hook.release("mcf")
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := getStatus(t, ts, st.ID); got.State != StateDone {
		t.Errorf("inflight job after drain = %q, want done", got.State)
	}
}

// TestDrainForceCancelsStragglers: an expired drain context cancels what is
// still running instead of hanging.
func TestDrainForceCancelsStragglers(t *testing.T) {
	hook := newTestHook(true) // never released
	s := New(Config{Run: hook.run, Scale: exp.QuickScale()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, st.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain err = %v", err)
	}
	if got := getStatus(t, ts, st.ID); !got.State.Terminal() {
		t.Errorf("straggler after forced drain = %q, want terminal", got.State)
	}
}

func TestNamedExperimentJob(t *testing.T) {
	hook := newTestHook(false)
	_, ts := newTestService(t, Config{Run: hook.run})
	// table1 is analytic: no simulations, result is its table.
	st, resp := postJob(t, ts, `{"experiment": "table1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	done := waitState(t, ts, st.ID, StateDone)
	if done.Result == nil || len(done.Result.Tables) != 1 {
		t.Fatalf("experiment job result = %+v", done.Result)
	}
	if done.Result.Tables[0].Title == "" || len(done.Result.Tables[0].Rows) == 0 {
		t.Errorf("table is empty: %+v", done.Result.Tables[0])
	}
	if n := hook.execs.Load(); n != 0 {
		t.Errorf("analytic experiment must run no simulations, ran %d", n)
	}
}

func TestSimulationExperimentJob(t *testing.T) {
	hook := newTestHook(false)
	s, ts := newTestService(t, Config{Run: hook.run, EngineWorkers: 4})
	st, _ := postJob(t, ts, `{"experiment": "fig8"}`)
	done := waitState(t, ts, st.ID, StateDone)
	if done.Result == nil || len(done.Result.Tables) != 1 {
		t.Fatalf("fig8 result = %+v", done.Result)
	}
	if hook.execs.Load() == 0 {
		t.Error("sim experiment must execute runs")
	}
	// The job's event log must show engine progress for its plan.
	evs, _, _ := mustGetJob(t, s, st.ID).EventsSince(0)
	var runEvents int
	for _, e := range evs {
		if e.Kind == KindRun {
			runEvents++
		}
	}
	if runEvents == 0 {
		t.Error("experiment job must record run progress events")
	}
}

// TestHammerJob pins the served RowHammer path: a job carrying the attack
// and mitigation knobs decodes into Options that reach the run executor
// intact, and a misspelled mitigation (knob or value) is rejected at submit
// time, before anything queues.
func TestHammerJob(t *testing.T) {
	var got crow.Options
	run := func(ctx context.Context, o crow.Options) (crow.Report, error) {
		got = o
		return crow.Report{IPC: []float64{1}}, nil
	}
	_, ts := newTestService(t, Config{Run: run})
	st, resp := postJob(t, ts, `{"options": {
		"Workloads": ["hammer-double"], "Translation": "rowstripe",
		"Mitigation": "para", "ParaPerMille": 100,
		"FlipHCFirst": 512, "FlipBlastPct": 30, "MaxMeasureCycles": 10000000}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	waitState(t, ts, st.ID, StateDone)
	if got.Mitigation != "para" || got.ParaPerMille != 100 ||
		got.FlipHCFirst != 512 || got.FlipBlastPct != 30 ||
		got.Translation != "rowstripe" || got.MaxMeasureCycles != 10_000_000 {
		t.Errorf("options lost fields in flight: %+v", got)
	}
	for name, body := range map[string]string{
		"misspelled knob":    `{"options": {"Workloads": ["hammer-double"], "Mitigaton": "para"}}`,
		"unknown mitigation": `{"options": {"Workloads": ["hammer-double"], "Mitigation": "parra"}}`,
		"para out of range":  `{"options": {"Mitigation": "para", "ParaPerMille": 5000}}`,
		"crow-hammer sans crow": `{"options": {"Mechanism": "baseline",
			"Mitigation": "crow-hammer"}}`,
	} {
		if _, resp := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestHammerLabExperimentJob: the flips-vs-overhead sweep is servable by
// name like any registry experiment.
func TestHammerLabExperimentJob(t *testing.T) {
	hook := newTestHook(false)
	_, ts := newTestService(t, Config{Run: hook.run, EngineWorkers: 4})
	st, resp := postJob(t, ts, `{"experiment": "hammerlab"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	done := waitState(t, ts, st.ID, StateDone)
	if done.Result == nil || len(done.Result.Tables) != 1 {
		t.Fatalf("hammerlab result = %+v", done.Result)
	}
	if hook.execs.Load() == 0 {
		t.Error("hammerlab must execute simulations")
	}
}

func mustGetJob(t *testing.T, s *Service, id string) *Job {
	t.Helper()
	j, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestEventStream: the SSE endpoint replays queued→running→run
// progress→done and closes at the terminal event.
func TestEventStream(t *testing.T) {
	hook := newTestHook(true)
	_, ts := newTestService(t, Config{Run: hook.run})
	st, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, st.ID, StateRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	hook.release("mcf")

	var states []State
	var runTypes []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() { // the server closes the stream at the terminal event
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		switch e.Kind {
		case KindState:
			states = append(states, e.State)
		case KindRun:
			runTypes = append(runTypes, e.Run.Type)
		}
	}
	wantStates := []State{StateQueued, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(wantStates) {
		t.Errorf("state events = %v, want %v", states, wantStates)
	}
	joined := strings.Join(runTypes, ",")
	if !strings.Contains(joined, "started") || !strings.Contains(joined, "finished") {
		t.Errorf("run events = %v, want started and finished", runTypes)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestService(t, Config{Run: newTestHook(false).run})
	cases := []struct {
		name, body string
	}{
		{"neither selector", `{}`},
		{"both selectors", `{"experiment": "fig8", "options": {"Workloads": ["mcf"]}}`},
		{"unknown experiment", `{"experiment": "fig99"}`},
		{"unknown options field", `{"options": {"CopyRowz": 8}}`},
		{"bad workload", `{"options": {"Workloads": ["nope"]}}`},
		{"bad mechanism", `{"options": {"Mechanism": "warp-drive"}}`},
		{"unknown spec field", `{"optionz": {}}`},
		{"negative timeout", `{"experiment": "table1", "timeout_ms": -5}`},
		{"not json", `hello`},
	}
	for _, c := range cases {
		_, resp := postJob(t, ts, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, resp.StatusCode)
		}
	}
	// Unknown job IDs are 404 on every job route.
	for _, req := range []*http.Request{
		mustReq(t, http.MethodGet, ts.URL+"/v1/jobs/nope"),
		mustReq(t, http.MethodGet, ts.URL+"/v1/jobs/nope/events"),
		mustReq(t, http.MethodDelete, ts.URL+"/v1/jobs/nope"),
	} {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", req.Method, req.URL.Path, resp.StatusCode)
		}
	}
}

func mustReq(t *testing.T, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestJobTimeout(t *testing.T) {
	hook := newTestHook(true) // never released: job must die by deadline
	_, ts := newTestService(t, Config{Run: hook.run})
	st, _ := postJob(t, ts, `{"options": {"Workloads": ["mcf"]}, "timeout_ms": 40}`)
	got := waitState(t, ts, st.ID, StateFailed)
	if !strings.Contains(got.Error, "deadline") {
		t.Errorf("timeout error = %q, want deadline mention", got.Error)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	hook := newTestHook(false)
	_, ts := newTestService(t, Config{Run: hook.run, Workers: 2, QueueDepth: 7})
	st, _ := postJob(t, ts, mcfCache)
	waitState(t, ts, st.ID, StateDone)
	st2, _ := postJob(t, ts, mcfCache) // warm cache hit
	waitState(t, ts, st2.ID, StateDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Queue.Capacity != 7 || m.Workers.Total != 2 {
		t.Errorf("config gauges = %+v", m)
	}
	if m.Engine.Executions != 1 || m.Engine.CacheHits != 1 || m.Engine.HitRatio != 0.5 {
		t.Errorf("engine metrics = %+v, want 1 execution, 1 hit, ratio 0.5", m.Engine)
	}
	if m.Jobs[StateDone] != 2 {
		t.Errorf("job counts = %v", m.Jobs)
	}
	post := m.HTTP["POST /v1/jobs"]
	if post.Count != 2 || post.MaxMS <= 0 {
		t.Errorf("POST latency stats = %+v", post)
	}
	if m.HTTP["GET /v1/jobs/{id}"].Count == 0 {
		t.Error("GET job latency must be tracked")
	}
}

func TestListJobs(t *testing.T) {
	hook := newTestHook(false)
	_, ts := newTestService(t, Config{Run: hook.run})
	a, _ := postJob(t, ts, mcfCache)
	b, _ := postJob(t, ts, `{"experiment": "table1"}`)
	waitState(t, ts, a.ID, StateDone)
	waitState(t, ts, b.ID, StateDone)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != b.ID || list[1].ID != a.ID {
		t.Errorf("list = %+v, want newest first", list)
	}
}
