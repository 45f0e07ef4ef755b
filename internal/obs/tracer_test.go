package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"crowdram/internal/core"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
)

func testShape() (dram.Geometry, dram.Timing) {
	g := dram.Std(8)
	return g, dram.LPDDR4(dram.Density8Gb, 64, g)
}

func cmdEvent(cycle int64, cmd dram.Command, bank int) dram.CmdEvent {
	e := dram.CmdEvent{Cmd: cmd, Cycle: cycle, CopyRow: -1}
	e.Addr = dram.Addr{Bank: bank, Row: 7}
	if cmd.IsACT() {
		e.Plan = dram.ActTimings{RCD: 29, RAS: 67, RASFull: 67, WR: 29}
	}
	return e
}

// TestTracerRingOverwrite: the ring keeps exactly the newest `cap` events,
// counts the overwritten ones, and replays in record order.
func TestTracerRingOverwrite(t *testing.T) {
	g, tm := testShape()
	tr := NewTracer(4, g, tm)
	for i := 0; i < 10; i++ {
		tr.Command(cmdEvent(int64(i), dram.CmdRD, 0))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("Total/Dropped = %d/%d, want 10/6", tr.Total(), tr.Dropped())
	}
	var cycles []int64
	tr.Events(func(e Event) { cycles = append(cycles, e.Cycle) })
	want := []int64{6, 7, 8, 9}
	for i, c := range cycles {
		if c != want[i] {
			t.Fatalf("replay cycles = %v, want %v", cycles, want)
		}
	}
}

// TestTracerNoAllocationSteadyState: once the ring is full, recording must
// not allocate (the tracer sits on the simulation hot path).
func TestTracerNoAllocationSteadyState(t *testing.T) {
	g, tm := testShape()
	tr := NewTracer(64, g, tm)
	ev := cmdEvent(0, dram.CmdRD, 0)
	for i := 0; i < 128; i++ {
		tr.Command(ev)
	}
	avg := testing.AllocsPerRun(1000, func() { tr.Command(ev) })
	if avg != 0 {
		t.Fatalf("Command allocates %.1f per call in steady state, want 0", avg)
	}
}

// chromeTrace mirrors the exported JSON for parsing in tests.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		Recorded int64 `json:"recorded"`
		Dropped  int64 `json:"dropped"`
	} `json:"otherData"`
	TraceEvents []struct {
		Ph   string          `json:"ph"`
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		Ts   float64         `json:"ts"`
		Dur  float64         `json:"dur"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

// TestWriteChromeTrace: the export is valid JSON in the trace-event format,
// commands land on per-bank tracks with metadata names, scheduler decisions
// and table events land on track 0 as instants, and timestamps convert at
// 0.625 ns per DRAM cycle.
func TestWriteChromeTrace(t *testing.T) {
	g, tm := testShape()
	tr := NewTracer(100, g, tm)
	tr.Command(cmdEvent(100, dram.CmdACT, 2))
	tr.Command(cmdEvent(160, dram.CmdACTt, 3))
	tr.Sched(ctrl.SchedEvent{Kind: ctrl.SchedRowHit, Cycle: 170,
		Addr: dram.Addr{Bank: 2, Row: 7}, ReadQ: 5, WriteQ: 1})
	tr.Table(core.TableEvent{Kind: core.TableHit, Cycle: 160,
		Addr: dram.Addr{Bank: 3, Row: 7}, Way: 2})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if ct.OtherData.Recorded != 4 || ct.OtherData.Dropped != 0 {
		t.Fatalf("otherData = %+v", ct.OtherData)
	}

	byName := map[string][]int{} // name -> tids
	meta := map[int]string{}     // tid -> thread name
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				var args struct {
					Name string `json:"name"`
				}
				json.Unmarshal(e.Args, &args)
				meta[e.Tid] = args.Name
			}
		case "X", "i":
			byName[e.Name] = append(byName[e.Name], e.Tid)
		}
	}

	actTids, ok := byName["ACT"]
	if !ok {
		t.Fatal("no ACT event in export")
	}
	if want := 1 + 2; actTids[0] != want || meta[actTids[0]] != "rank0 bank2" {
		t.Fatalf("ACT on tid %d (%q), want %d (rank0 bank2)", actTids[0], meta[actTids[0]], want)
	}
	acttTids, ok := byName["ACT-t"]
	if !ok {
		t.Fatal("no ACT-t event in export")
	}
	if want := 1 + 3; acttTids[0] != want || meta[acttTids[0]] != "rank0 bank3" {
		t.Fatalf("ACT-t on tid %d (%q)", acttTids[0], meta[acttTids[0]])
	}
	if tids := byName["row-hit"]; len(tids) != 1 || tids[0] != 0 {
		t.Fatalf("row-hit events on tids %v, want [0]", tids)
	}
	if tids := byName["crow-hit"]; len(tids) != 1 || tids[0] != 0 {
		t.Fatalf("crow-hit events on tids %v, want [0]", tids)
	}
	if meta[0] != "scheduler" {
		t.Fatalf("track 0 named %q, want scheduler", meta[0])
	}

	// Timestamp conversion: cycle 100 at 0.625 ns/cycle = 62.5 ns = 0.0625 us.
	for _, e := range ct.TraceEvents {
		if e.Ph == "X" && e.Name == "ACT" {
			if e.Ts != 0.0625 {
				t.Fatalf("ACT ts = %v us, want 0.0625", e.Ts)
			}
			// The writer rounds timestamps to 4 decimal places.
			wantDur := float64(67) * 0.625 / 1000
			if diff := e.Dur - wantDur; diff > 5e-5 || diff < -5e-5 {
				t.Fatalf("ACT dur = %v us, want %v (tRAS)", e.Dur, wantDur)
			}
		}
	}
}

// TestWriteChromeTraceDeterministic: two exports of the same ring are
// byte-identical (metadata ordering is sorted, not map-ordered).
func TestWriteChromeTraceDeterministic(t *testing.T) {
	g, tm := testShape()
	tr := NewTracer(100, g, tm)
	for ch := 0; ch < 4; ch++ {
		for b := 0; b < 8; b++ {
			e := cmdEvent(int64(ch*100+b), dram.CmdACT, b)
			e.Addr.Channel = ch
			tr.Command(e)
		}
	}
	var a, b bytes.Buffer
	if err := tr.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same ring differ")
	}
}

// BenchmarkTracerRecord measures ring-buffer recording throughput in
// steady state (events/sec = 1e9 / ns-per-op); BENCH_obs.json records it.
func BenchmarkTracerRecord(b *testing.B) {
	g, tm := testShape()
	tr := NewTracer(1<<16, g, tm)
	ev := cmdEvent(0, dram.CmdRD, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Command(ev)
	}
}
