package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceOutEndToEnd is the observability acceptance test: a verified
// CROW-cache run with -trace-out produces valid Chrome trace-event JSON
// containing CROW's new activate commands (ACT-c copies, ACT-t dual
// activations) on per-bank tracks — with the correctness oracle attached to
// the very same run, proving tracer and oracle coexist on the fan-out.
func TestTraceOutEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-mech", "crow-cache", "-workloads", "mcf",
		"-insts", "20000", "-warmup", "2000",
		"-verify", "-trace-out", out,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run failed: %v\nstderr: %s", err, stderr.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("no trace written: %v", err)
	}
	var trace struct {
		OtherData struct {
			Recorded int64 `json:"recorded"`
			Dropped  int64 `json:"dropped"`
		} `json:"otherData"`
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.OtherData.Recorded == 0 {
		t.Fatal("trace recorded no events")
	}

	// Index the per-bank track names and collect command-event names/tracks.
	threadName := map[[2]int]string{} // {pid,tid} -> name
	cmdTracks := map[string][][2]int{}
	for _, e := range trace.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			threadName[[2]int{e.Pid, e.Tid}] = e.Args.Name
		case e.Ph == "X" && e.Cat == "cmd":
			cmdTracks[e.Name] = append(cmdTracks[e.Name], [2]int{e.Pid, e.Tid})
		}
	}
	for _, want := range []string{"ACT-c", "ACT-t"} {
		tracks, ok := cmdTracks[want]
		if !ok {
			t.Fatalf("no %s events in trace; commands seen: %v", want, keys(cmdTracks))
		}
		name := threadName[tracks[0]]
		if !strings.Contains(name, "bank") {
			t.Errorf("%s event on track %v named %q, want a per-bank track", want, tracks[0], name)
		}
	}
	banks := map[string]bool{}
	for _, name := range threadName {
		if strings.Contains(name, "bank") {
			banks[name] = true
		}
	}
	if len(banks) < 2 {
		t.Errorf("only %d bank tracks named, want several: %v", len(banks), banks)
	}

	// The verified run reported a clean oracle.
	if !strings.Contains(stdout.String(), "verification") {
		t.Errorf("report does not mention verification:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "events") {
		t.Errorf("stderr missing the trace summary line: %s", stderr.String())
	}
}

// TestTraceOutRejectsCompare: -trace-out traces a single run and must refuse
// -compare rather than silently attributing events to the wrong run.
func TestTraceOutRejectsCompare(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-compare", "-trace-out", filepath.Join(t.TempDir(), "x.json"),
	}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-compare") {
		t.Fatalf("err = %v, want a -trace-out/-compare rejection", err)
	}
}

// TestTraceCapMustBePositive: a non-positive ring capacity is a usage error,
// not a panic deep in the tracer.
func TestTraceCapMustBePositive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-trace-out", filepath.Join(t.TempDir(), "x.json"), "-trace-cap", "0",
	}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "trace-cap") {
		t.Fatalf("err = %v, want a -trace-cap validation error", err)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestLLCBytesFlagResolution pins the two-flag LLC sizing contract:
// -llc-kib, when positive, overrides the MiB-granular -llc (the RowHammer
// lab needs a 64 KiB cache no MiB value can express).
func TestLLCBytesFlagResolution(t *testing.T) {
	cases := []struct {
		mib, kib int
		want     int64
	}{
		{8, 0, 8 << 20},   // default: -llc alone
		{8, 64, 64 << 10}, // -llc-kib wins
		{1, 2048, 2 << 20},
		{3, -1, 3 << 20}, // non-positive KiB falls back to MiB
	}
	for _, c := range cases {
		if got := llcBytes(c.mib, c.kib); got != c.want {
			t.Errorf("llcBytes(%d, %d) = %d, want %d", c.mib, c.kib, got, c.want)
		}
	}
}
