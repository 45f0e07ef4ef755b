package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// sample is one CPU-profile stack with its sample count; frames run from
// the leaf outwards, inlined frames included.
type sample struct {
	count  int
	frames []string
}

// startProfile starts the runtime CPU profiler writing to path. The
// returned stop function ends the profile and closes the file.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// readProfile decodes a CPU profile through the installed toolchain's
// `go tool pprof -raw`, so the module needs no profile-format dependency.
func readProfile(path string) ([]sample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw: %v: %s", err, stderr.String())
	}
	return parseRaw(strings.NewReader(string(out)))
}

// parseRaw parses `go tool pprof -raw` output: a Samples section of
// "count value: loc loc ..." lines (leaf location first) and a Locations
// section of "id: addr M=n func file:line s=n" lines, where indented
// continuation lines name the callers inlined into the same location.
func parseRaw(r io.Reader) ([]sample, error) {
	type rawSample struct {
		count int
		locs  []int
	}
	var (
		raws    []rawSample
		locs    = map[int][]string{}
		section string
		cur     = -1
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "Samples:" || trimmed == "Locations" || trimmed == "Mappings":
			section = trimmed
			continue
		case trimmed == "":
			continue
		}
		switch section {
		case "Samples:":
			head, ids, ok := strings.Cut(trimmed, ":")
			if !ok {
				continue // the column header, or a label line
			}
			fields := strings.Fields(head)
			if len(fields) == 0 {
				continue
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil {
				continue
			}
			s := rawSample{count: n}
			for _, f := range strings.Fields(ids) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("pprof -raw: bad location %q in %q", f, line)
				}
				s.locs = append(s.locs, id)
			}
			raws = append(raws, s)
		case "Locations":
			fields := strings.Fields(trimmed)
			id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":"))
			if err != nil || !strings.HasSuffix(fields[0], ":") {
				// Continuation: a caller inlined into the current location.
				if cur >= 0 {
					locs[cur] = append(locs[cur], fields[0])
				}
				continue
			}
			cur = id
			// fields: id: addr M=n func file:line s=n; a location without
			// symbols has no function name.
			if len(fields) >= 4 && strings.HasPrefix(fields[2], "M=") {
				locs[id] = append(locs[id], fields[3])
			} else {
				locs[id] = append(locs[id], "?")
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		s := sample{count: rs.count}
		for _, id := range rs.locs {
			s.frames = append(s.frames, locs[id]...)
		}
		out = append(out, s)
	}
	return out, nil
}

// layerOf maps a package path to the benchmark layer that owns it.
var layerOf = map[string]string{
	"crowdram/internal/cpu":         "cpu",
	"crowdram/internal/cache":       "cache",
	"crowdram/internal/prefetch":    "cache",
	"crowdram/internal/ctrl":        "ctrl",
	"crowdram/internal/dram":        "dram",
	"crowdram/internal/core":        "core",
	"crowdram/internal/tldram":      "core",
	"crowdram/internal/salp":        "core",
	"crowdram/internal/chargecache": "core",
	"crowdram/internal/retention":   "core",
	"crowdram/internal/sim":         "sim",
	"crowdram/internal/trace":       "trace",
	"crowdram/internal/hammer":      "hammer",
	"crowdram/internal/oracle":      "oracle",
	"crowdram/internal/engine":      "engine",
	"crowdram/internal/store":       "store",
	"crowdram/internal/service":     "service",
	"net":                           "nethttp",
	"net/http":                      "nethttp",
	"encoding/json":                 "json",
}

// selfLayers is the order of the <layer>.self_pct metrics; runtime.gc_pct
// and other.self_pct complete the partition.
var selfLayers = []string{"cpu", "cache", "ctrl", "dram", "core", "sim", "trace", "hammer",
	"oracle", "engine", "store", "service", "nethttp", "json"}

// Inclusive shares: samples with the function anywhere on the stack.
const (
	fnServiceRefresh = "crowdram/internal/ctrl.(*Controller).serviceRefresh"
	fnTickSchedule   = "crowdram/internal/ctrl.(*Controller).TickSchedule"
	fnOpenScan       = "crowdram/internal/dram.(*Channel).OpenSubarraysAppend"
	fnSimNew         = "crowdram/internal/sim.New"
)

// gcFrames prefixes the runtime functions that allocate or collect; a
// runtime leaf under one of them counts as runtime.gc_pct.
var gcFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.makemap", "runtime.growslice", "runtime.gc", "runtime.GC",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
	"runtime.sweepone", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan)"}

// pkgOf returns the package path of a symbolized Go function name, e.g.
// "crowdram/internal/engine" for
// "crowdram/internal/engine.(*Pool[go.shape.struct {...}]).Do".
func pkgOf(fn string) string {
	// Drop generic instantiations, whose shapes may contain dots and slashes.
	var b strings.Builder
	depth := 0
	for _, c := range fn {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	s := b.String()
	slash := strings.LastIndex(s, "/")
	if dot := strings.Index(s[slash+1:], "."); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// attribute turns profile samples into the host-time share metrics: each
// sample's leaf package names its layer (self shares, which partition 100%
// together with runtime.gc_pct and other.self_pct), and the inclusive
// shares count samples with a given function anywhere on the stack.
func attribute(samples []sample) []metric {
	self := map[string]int{}
	var total, gc, refresh, schedule, openScan, setup int
	for _, s := range samples {
		total += s.count
		if len(s.frames) == 0 {
			self["other"] += s.count
			continue
		}
		leaf := pkgOf(s.frames[0])
		switch layer, ok := layerOf[leaf]; {
		case ok:
			self[layer] += s.count
		case isRuntime(leaf) && anyFramePrefix(s.frames, gcFrames):
			gc += s.count
		default:
			self["other"] += s.count
		}
		inRefresh := hasFrame(s.frames, fnServiceRefresh)
		if inRefresh {
			refresh += s.count
		}
		if hasFrame(s.frames, fnTickSchedule) && !inRefresh {
			schedule += s.count
		}
		if hasFrame(s.frames, fnOpenScan) {
			openScan += s.count
		}
		if hasFrame(s.frames, fnSimNew) {
			setup += s.count
		}
	}
	pct := func(n int) float64 { return 100 * ratio(float64(n), float64(total)) }
	var out []metric
	for _, l := range selfLayers {
		out = append(out, metric{name: l + ".self_pct", value: pct(self[l]), unit: "%", n: total})
	}
	out = append(out,
		metric{name: "runtime.gc_pct", value: pct(gc), unit: "%", n: total},
		metric{name: "other.self_pct", value: pct(self["other"]), unit: "%", n: total},
		metric{name: "ctrl.refresh_pct", value: pct(refresh), unit: "%", n: total},
		metric{name: "ctrl.schedule_pct", value: pct(schedule), unit: "%", n: total},
		metric{name: "dram.open_scan_pct", value: pct(openScan), unit: "%", n: total},
		metric{name: "sim.setup_pct", value: pct(setup), unit: "%", n: total},
	)
	return out
}

func hasFrame(frames []string, fn string) bool {
	for _, f := range frames {
		if f == fn {
			return true
		}
	}
	return false
}

func anyFramePrefix(frames []string, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}
