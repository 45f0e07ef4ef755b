package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0
// for no samples. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond returns how many of n samples lie above the nearest-rank
// p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailPercentiles is the ladder a timing's tail is reported from.
var tailPercentiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// highestPercentile returns the highest percentile of the ladder that has
// at least ten of n samples beyond it, or 0 when even the median has fewer.
// A named tail metric (engine.exec_p95_ms, job_p99_ms) is only trustworthy when its
// percentile is at most this; the workloads size their runs to make it so.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssEvery is how often an rssWatch samples the resident set size.
const rssEvery = 5 * time.Millisecond

// rssWatch samples the process's resident set size from /proc/self/statm
// and keeps the largest value seen since it started or was last reset.
type rssWatch struct {
	mu   sync.Mutex
	peak int64 // pages
	stop chan struct{}
	done chan struct{}
}

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.sample()
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *rssWatch) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	w.mu.Lock()
	w.peak = max(w.peak, pages)
	w.mu.Unlock()
}

// reset returns memory the heap no longer uses to the OS and restarts the
// peak from the current resident set.
func (w *rssWatch) reset() {
	debug.FreeOSMemory()
	w.mu.Lock()
	w.peak = 0
	w.mu.Unlock()
	w.sample()
}

// peakMiB returns the largest resident set since the last reset, in MiB,
// including a sample taken now.
func (w *rssWatch) peakMiB() float64 {
	w.sample()
	w.mu.Lock()
	defer w.mu.Unlock()
	return float64(w.peak*int64(os.Getpagesize())) / (1 << 20)
}

// close stops the sampler and waits for it to end.
func (w *rssWatch) close() {
	close(w.stop)
	<-w.done
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// commit returns the VCS revision the binary was built from, when the build
// saw one (a checkout without .git has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// repeatSetup runs setup at least min times and until it has taken
// budget in total, and returns the last result and every duration in
// seconds. Set-up is repeated because a single set-up is too short to time
// stably; each starts from a collected heap, like every timed repetition.
func repeatSetup[T any](min int, budget time.Duration, setup func() (T, error)) (T, []float64, error) {
	var last T
	var times []float64
	start := time.Now()
	for len(times) < min || time.Since(start) < budget {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, times, nil
}
