// Package obs is the simulation-wide observability layer: a composable
// bundle of observers that attach to the DRAM channels (command stream),
// controllers (scheduler decisions), and CROW mechanism (table events) of
// one simulated system. It hosts two consumers that can run together — and
// together with the correctness oracle, now that dram.Channel fans commands
// out to every attached observer:
//
//   - Tracer: a bounded ring buffer of cycle-attributed events, exported as
//     Chrome/Perfetto trace-event JSON with banks as tracks (tracer.go).
//   - Telemetry: per-bank/per-rank interval counters — state residency,
//     row-buffer and CROW-table hit attribution, queue depths — snapshotted
//     every SnapshotEvery DRAM cycles with reset-on-snapshot semantics
//     (telemetry.go).
//
// An Observers value is configuration until Bind is called with the system
// geometry; sim.New binds it and attaches the per-channel adapters. Because
// crow.Options.Key() is the engine's memoization key, observability must not
// ride in Options: callers inject a bundle out of band via With/From on the
// run context (crow.RunContext extracts it into sim.Config.Obs).
package obs

import (
	"context"

	"crowdram/internal/core"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
)

// Observers bundles the observability consumers for one simulation run.
// The zero value is a fully disabled bundle; Bind on it is a no-op and all
// adapter constructors return nil, so sim attaches nothing and the hot path
// keeps its zero-observer cost.
//
// A bundle serves exactly one run: Bind captures that run's geometry and the
// counters/ring are not safe for concurrent runs.
type Observers struct {
	// TraceCapacity, when positive, enables the event tracer with a ring
	// buffer of this many slots (oldest events are overwritten).
	TraceCapacity int
	// SnapshotEvery, when positive, enables interval telemetry: counters
	// are snapshotted and reset every SnapshotEvery DRAM cycles.
	SnapshotEvery int64
	// OnSnapshot receives each interval snapshot, in order, on the
	// simulation goroutine. Snapshots are freshly allocated (safe to
	// retain), but the callback blocks the simulation, so keep it cheap —
	// the service forwards them to an append-only event log.
	OnSnapshot func(IntervalSnapshot)

	tracer *Tracer
	telem  *Telemetry

	nextSnap int64
}

// Enabled reports whether the bundle has any consumer configured.
func (o *Observers) Enabled() bool {
	return o != nil && (o.TraceCapacity > 0 || o.SnapshotEvery > 0)
}

// Bind instantiates the configured consumers for a system with the given
// channel count, geometry, and timing. sim.New calls it once per run.
func (o *Observers) Bind(channels int, geo dram.Geometry, t dram.Timing) {
	if o == nil {
		return
	}
	if o.TraceCapacity > 0 {
		o.tracer = NewTracer(o.TraceCapacity, geo, t)
	}
	if o.SnapshotEvery > 0 {
		o.telem = NewTelemetry(channels, geo, t)
		o.nextSnap = o.SnapshotEvery
	}
}

// Tracer returns the bound tracer, or nil when tracing is disabled.
func (o *Observers) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Telemetry returns the bound telemetry collector, or nil when disabled.
func (o *Observers) Telemetry() *Telemetry {
	if o == nil {
		return nil
	}
	return o.telem
}

// cmdAdapter stamps the channel (REF/REFpb events carry no Channel in their
// Addr) and forwards one channel's command stream to the bound consumers.
type cmdAdapter struct {
	o  *Observers
	ch int
}

func (a cmdAdapter) OnCommand(e dram.CmdEvent) {
	e.Addr.Channel = a.ch
	if t := a.o.tracer; t != nil {
		t.Command(e)
	}
	if m := a.o.telem; m != nil {
		m.Command(e)
	}
}

// CommandObserver returns the command-stream adapter for one channel, or
// nil when no consumer wants commands (callers skip Attach on nil).
func (o *Observers) CommandObserver(ch int) dram.CommandObserver {
	if o == nil || (o.tracer == nil && o.telem == nil) {
		return nil
	}
	return cmdAdapter{o: o, ch: ch}
}

// schedAdapter forwards one controller's scheduler decisions.
type schedAdapter struct {
	o  *Observers
	ch int
}

func (a schedAdapter) OnSched(e ctrl.SchedEvent) {
	e.Addr.Channel = a.ch
	if t := a.o.tracer; t != nil {
		t.Sched(e)
	}
	if m := a.o.telem; m != nil {
		m.Sched(e)
	}
}

// SchedObserver returns the scheduler-decision adapter for one channel, or
// nil when no consumer wants decisions.
func (o *Observers) SchedObserver(ch int) ctrl.SchedObserver {
	if o == nil || (o.tracer == nil && o.telem == nil) {
		return nil
	}
	return schedAdapter{o: o, ch: ch}
}

// tableAdapter forwards CROW-table events (already channel-attributed).
type tableAdapter struct{ o *Observers }

func (a tableAdapter) OnTableEvent(e core.TableEvent) {
	if t := a.o.tracer; t != nil {
		t.Table(e)
	}
	if m := a.o.telem; m != nil {
		m.Table(e)
	}
}

// TableObserver returns the CROW-table adapter, or nil when no consumer
// wants table events.
func (o *Observers) TableObserver() core.TableObserver {
	if o == nil || (o.tracer == nil && o.telem == nil) {
		return nil
	}
	return tableAdapter{o: o}
}

// NextSnapshot returns the DRAM cycle of the next due interval snapshot, or
// 0 when interval telemetry is disabled. The simulation loop compares its
// cycle against this instead of calling into obs every tick.
func (o *Observers) NextSnapshot() int64 {
	if o == nil || o.telem == nil {
		return 0
	}
	return o.nextSnap
}

// TakeSnapshot cuts an interval at the given cycle: the telemetry counters
// are snapshotted, delivered to OnSnapshot, and reset. The next due cycle
// advances by whole intervals past `cycle` (idle skipping can jump the clock
// across several boundaries; they collapse into one snapshot covering the
// skipped span, which is exact — skipped cycles issue no commands).
func (o *Observers) TakeSnapshot(cycle int64) {
	if o == nil || o.telem == nil {
		return
	}
	s := o.telem.Snapshot(cycle)
	for o.nextSnap <= cycle {
		o.nextSnap += o.SnapshotEvery
	}
	if o.OnSnapshot != nil {
		o.OnSnapshot(s)
	}
}

// Finish flushes a trailing partial interval at the end of a run (no-op when
// telemetry is disabled or the interval is empty).
func (o *Observers) Finish(cycle int64) {
	if o == nil || o.telem == nil {
		return
	}
	if s := o.telem.Snapshot(cycle); !s.Empty() {
		if o.OnSnapshot != nil {
			o.OnSnapshot(s)
		}
	}
}

// ctxKey is the context key for an injected Observers bundle.
type ctxKey struct{}

// With returns a context carrying the bundle. crow.RunContext extracts it
// with From, keeping observability out of crow.Options (whose JSON form is
// the engine's memoization key — two runs differing only in tracing are the
// same simulation and must share a cache entry).
func With(ctx context.Context, o *Observers) context.Context {
	return context.WithValue(ctx, ctxKey{}, o)
}

// From returns the bundle carried by ctx, or nil.
func From(ctx context.Context) *Observers {
	o, _ := ctx.Value(ctxKey{}).(*Observers)
	return o
}
