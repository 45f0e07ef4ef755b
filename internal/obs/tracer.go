package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"crowdram/internal/core"
	"crowdram/internal/ctrl"
	"crowdram/internal/dram"
)

// EventClass distinguishes the three event streams a Tracer merges.
type EventClass uint8

// Event classes.
const (
	ClassCmd   EventClass = iota // a DRAM command on the bus
	ClassSched                   // a controller scheduling decision
	ClassTable                   // a CROW-table state change
)

// Event is one traced occurrence, fixed-size so the ring buffer records
// without allocating. Fields beyond Class/Cycle/Ch are class-specific.
type Event struct {
	Class EventClass
	Cycle int64
	Ch    int32

	// ClassCmd: the command, its address, and its duration in DRAM cycles
	// (derived from the timing plan, for trace-slice rendering).
	Cmd  dram.Command
	Rank int32
	Bank int32
	Row  int32
	Dur  int32

	// ClassSched / ClassTable: the decision or table-event kind, plus the
	// class-specific operands.
	Sub    uint8 // ctrl.SchedKind or core.TableEventKind
	Way    int32 // ClassTable: copy-row way, -1 if none
	ReadQ  int32 // ClassSched: read-queue depth at decision time
	WriteQ int32 // ClassSched: write-queue depth at decision time
}

// Tracer records cycle-attributed events into a bounded ring buffer:
// recording never allocates and never grows, the oldest events are
// overwritten once the ring is full, and the overwrite count is reported so
// a truncated export is never mistaken for a complete one. It is not
// goroutine-safe; the simulation drives it from its single loop goroutine.
type Tracer struct {
	buf   []Event
	next  int   // ring write index
	full  bool  // the ring has wrapped at least once
	total int64 // events ever recorded

	geo dram.Geometry
	t   dram.Timing
}

// NewTracer returns a tracer with the given ring capacity for a system with
// the given shape. Capacity must be positive.
func NewTracer(capacity int, geo dram.Geometry, t dram.Timing) *Tracer {
	if capacity <= 0 {
		panic("obs: tracer capacity must be positive")
	}
	return &Tracer{
		buf: make([]Event, 0, capacity),
		geo: geo, t: t,
	}
}

// record appends one event, overwriting the oldest once the ring is full.
func (t *Tracer) record(e Event) {
	t.total++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	t.full = true
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
}

// Command records one DRAM command. The event's duration is the command's
// bus/array occupancy from the timing plan: activates hold their slice for
// the plan's tRAS, column commands for latency+burst, PRE for tRP, and
// refreshes for tRFC/tRFCpb.
func (t *Tracer) Command(e dram.CmdEvent) {
	var dur int
	switch {
	case e.Cmd.IsACT():
		dur = e.Plan.RAS
	case e.Cmd == dram.CmdRD:
		dur = t.t.CL + t.t.BL
	case e.Cmd == dram.CmdWR:
		dur = t.t.CWL + t.t.BL
	case e.Cmd == dram.CmdPRE:
		dur = t.t.RP
	case e.Cmd == dram.CmdREF:
		dur = t.t.RFC
	case e.Cmd == dram.CmdREFpb:
		dur = t.t.RFCpb
	}
	t.record(Event{
		Class: ClassCmd, Cycle: e.Cycle, Ch: int32(e.Addr.Channel),
		Cmd: e.Cmd, Rank: int32(e.Addr.Rank), Bank: int32(e.Addr.Bank),
		Row: int32(e.Addr.Row), Dur: int32(dur),
	})
}

// Sched records one controller scheduling decision.
func (t *Tracer) Sched(e ctrl.SchedEvent) {
	t.record(Event{
		Class: ClassSched, Cycle: e.Cycle, Ch: int32(e.Addr.Channel),
		Sub: uint8(e.Kind), Rank: int32(e.Addr.Rank), Bank: int32(e.Addr.Bank),
		Row: int32(e.Addr.Row), ReadQ: int32(e.ReadQ), WriteQ: int32(e.WriteQ),
	})
}

// Table records one CROW-table event.
func (t *Tracer) Table(e core.TableEvent) {
	t.record(Event{
		Class: ClassTable, Cycle: e.Cycle, Ch: int32(e.Addr.Channel),
		Sub: uint8(e.Kind), Rank: int32(e.Addr.Rank), Bank: int32(e.Addr.Bank),
		Row: int32(e.Addr.Row), Way: int32(e.Way),
	})
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int { return len(t.buf) }

// Total returns the number of events ever recorded.
func (t *Tracer) Total() int64 { return t.total }

// Dropped returns how many recorded events were overwritten by newer ones.
func (t *Tracer) Dropped() int64 { return t.total - int64(len(t.buf)) }

// Events calls fn for every retained event in record order (oldest first).
func (t *Tracer) Events(fn func(Event)) {
	if t.full {
		for _, e := range t.buf[t.next:] {
			fn(e)
		}
		for _, e := range t.buf[:t.next] {
			fn(e)
		}
		return
	}
	for _, e := range t.buf {
		fn(e)
	}
}

// usPerCycle converts DRAM command cycles to Chrome trace timestamps
// (microseconds; fractional values are legal and Perfetto keeps the
// sub-microsecond precision) at the bound standard's command clock.
func (t *Tracer) usPerCycle() float64 { return t.t.CycleTime() / 1e3 }

// trackID maps an address to its per-bank track. Track 0 is reserved for
// the scheduler, and each bank of each rank gets its own thread row.
func (t *Tracer) trackID(rank, bank int32) int {
	return 1 + int(rank)*t.geo.Banks + int(bank)
}

// WriteChromeTrace writes the retained events as Chrome trace-event JSON
// (the "JSON Array Format" with a traceEvents wrapper), loadable in
// Perfetto and chrome://tracing. Channels render as processes; within each,
// track 0 carries scheduler decisions and CROW-table events as instants,
// and every bank renders as its own thread with commands as duration
// slices. Metadata records the drop count so truncated rings are visible.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"recorded\":%d,\"dropped\":%d},\"traceEvents\":[",
		t.total, t.Dropped())

	first := true
	sep := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}

	// Metadata: name every channel process and bank/scheduler thread that
	// appears in the retained events. Collected into sorted sets so the
	// output is byte-deterministic for a given ring.
	type chTrack struct {
		ch  int32
		tid int
	}
	seenCh := map[int32]bool{}
	seenTrack := map[chTrack]string{}
	t.Events(func(e Event) {
		seenCh[e.Ch] = true
		if e.Class == ClassCmd && e.Cmd != dram.CmdREF {
			// All-bank REF has no bank operand and renders on the
			// scheduler track; everything else gets a bank thread.
			k := chTrack{e.Ch, t.trackID(e.Rank, e.Bank)}
			if _, ok := seenTrack[k]; !ok {
				seenTrack[k] = fmt.Sprintf("rank%d bank%d", e.Rank, e.Bank)
			}
		}
	})
	channels := make([]int32, 0, len(seenCh))
	for ch := range seenCh {
		channels = append(channels, ch)
	}
	sort.Slice(channels, func(i, j int) bool { return channels[i] < channels[j] })
	tracks := make([]chTrack, 0, len(seenTrack))
	for k := range seenTrack {
		tracks = append(tracks, k)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].ch != tracks[j].ch {
			return tracks[i].ch < tracks[j].ch
		}
		return tracks[i].tid < tracks[j].tid
	})
	for _, ch := range channels {
		sep()
		fmt.Fprintf(bw, "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"channel %d\"}}", ch, ch)
		sep()
		fmt.Fprintf(bw, "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"scheduler\"}}", ch)
	}
	for _, k := range tracks {
		sep()
		fmt.Fprintf(bw, "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%q}}", k.ch, k.tid, seenTrack[k])
	}

	us := t.usPerCycle()
	t.Events(func(e Event) {
		sep()
		ts := float64(e.Cycle) * us
		switch e.Class {
		case ClassCmd:
			tid := t.trackID(e.Rank, e.Bank)
			if e.Cmd == dram.CmdREF {
				tid = 0
			}
			fmt.Fprintf(bw, "{\"ph\":\"X\",\"name\":%q,\"cat\":\"cmd\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"dur\":%.4f,\"args\":{\"row\":%d,\"cycle\":%d}}",
				e.Cmd.String(), e.Ch, tid, ts, float64(e.Dur)*us, e.Row, e.Cycle)
		case ClassSched:
			fmt.Fprintf(bw, "{\"ph\":\"i\",\"name\":%q,\"cat\":\"sched\",\"pid\":%d,\"tid\":0,\"ts\":%.4f,\"s\":\"t\",\"args\":{\"readq\":%d,\"writeq\":%d,\"bank\":%d,\"row\":%d}}",
				ctrl.SchedKind(e.Sub).String(), e.Ch, ts, e.ReadQ, e.WriteQ, e.Bank, e.Row)
		case ClassTable:
			fmt.Fprintf(bw, "{\"ph\":\"i\",\"name\":%q,\"cat\":\"crow-table\",\"pid\":%d,\"tid\":0,\"ts\":%.4f,\"s\":\"t\",\"args\":{\"way\":%d,\"bank\":%d,\"row\":%d}}",
				"crow-"+core.TableEventKind(e.Sub).String(), e.Ch, ts, e.Way, e.Bank, e.Row)
		}
	})
	bw.WriteString("]}")
	return bw.Flush()
}
