// Package ctrl implements the memory controller of Table 2: per-channel
// 64-entry read/write request queues, FR-FCFS-Cap scheduling [81], a
// timeout-based row-buffer policy (75 ns), all-bank refresh management, and
// the hook points where a core.Mechanism (CROW-cache, CROW-ref, TL-DRAM,
// or the baseline) decides how each row activation is performed.
package ctrl

import (
	"crowdram/internal/core"
	"crowdram/internal/dram"
	"crowdram/internal/metrics"
)

// ReqType distinguishes reads from writes.
type ReqType int

// Request types.
const (
	Read ReqType = iota
	Write
)

// Request is one cache-line-sized memory request.
//
// Requests obtained from Controller.GetRequest are recycled internally once
// complete (after Done fires for reads, after the WR issues for writes), so
// the steady-state read path allocates nothing. Callers must not retain a
// pooled request past its completion.
type Request struct {
	Type   ReqType
	Addr   dram.Addr
	Core   int
	Line   uint64 // upstream line address, carried through to Done
	Arrive int64  // DRAM cycle the request entered the controller
	Done   func(now int64, line uint64)
	IsPref bool     // prefetch: scheduled behind demand requests
	next   *Request // freelist link
}

// Config parameterizes one controller instance.
type Config struct {
	ChannelID int
	Geo       dram.Geometry
	T         dram.Timing
	ReadQ     int // read queue capacity (64)
	WriteQ    int // write queue capacity (64)
	Cap       int // FR-FCFS-Cap: row hits served per activation
	TimeoutNs float64
	MASA      bool // SALP-MASA subarray-level parallelism
	OpenPage  bool // keep rows open until a conflict (SALP open-page)

	// PerBankRefresh uses LPDDR4's REFpb instead of all-bank REFab:
	// one bank refreshes (for the shorter tRFCpb) while the others stay
	// accessible, at 8x the command rate.
	PerBankRefresh bool
	// MaxPostpone allows deferring up to this many due refreshes while
	// demand requests are queued (JEDEC permits 8), catching up when the
	// rank idles — elastic refresh [107].
	MaxPostpone int

	// Scheduler, RowPolicy, and Refresh name the controller policies to
	// compose, resolved from the registries in policy.go. Empty fields
	// resolve to the Table 2 controller: "frfcfs-cap", "timeout" (or
	// "open" when OpenPage is set), and "allbank" (or "perbank" when
	// PerBankRefresh is set) — the legacy booleans keep working.
	Scheduler string
	RowPolicy string
	Refresh   string

	// Features forwards standard-specific device behaviours to the channel.
	Features dram.Features
}

// DefaultConfig returns the Table 2 controller configuration.
func DefaultConfig(channel int, g dram.Geometry, t dram.Timing) Config {
	return Config{
		ChannelID: channel,
		Geo:       g,
		T:         t,
		ReadQ:     64,
		WriteQ:    64,
		Cap:       16,
		TimeoutNs: 75,
	}
}

// Stats aggregates controller-level statistics.
type Stats struct {
	ReadsServed    int64
	WritesServed   int64
	ReadLatencySum int64 // in DRAM cycles, arrival to data
	RowHits        int64
	RowMisses      int64 // activations performed for requests
	RowConflicts   int64 // precharges forced by a conflicting request
	Forwarded      int64 // reads served from the write queue
	Refreshes      int64
	TimeoutCloses  int64
	MechCopies     int64 // mechanism-initiated ACT-c operations
	Scrubs         int64 // idle-cycle full-restore passes
}

// AvgReadLatencyNs returns the mean read latency in nanoseconds, given the
// command-clock cycle time of the standard the controller ran.
func (s *Stats) AvgReadLatencyNs(cycleNs float64) float64 {
	if s.ReadsServed == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.ReadsServed) * cycleNs
}

// SchedKind classifies one scheduler decision for observers.
type SchedKind uint8

// Scheduler decision kinds.
const (
	// SchedRowHit is a column command served from an open row.
	SchedRowHit SchedKind = iota
	// SchedRowMiss is an activation performed for a request.
	SchedRowMiss
	// SchedRowConflict is a precharge forced by a conflicting request (or
	// by the FR-FCFS hit cap recycling the row).
	SchedRowConflict
	// SchedForward is a read served from the write queue.
	SchedForward
	// SchedRefresh is a REF or REFpb issue.
	SchedRefresh
	// SchedTimeoutClose is a timeout-policy precharge of an idle row.
	SchedTimeoutClose
	// SchedMechCopy is a mechanism-initiated ACT-c issue.
	SchedMechCopy
	// SchedScrub is an idle-cycle full-restore activation.
	SchedScrub
	// SchedDrainEnter and SchedDrainExit bracket write-drain mode.
	SchedDrainEnter
	SchedDrainExit
)

var schedNames = [...]string{
	"row-hit", "row-miss", "row-conflict", "forward", "refresh",
	"timeout-close", "mech-copy", "scrub", "drain-enter", "drain-exit",
}

func (k SchedKind) String() string { return schedNames[k] }

// SchedEvent is one scheduler decision, with the queue depths at decision
// time — what a tracer needs to attribute command-stream behaviour to
// controller policy rather than device timing.
type SchedEvent struct {
	Kind   SchedKind
	Cycle  int64
	Addr   dram.Addr // zero-valued for drain transitions
	ReadQ  int
	WriteQ int
}

// SchedObserver receives every scheduler decision of one controller, in
// decision order. Implementations must be cheap: they run on the tick path.
type SchedObserver interface {
	OnSched(e SchedEvent)
}

// event is a scheduled completion callback.
type event struct {
	at  int64
	req *Request
}

// eventQueue is a hand-rolled min-heap on `at`. container/heap would box
// every pushed event into an interface — one allocation per read completion
// on the hot path. The sift directions replicate container/heap's strict-less
// comparisons exactly, so pop order (ties included) is unchanged.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].at < h[j].at {
			j = r
		}
		if h[i].at <= h[j].at {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h
	return e
}

// copySource is implemented by mechanisms that enqueue ACT-c copy work
// (RowHammer victim duplication, dynamic CROW-ref remaps).
type copySource interface {
	NextCopy(int) (core.CopyOp, bool)
}

// scrubSource is implemented by mechanisms with idle-cycle restore work.
type scrubSource interface {
	NextScrub(int) (core.CopyOp, bool)
	RequeueScrub(int, dram.Addr)
}

// opPeeker lets NextEvent ask, without mutating mechanism state, whether a
// channel has copy or scrub work pending. Mechanisms implementing copySource
// or scrubSource without opPeeker are never idle-skipped (conservative).
type opPeeker interface {
	HasPendingOps(int) bool
}

// refreshScaler is implemented by mechanisms (mitigation wrappers) that
// scale the refresh rate up: the controller divides its refresh interval by
// the reported divisor. Resolved once at construction; divisors below 2 are
// ignored.
type refreshScaler interface {
	RefreshDivisor() int
}

// copyState tracks a mechanism-initiated ACT-c in flight.
type copyState struct {
	op     core.CopyOp
	actAt  int64
	active bool
}

// Controller schedules one channel.
type Controller struct {
	Cfg  Config
	Dev  *dram.Channel
	Mech core.Mechanism

	readQ, writeQ []*Request
	draining      bool

	// hitsServed counts column commands served from the current activation,
	// per subarray, indexed by key(). A flat slice rather than a map: the
	// scheduler reads it on every hit-pass iteration, and the whole table is
	// a few KiB of contiguous memory that stays cache-resident.
	hitsServed  []int
	subsPerBank int

	refDue  []int64 // next refresh deadline per rank
	refOwed []int   // refreshes due but not yet issued, per rank
	refRow  []int   // refresh row counter per rank
	refBank []int   // next bank to refresh per rank (per-bank mode)

	pendingCopy *copyState

	// The composed policies, resolved from the registries at construction.
	// effCap is the scheduler's effective per-activation hit cap (0 =
	// unlimited, for the uncapped FR-FCFS variant).
	schedPol Scheduler
	rowPol   RowPolicy
	refPol   RefreshPolicy
	effCap   int

	// Cached capability assertions on Mech, resolved once at construction
	// so the per-cycle path performs no dynamic interface checks.
	copySrc  copySource
	scrubSrc scrubSource
	opPeek   opPeeker
	// refDiv divides the refresh interval when a mitigation scales the
	// refresh rate (see refreshScaler); 0/1 = no scaling.
	refDiv int

	free  *Request       // request freelist (see GetRequest)
	osBuf []dram.OpenSub // reusable open-subarray scan buffer

	events      eventQueue
	timeout     int64
	lastEnqueue int64 // most recent demand arrival (gates scrubbing)
	lastScrub   int64
	bankLast    []int64 // last demand command per bank (gates scrubbing), by bankKey

	// ReadLatency tracks the distribution of read latencies in DRAM
	// cycles (arrival to data), in logarithmic buckets.
	ReadLatency *metrics.Histogram

	// Obs, when non-nil, receives every scheduler decision (row hits,
	// conflicts, refreshes, drain transitions) for tracing and telemetry.
	Obs SchedObserver

	Stats Stats
}

// sched reports one scheduler decision to the attached observer. Call sites
// guard with `c.Obs != nil` so the disabled path costs one comparison.
func (c *Controller) sched(k SchedKind, a dram.Addr, now int64) {
	c.Obs.OnSched(SchedEvent{
		Kind: k, Cycle: now, Addr: a,
		ReadQ: len(c.readQ), WriteQ: len(c.writeQ),
	})
}

// New builds a controller over a fresh device channel. Unknown policy names
// panic: user-facing inputs are validated at the crow.Options layer, so an
// unknown name here is a wiring bug.
func New(cfg Config, mech core.Mechanism) *Controller {
	dev := dram.NewChannel(cfg.Geo, cfg.T)
	dev.MASA = cfg.MASA
	dev.Features = cfg.Features
	subs := cfg.Geo.SubarraysPerBank()
	c := &Controller{
		Cfg:         cfg,
		Dev:         dev,
		Mech:        mech,
		hitsServed:  make([]int, cfg.Geo.Ranks*cfg.Geo.Banks*subs),
		subsPerBank: subs,
		bankLast:    make([]int64, cfg.Geo.Ranks*cfg.Geo.Banks),
		timeout:     int64(cfg.TimeoutNs / cfg.T.CycleTime()),
		ReadLatency: metrics.NewHistogram(),
	}
	c.resolvePolicies()
	if rs, ok := mech.(refreshScaler); ok {
		c.refDiv = rs.RefreshDivisor()
	}
	c.refDue = make([]int64, cfg.Geo.Ranks)
	c.refOwed = make([]int, cfg.Geo.Ranks)
	c.refRow = make([]int, cfg.Geo.Ranks)
	c.refBank = make([]int, cfg.Geo.Ranks)
	for r := range c.refDue {
		c.refDue[r] = c.refInterval()
	}
	c.copySrc, _ = mech.(copySource)
	c.scrubSrc, _ = mech.(scrubSource)
	c.opPeek, _ = mech.(opPeeker)
	return c
}

// resolvePolicies looks the configured policy names up, mapping empty names
// (and the legacy OpenPage/PerBankRefresh booleans) to the Table 2 defaults,
// and derives the policy-dependent scalars (effCap, zero timeout for the
// closed-page policy).
func (c *Controller) resolvePolicies() {
	sname := c.Cfg.Scheduler
	if sname == "" {
		sname = DefaultScheduler
	}
	rname := c.Cfg.RowPolicy
	if rname == "" {
		rname = DefaultRowPolicy
		if c.Cfg.OpenPage {
			rname = "open"
		}
	}
	fname := c.Cfg.Refresh
	if fname == "" {
		fname = DefaultRefreshPolicy
		if c.Cfg.PerBankRefresh {
			fname = "perbank"
		}
	}
	var err error
	if c.schedPol, err = SchedulerByName(sname); err != nil {
		panic(err)
	}
	if c.rowPol, err = RowPolicyByName(rname); err != nil {
		panic(err)
	}
	if c.refPol, err = RefreshPolicyByName(fname); err != nil {
		panic(err)
	}
	if sname == DefaultScheduler {
		c.effCap = c.Cfg.Cap
	}
	if rname == "closed" {
		c.timeout = 0
	}
}

// Policies returns the names of the composed scheduler, row policy, and
// refresh policy (for reporting and tests).
func (c *Controller) Policies() (scheduler, rowPolicy, refresh string) {
	return c.schedPol.Name(), c.rowPol.Name(), c.refPol.Name()
}

// GetRequest returns a zeroed request from the controller's freelist (or a
// fresh one). Requests complete back into the pool automatically; a caller
// whose enqueue was rejected returns the request with PutRequest.
func (c *Controller) GetRequest() *Request {
	r := c.free
	if r == nil {
		return &Request{}
	}
	c.free = r.next
	r.next = nil
	return r
}

// PutRequest recycles a request that will not be enqueued after all.
func (c *Controller) PutRequest(r *Request) {
	*r = Request{next: c.free}
	c.free = r
}

func (c *Controller) refInterval() int64 {
	mult := c.Mech.RefreshMultiplier()
	if mult == 0 {
		return 1 << 62
	}
	iv := int64(c.Cfg.T.REFI) * int64(mult)
	if c.refPol.PerBank() {
		iv /= int64(c.Cfg.Geo.Banks)
	}
	if c.refDiv > 1 {
		iv /= int64(c.refDiv)
		if iv < 1 {
			iv = 1
		}
	}
	return iv
}

// QueueLens returns the current read and write queue occupancy.
func (c *Controller) QueueLens() (int, int) { return len(c.readQ), len(c.writeQ) }

// Idle reports whether the controller has no queued work or in-flight
// events (used to drain simulations).
func (c *Controller) Idle() bool {
	return len(c.readQ) == 0 && len(c.writeQ) == 0 && len(c.events) == 0 && c.pendingCopy == nil
}

// EnqueueRead accepts a read request, or returns false if the queue is full.
// Reads matching a queued write are forwarded and complete immediately.
func (c *Controller) EnqueueRead(r *Request, now int64) bool {
	for _, w := range c.writeQ {
		if w.Addr == r.Addr {
			c.Stats.Forwarded++
			c.Stats.ReadsServed++
			if c.Obs != nil {
				c.sched(SchedForward, r.Addr, now)
			}
			c.events.push(event{at: now + 1, req: r})
			return true
		}
	}
	if len(c.readQ) >= c.Cfg.ReadQ {
		return false
	}
	r.Arrive = now
	c.lastEnqueue = now
	c.readQ = append(c.readQ, r)
	return true
}

// EnqueueWrite accepts a write request, or returns false if the queue is
// full. Writes complete (from the requester's view) on acceptance.
func (c *Controller) EnqueueWrite(r *Request, now int64) bool {
	if len(c.writeQ) >= c.Cfg.WriteQ {
		return false
	}
	r.Arrive = now
	c.lastEnqueue = now
	c.writeQ = append(c.writeQ, r)
	if r.Done != nil {
		r.Done(now, r.Line)
	}
	return true
}

// NextEvent returns the earliest DRAM cycle after `now` at which Tick could
// issue a command or fire a completion. While any queue, copy, scrub, or owed
// refresh is live it conservatively returns now+1 (those paths re-evaluate
// every cycle); otherwise it is the min of the next read completion, the next
// refresh deadline, and the earliest timeout-policy precharge. With nothing
// in flight it returns dram.Horizon; the run loop skips the gap.
func (c *Controller) NextEvent(now int64) int64 {
	if len(c.readQ) > 0 || len(c.writeQ) > 0 || c.pendingCopy != nil {
		return now + 1
	}
	for r := range c.refOwed {
		if c.refOwed[r] > 0 {
			return now + 1
		}
	}
	if c.copySrc != nil || c.scrubSrc != nil {
		if c.opPeek == nil || c.opPeek.HasPendingOps(c.Cfg.ChannelID) {
			return now + 1
		}
	}
	next := dram.Horizon
	if len(c.events) > 0 && c.events[0].at < next {
		next = c.events[0].at
	}
	for r := range c.refDue {
		if c.refDue[r] < next {
			next = c.refDue[r]
		}
	}
	if t := c.rowPol.NextClose(c); t < next {
		next = t
	}
	if next <= now {
		return now + 1
	}
	return next
}

// Tick advances the controller by one DRAM cycle, issuing at most one
// command. It is TickEvents followed by TickSchedule; the halves stay
// separate methods because perfbench's profile attributes scheduling time
// (ctrl.schedule_pct) to the TickSchedule frame.
func (c *Controller) Tick(now int64) {
	c.TickEvents(now)
	c.TickSchedule(now)
}

// TickEvents is the completion half of Tick: it advances the device's
// per-cycle accounting and fires every completion event due at now, in heap
// order, recycling each finished request after its callback returns.
func (c *Controller) TickEvents(now int64) {
	c.Dev.Tick(now)
	for len(c.events) > 0 && c.events[0].at <= now {
		e := c.events.pop()
		if e.req.Done != nil {
			e.req.Done(now, e.req.Line)
		}
		c.PutRequest(e.req)
	}
}

// TickSchedule is the scheduling half of Tick: refresh, mechanism-initiated
// copies, drain-mode transitions, the composed scheduler passes, the idle-row
// policy, and scrubbing. At most one command issues per call.
func (c *Controller) TickSchedule(now int64) {
	if c.serviceRefresh(now) {
		return
	}
	if c.serviceMechCopy(now) {
		return
	}

	c.updateDrainMode(now)
	q, other := &c.readQ, &c.writeQ
	if c.draining || len(c.readQ) == 0 {
		q, other = &c.writeQ, &c.readQ
	}
	if c.schedPol.Schedule(c, q, now) {
		return
	}
	// If the preferred queue could not issue, let the other queue's row
	// hits through (writes never starve reads and vice versa).
	if c.schedPol.ScheduleHits(c, other, now) {
		return
	}
	if c.rowPol.ServiceIdle(c, now) {
		return
	}
	c.serviceScrub(now)
}

func (c *Controller) updateDrainMode(now int64) {
	hi := c.Cfg.WriteQ * 3 / 4
	lo := c.Cfg.WriteQ / 4
	if !c.draining && (len(c.writeQ) >= hi || (len(c.readQ) == 0 && len(c.writeQ) > 0)) {
		c.draining = true
		if c.Obs != nil {
			c.sched(SchedDrainEnter, dram.Addr{Channel: c.Cfg.ChannelID}, now)
		}
	}
	if c.draining && (len(c.writeQ) <= lo || len(c.writeQ) == 0) && len(c.readQ) > 0 {
		c.draining = false
		if c.Obs != nil {
			c.sched(SchedDrainExit, dram.Addr{Channel: c.Cfg.ChannelID}, now)
		}
	}
}

func (c *Controller) key(a dram.Addr) int {
	return (a.Rank*c.Cfg.Geo.Banks+a.Bank)*c.subsPerBank + a.Subarray(c.Cfg.Geo)
}

func (c *Controller) bankKey(a dram.Addr) int { return a.Rank*c.Cfg.Geo.Banks + a.Bank }

// serviceRefresh runs the shared refresh state machine — per-rank deadline
// accounting with elastic postponement [107] — and delegates the granularity
// of the refresh command itself (REFab, REFpb, REFsb) to the composed
// RefreshPolicy; returns true if a command issued this cycle.
func (c *Controller) serviceRefresh(now int64) bool {
	for r := 0; r < c.Cfg.Geo.Ranks; r++ {
		for now >= c.refDue[r] {
			c.refOwed[r]++
			c.refDue[r] += c.refInterval()
		}
		if c.refOwed[r] == 0 {
			continue
		}
		// Elastic refresh: defer while demand is queued, unless the
		// owed count has reached the postponement limit.
		if c.refOwed[r] <= c.Cfg.MaxPostpone && c.hasRankDemand(r) {
			continue
		}
		done, wait := c.refPol.Issue(c, r, now)
		if done {
			return true
		}
		if wait {
			return false
		}
	}
	return false
}

// refreshBank issues (or clears the way for) one per-bank refresh of the
// next bank in the rank's round-robin order.
func (c *Controller) refreshBank(r int, now int64) bool {
	bank := c.refBank[r]
	if c.Dev.CanREFpb(r, bank, now) {
		c.Dev.REFpb(r, bank, now)
		c.Stats.Refreshes++
		if c.Obs != nil {
			c.sched(SchedRefresh, dram.Addr{Channel: c.Cfg.ChannelID, Rank: r, Bank: bank}, now)
		}
		start := c.refRow[r]
		c.Mech.OnRefreshRows(c.Cfg.ChannelID, r, bank, start, c.Cfg.T.RowsPerRef)
		c.refBank[r] = (bank + 1) % c.Cfg.Geo.Banks
		if c.refBank[r] == 0 {
			c.refRow[r] = (start + c.Cfg.T.RowsPerRef) % c.Cfg.Geo.RowsPerBank
		}
		c.refOwed[r]--
		return true
	}
	// Close open rows of this bank only; the rest keep serving.
	c.osBuf = c.Dev.OpenSubarraysAppend(c.osBuf[:0])
	for _, os := range c.osBuf {
		if os.Rank != r || os.Bank != bank {
			continue
		}
		a := dram.Addr{Channel: c.Cfg.ChannelID, Rank: os.Rank, Bank: os.Bank, Row: os.Row}
		if c.Dev.CanPRE(a, now) {
			c.preAndNotify(a, now)
			return true
		}
	}
	return false
}

// hasRankDemand reports whether any queued request targets the rank.
func (c *Controller) hasRankDemand(r int) bool {
	for _, q := range [][]*Request{c.readQ, c.writeQ} {
		for _, req := range q {
			if req.Addr.Rank == r {
				return true
			}
		}
	}
	return false
}

// hasBankDemand reports whether any queued request targets the bank.
func (c *Controller) hasBankDemand(r, bank int) bool {
	for _, q := range [][]*Request{c.readQ, c.writeQ} {
		for _, req := range q {
			if req.Addr.Rank == r && req.Addr.Bank == bank {
				return true
			}
		}
	}
	return false
}

// serviceMechCopy executes mechanism-initiated ACT-c operations (RowHammer
// victim duplication, dynamic CROW-ref remaps).
func (c *Controller) serviceMechCopy(now int64) bool {
	if c.pendingCopy == nil && c.copySrc != nil {
		if op, found := c.copySrc.NextCopy(c.Cfg.ChannelID); found {
			c.pendingCopy = &copyState{op: op}
		}
	}
	pc := c.pendingCopy
	if pc == nil {
		return false
	}
	a := pc.op.Addr
	if !pc.active {
		if open := c.Dev.OpenRow(a); open >= 0 {
			if c.Dev.CanPRE(dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: open}, now) {
				c.preAndNotify(dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: open}, now)
				return true
			}
			return false
		}
		kind := pc.op.Kind
		if kind == dram.ActSingle && pc.op.Timing == (dram.ActTimings{}) {
			pc.op.Timing = c.Cfg.T.Base()
		}
		if c.Dev.CanACT(a, now, kind) {
			copyRow := pc.op.CopyRow
			if kind == dram.ActSingle {
				copyRow = -1
			}
			c.Dev.ACT(a, now, kind, pc.op.Timing, copyRow)
			pc.active = true
			pc.actAt = now
			c.Stats.MechCopies++
			if c.Obs != nil {
				c.sched(SchedMechCopy, a, now)
			}
			return true
		}
		return false
	}
	// Copy activation in progress: precharge once fully restored. If the
	// demand scheduler stole the bank meanwhile (a row conflict can legally
	// precharge the copy row between tRAS and full restoration, notifying
	// the mechanism through its own preAndNotify), the copy is already as
	// done as it will get — waiting on CanPRE for a closed bank would wedge
	// the mechanism-copy pipeline for the rest of the run.
	if c.Dev.OpenRow(a) != a.Row {
		c.pendingCopy = nil
		return false
	}
	if now >= pc.actAt+int64(pc.op.Timing.RASFull) && c.Dev.CanPRE(a, now) {
		c.preAndNotify(a, now)
		c.pendingCopy = nil
		return true
	}
	return false
}

// preAndNotify precharges the subarray holding a.Row and informs the
// mechanism of the restore outcome.
func (c *Controller) preAndNotify(a dram.Addr, now int64) {
	open := c.Dev.OpenRow(a)
	full := c.Dev.PRE(a, now)
	c.Mech.OnPrecharge(a, open, full, now)
	c.hitsServed[c.key(a)] = 0
}

// schedule runs the FR-FCFS-Cap passes over a queue; returns true if a
// command was issued.
func (c *Controller) schedule(q *[]*Request, now int64) bool {
	if c.scheduleHits(q, now) {
		return true
	}
	return c.scheduleOldest(q, now)
}

// scheduleHits serves the oldest row-buffer hit under the per-activation
// cap, demand requests before prefetches.
func (c *Controller) scheduleHits(q *[]*Request, now int64) bool {
	for pass := 0; pass < 2; pass++ {
		for i, r := range *q {
			if (r.IsPref) != (pass == 1) {
				continue
			}
			if c.Dev.OpenRow(r.Addr) != r.Addr.Row {
				continue
			}
			k := c.key(r.Addr)
			if c.effCap > 0 && c.hitsServed[k] >= c.effCap {
				continue
			}
			if c.issueColumn(r, now) {
				c.hitsServed[k]++
				c.Stats.RowHits++
				if c.Obs != nil {
					c.sched(SchedRowHit, r.Addr, now)
				}
				*q = append((*q)[:i], (*q)[i+1:]...)
				if r.Type == Write {
					c.PutRequest(r) // reads recycle at completion-event pop
				}
				return true
			}
		}
	}
	return false
}

// scheduleOldest progresses the oldest request that can make progress:
// precharge a conflicting row, or activate a closed one.
func (c *Controller) scheduleOldest(q *[]*Request, now int64) bool {
	for pass := 0; pass < 2; pass++ {
		for _, r := range *q {
			if (r.IsPref) != (pass == 1) {
				continue
			}
			if c.progress(r, now) {
				return true
			}
		}
	}
	return false
}

// scheduleInOrder is the FCFS pass: only the oldest queued request may
// issue. A row hit at the head is served in place; anything else progresses
// through the usual precharge/activate path.
func (c *Controller) scheduleInOrder(q *[]*Request, now int64) bool {
	if len(*q) == 0 {
		return false
	}
	r := (*q)[0]
	if c.Dev.OpenRow(r.Addr) == r.Addr.Row {
		if c.issueColumn(r, now) {
			c.hitsServed[c.key(r.Addr)]++
			c.Stats.RowHits++
			if c.Obs != nil {
				c.sched(SchedRowHit, r.Addr, now)
			}
			*q = append((*q)[:0], (*q)[1:]...)
			if r.Type == Write {
				c.PutRequest(r) // reads recycle at completion-event pop
			}
			return true
		}
		return false
	}
	return c.progress(r, now)
}

// progress tries to issue the next command the request needs; returns true
// if a command was issued.
func (c *Controller) progress(r *Request, now int64) bool {
	a := r.Addr
	open := c.Dev.OpenRow(a)
	if open == a.Row {
		// Row open but over the hit cap: FR-FCFS-Cap treats it as a
		// conflict and recycles the row [81].
		if c.effCap > 0 && c.hitsServed[c.key(a)] >= c.effCap && c.Dev.CanPRE(a, now) {
			c.Stats.RowConflicts++
			if c.Obs != nil {
				c.sched(SchedRowConflict, a, now)
			}
			c.preAndNotify(a, now)
			return true
		}
		return false
	}
	if open >= 0 {
		// Conflict in this subarray.
		victim := dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: open}
		if c.Dev.CanPRE(victim, now) {
			c.Stats.RowConflicts++
			if c.Obs != nil {
				c.sched(SchedRowConflict, victim, now)
			}
			c.preAndNotify(victim, now)
			return true
		}
		return false
	}
	if !c.Cfg.MASA {
		// Another subarray of the bank may hold the bank's one open row.
		if row := c.Dev.OpenRowInBank(a.Rank, a.Bank); row >= 0 {
			victim := dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: row}
			if c.Dev.CanPRE(victim, now) {
				c.Stats.RowConflicts++
				if c.Obs != nil {
					c.sched(SchedRowConflict, victim, now)
				}
				c.preAndNotify(victim, now)
				return true
			}
			return false
		}
	}
	// Subarray (and bank, if required) closed: activate.
	d := c.Mech.PlanActivate(a, now)
	if d.RestoreFirst {
		ra := dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: d.RestoreRow}
		if c.Dev.CanACT(ra, now, dram.ActTwo) {
			c.Dev.ACT(ra, now, dram.ActTwo, d.RestoreTiming, d.RestoreCopyRow)
			c.Mech.OnActivate(ra, core.ActDecision{
				Kind: dram.ActTwo, CopyRow: d.RestoreCopyRow,
				Timing: d.RestoreTiming, RestoreFirst: true,
				RestoreCopyRow: d.RestoreCopyRow,
			}, now)
			c.hitsServed[c.key(ra)] = 0
			return true
		}
		return false
	}
	if c.Dev.CanACT(a, now, d.Kind) {
		copyRow := d.CopyRow
		if d.Kind == dram.ActSingle {
			// Single-row activations carry no copy-row operand. (TL-DRAM
			// reuses CopyRow to name its near row, but that is mechanism
			// bookkeeping, not part of the command.)
			copyRow = -1
		}
		c.Dev.ACT(a, now, d.Kind, d.Timing, copyRow)
		c.Mech.OnActivate(a, d, now)
		c.hitsServed[c.key(a)] = 0
		c.bankLast[c.bankKey(a)] = now
		c.Stats.RowMisses++
		if c.Obs != nil {
			c.sched(SchedRowMiss, a, now)
		}
		return true
	}
	return false
}

// issueColumn issues the RD or WR for a request whose row is open.
func (c *Controller) issueColumn(r *Request, now int64) bool {
	if r.Type == Read {
		if !c.Dev.CanRD(r.Addr, now) {
			return false
		}
		c.bankLast[c.bankKey(r.Addr)] = now
		done := c.Dev.RD(r.Addr, now)
		c.Stats.ReadsServed++
		c.Stats.ReadLatencySum += done - r.Arrive
		if !r.IsPref {
			c.ReadLatency.Add(float64(done - r.Arrive))
		}
		c.events.push(event{at: done, req: r})
		return true
	}
	if !c.Dev.CanWR(r.Addr, now) {
		return false
	}
	c.bankLast[c.bankKey(r.Addr)] = now
	c.Dev.WR(r.Addr, now)
	c.Stats.WritesServed++
	return true
}

// serviceTimeout closes rows idle past the timeout with no queued requests
// (the Table 2 timeout-based row-buffer policy; the timeout/closed row
// policies invoke it). Returns true if it issued a command.
func (c *Controller) serviceTimeout(now int64) bool {
	// Cheap reject: no open subarray can have timed out yet.
	if c.Dev.EarliestTimeoutPRE(c.timeout) > now {
		return false
	}
	c.osBuf = c.Dev.OpenSubarraysAppend(c.osBuf[:0])
	for _, os := range c.osBuf {
		if now-os.LastUse < c.timeout {
			continue
		}
		a := dram.Addr{Channel: c.Cfg.ChannelID, Rank: os.Rank, Bank: os.Bank, Row: os.Row}
		if c.hasRequestFor(a) {
			continue
		}
		if c.Dev.CanPRE(a, now) {
			c.Stats.TimeoutCloses++
			if c.Obs != nil {
				c.sched(SchedTimeoutClose, a, now)
			}
			c.preAndNotify(a, now)
			return true
		}
	}
	return false
}

// serviceScrub uses fully idle cycles (empty queues, no refresh pending) to
// fully restore partially-restored CROW pairs with an ACT-t held to full
// tRAS, so that later evictions rarely stall on a restore pass. The opened
// pair is closed by the normal timeout/conflict policies, at which point it
// reports fully restored. Over a complete retention window the refresh sweep
// performs the same cleanup; scrubbing brings the steady state forward.
func (c *Controller) serviceScrub(now int64) {
	if len(c.readQ) > 0 || len(c.writeQ) > 0 || c.pendingCopy != nil {
		return
	}
	// Only scrub after a short quiet period, at a bounded rate, and only
	// into banks that have been cold for a while, so a bursty stream does
	// not find its hot banks held by restore passes.
	const quiet = 40
	if now-c.lastEnqueue < quiet || now-c.lastScrub < quiet {
		return
	}
	for r := range c.refOwed {
		if c.refOwed[r] > 0 {
			return
		}
	}
	if c.scrubSrc == nil {
		return
	}
	op, found := c.scrubSrc.NextScrub(c.Cfg.ChannelID)
	if !found {
		return
	}
	const bankCold = 250
	if now-c.bankLast[c.bankKey(op.Addr)] < bankCold || !c.Dev.CanACT(op.Addr, now, op.Kind) {
		c.scrubSrc.RequeueScrub(c.Cfg.ChannelID, op.Addr)
		return
	}
	c.Dev.ACT(op.Addr, now, op.Kind, op.Timing, op.CopyRow)
	c.hitsServed[c.key(op.Addr)] = 0
	c.lastScrub = now
	c.Stats.Scrubs++
	if c.Obs != nil {
		c.sched(SchedScrub, op.Addr, now)
	}
}

func (c *Controller) hasRequestFor(a dram.Addr) bool {
	for _, r := range c.readQ {
		if r.Addr.Row == a.Row && r.Addr.Bank == a.Bank && r.Addr.Rank == a.Rank {
			return true
		}
	}
	for _, r := range c.writeQ {
		if r.Addr.Row == a.Row && r.Addr.Bank == a.Bank && r.Addr.Rank == a.Rank {
			return true
		}
	}
	return false
}
