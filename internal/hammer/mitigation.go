package hammer

import (
	"fmt"
	"sort"
	"sync"

	"crowdram/internal/core"
	"crowdram/internal/dram"
)

// MitConfig carries everything a mitigation factory may need.
type MitConfig struct {
	Channels int
	Geo      dram.Geometry
	Seed     int64
	// ParaPerMille is PARA's per-activation neighbour-refresh probability
	// in 1/1000ths (5 = 0.5%).
	ParaPerMille int
	// RefreshScale divides the refresh interval (4 = 4x refresh rate).
	RefreshScale int
	// HammerThreshold is the CROW-hammer remap trigger (activations per
	// refresh window).
	HammerThreshold int
}

// Factory builds a mitigation around an inner mechanism. It may wrap the
// mechanism (PARA, refresh scaling) or configure and return it unchanged
// (CROW-hammer, which lives inside core.CROW).
type Factory func(cfg MitConfig, inner core.Mechanism) (core.Mechanism, error)

var (
	mitMu sync.RWMutex
	mits  = map[string]Factory{}
)

// RegisterMitigation adds a mitigation to the registry; it panics on a
// duplicate name, mirroring the dram.Standard and controller-policy
// registries.
func RegisterMitigation(name string, f Factory) {
	mitMu.Lock()
	defer mitMu.Unlock()
	if _, dup := mits[name]; dup {
		panic(fmt.Sprintf("hammer: duplicate mitigation %q", name))
	}
	mits[name] = f
}

// MitigationNames lists the registered mitigations, sorted.
func MitigationNames() []string {
	mitMu.RLock()
	defer mitMu.RUnlock()
	names := make([]string, 0, len(mits))
	for n := range mits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CheckMitigation validates a mitigation name without instantiating it.
func CheckMitigation(name string) error {
	mitMu.RLock()
	_, ok := mits[name]
	mitMu.RUnlock()
	if !ok {
		return fmt.Errorf("unknown mitigation %q (have %v)", name, MitigationNames())
	}
	return nil
}

// NewMitigation instantiates a registered mitigation around inner.
func NewMitigation(name string, cfg MitConfig, inner core.Mechanism) (core.Mechanism, error) {
	mitMu.RLock()
	f, ok := mits[name]
	mitMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown mitigation %q (have %v)", name, MitigationNames())
	}
	return f(cfg, inner)
}

func init() {
	RegisterMitigation("none", func(cfg MitConfig, inner core.Mechanism) (core.Mechanism, error) {
		return inner, nil
	})
	RegisterMitigation("para", func(cfg MitConfig, inner core.Mechanism) (core.Mechanism, error) {
		if cfg.ParaPerMille <= 0 || cfg.ParaPerMille > 1000 {
			return nil, fmt.Errorf("para: probability %d/1000 out of range (0, 1000]", cfg.ParaPerMille)
		}
		return newShield(cfg, inner, cfg.ParaPerMille, 0), nil
	})
	RegisterMitigation("refresh-scale", func(cfg MitConfig, inner core.Mechanism) (core.Mechanism, error) {
		if cfg.RefreshScale < 2 {
			return nil, fmt.Errorf("refresh-scale: divisor %d must be >= 2", cfg.RefreshScale)
		}
		return newShield(cfg, inner, 0, cfg.RefreshScale), nil
	})
	RegisterMitigation("crow-hammer", func(cfg MitConfig, inner core.Mechanism) (core.Mechanism, error) {
		cw, ok := core.Unwrap(inner).(*core.CROW)
		if !ok {
			return nil, fmt.Errorf("crow-hammer: requires a crow-* mechanism (have %s)", inner.Name())
		}
		if cfg.HammerThreshold > 0 {
			cw.HammerThreshold = cfg.HammerThreshold
		}
		if cw.HammerThreshold <= 0 {
			return nil, fmt.Errorf("crow-hammer: hammer threshold must be positive")
		}
		return inner, nil
	})
}

// Shield wraps a mechanism with controller-side RowHammer countermeasures:
// PARA's probabilistic neighbour refresh (each activation enqueues a
// neighbour-row refresh activation with probability paraPerMille/1000,
// drained through the controller's mechanism-copy path) and/or a scaled
// refresh rate (RefreshDivisor shortens the controller's REF interval).
// All delegation preserves the inner mechanism's behavior; Unwrap exposes it
// for the type asserts that reach inside core.CROW.
type Shield struct {
	inner core.Mechanism
	seed  int64
	geo   dram.Geometry

	paraPerMille int
	refreshDiv   int

	// Capability views of the inner mechanism, cached once like the
	// controller caches its own (a nil view = capability absent).
	innerCopy interface {
		NextCopy(int) (core.CopyOp, bool)
	}
	innerScrub interface {
		NextScrub(int) (core.CopyOp, bool)
		RequeueScrub(int, dram.Addr)
	}
	innerPeek interface {
		HasPendingOps(int) bool
	}

	chans []shieldChan
}

type shieldChan struct {
	draws uint64
	queue []core.CopyOp
	acts  int64
	_     [24]byte // keep per-channel state off shared cache lines
}

func newShield(cfg MitConfig, inner core.Mechanism, paraPerMille, refreshDiv int) *Shield {
	s := &Shield{
		inner:        inner,
		seed:         cfg.Seed,
		geo:          cfg.Geo,
		paraPerMille: paraPerMille,
		refreshDiv:   refreshDiv,
		chans:        make([]shieldChan, cfg.Channels),
	}
	if c, ok := inner.(interface {
		NextCopy(int) (core.CopyOp, bool)
	}); ok {
		s.innerCopy = c
	}
	if sc, ok := inner.(interface {
		NextScrub(int) (core.CopyOp, bool)
		RequeueScrub(int, dram.Addr)
	}); ok {
		s.innerScrub = sc
	}
	if p, ok := inner.(interface {
		HasPendingOps(int) bool
	}); ok {
		s.innerPeek = p
	}
	return s
}

// Unwrap exposes the wrapped mechanism (core.Unwrap walks it).
func (s *Shield) Unwrap() core.Mechanism { return s.inner }

// Name implements core.Mechanism.
func (s *Shield) Name() string {
	suffix := "+para"
	if s.refreshDiv > 1 {
		suffix = "+refx" + fmt.Sprint(s.refreshDiv)
	}
	return s.inner.Name() + suffix
}

// PlanActivate implements core.Mechanism, delegating unchanged.
func (s *Shield) PlanActivate(a dram.Addr, cycle int64) core.ActDecision {
	return s.inner.PlanActivate(a, cycle)
}

// OnActivate implements core.Mechanism: after delegating, PARA draws once
// per regular-row activation and, on a hit, enqueues a refresh activation of
// a random immediate neighbour. The draw is a seeded counter hash, so runs
// are deterministic.
func (s *Shield) OnActivate(a dram.Addr, d core.ActDecision, cycle int64) {
	s.inner.OnActivate(a, d, cycle)
	if s.paraPerMille == 0 || d.Kind == dram.ActCopyRow {
		return
	}
	c := &s.chans[a.Channel]
	c.draws++
	h := mix(uint64(s.seed) ^ uint64(a.Channel)<<56 ^ c.draws)
	if h%1000 >= uint64(s.paraPerMille) {
		return
	}
	row := a.Row - 1
	if (h>>32)&1 == 1 {
		row = a.Row + 1
	}
	if row < 0 || row >= s.geo.RowsPerBank {
		return
	}
	c.queue = append(c.queue, core.CopyOp{
		Addr: dram.Addr{Channel: a.Channel, Rank: a.Rank, Bank: a.Bank, Row: row},
		Kind: dram.ActSingle,
	})
}

// OnPrecharge implements core.Mechanism.
func (s *Shield) OnPrecharge(a dram.Addr, openRow int, fullyRestored bool, cycle int64) {
	s.inner.OnPrecharge(a, openRow, fullyRestored, cycle)
}

// OnRefreshRows implements core.Mechanism.
func (s *Shield) OnRefreshRows(channel, rank, bank, startRow, n int) {
	s.inner.OnRefreshRows(channel, rank, bank, startRow, n)
}

// RefreshMultiplier implements core.Mechanism, delegating unchanged (the
// refresh-scale divisor is a separate controller hook, RefreshDivisor).
func (s *Shield) RefreshMultiplier() int { return s.inner.RefreshMultiplier() }

// RefreshDivisor reports the refresh-rate scaling factor the controller
// should apply (values below 2 mean none).
func (s *Shield) RefreshDivisor() int { return s.refreshDiv }

// NextCopy drains the inner mechanism's ops first, then PARA's pending
// neighbour refreshes.
func (s *Shield) NextCopy(channel int) (core.CopyOp, bool) {
	if s.innerCopy != nil {
		if op, ok := s.innerCopy.NextCopy(channel); ok {
			return op, true
		}
	}
	c := &s.chans[channel]
	if len(c.queue) == 0 {
		return core.CopyOp{}, false
	}
	op := c.queue[0]
	c.queue = c.queue[1:]
	c.acts++
	return op, true
}

// NextScrub delegates to the inner mechanism, if it scrubs.
func (s *Shield) NextScrub(channel int) (core.CopyOp, bool) {
	if s.innerScrub != nil {
		return s.innerScrub.NextScrub(channel)
	}
	return core.CopyOp{}, false
}

// RequeueScrub delegates to the inner mechanism, if it scrubs.
func (s *Shield) RequeueScrub(channel int, a dram.Addr) {
	if s.innerScrub != nil {
		s.innerScrub.RequeueScrub(channel, a)
	}
}

// HasPendingOps reports whether the channel has mitigation or inner-mechanism
// ops pending. When the inner mechanism has op sources but no peeker, it
// reports true (never idle-skip past un-peekable work), preserving the
// controller's contract for the wrapped case.
func (s *Shield) HasPendingOps(channel int) bool {
	if len(s.chans[channel].queue) > 0 {
		return true
	}
	if s.innerPeek != nil {
		return s.innerPeek.HasPendingOps(channel)
	}
	return s.innerCopy != nil || s.innerScrub != nil
}

// NeighborRefreshes returns how many PARA neighbour-refresh activations the
// controller issued, summed across channels after the run has quiesced.
func (s *Shield) NeighborRefreshes() int64 {
	var n int64
	for i := range s.chans {
		n += s.chans[i].acts
	}
	return n
}
