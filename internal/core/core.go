// Package core implements the CROW substrate (Section 3 of the paper): copy
// rows, the CROW-table, and the mechanisms built on top of them —
// CROW-cache (Section 4.1), CROW-ref (Section 4.2) and the RowHammer
// mitigation (Section 4.3).
//
// A Mechanism plugs into the memory controller at the activation decision
// point: before activating a regular row, the controller asks the mechanism
// how to activate it (plain ACT, CROW's ACT-t / ACT-c, or a remapped
// copy-row activation), and notifies it of activations, precharges and
// refreshes so it can maintain the CROW-table's restore state.
package core

import "crowdram/internal/dram"

// ActDecision tells the controller how to activate a regular row.
type ActDecision struct {
	// Kind selects the activation command variant.
	Kind dram.ActKind
	// CopyRow is the copy-row index within the subarray for ActTwo,
	// ActCopy and ActCopyRow.
	CopyRow int
	// Timing is the per-activation timing plan.
	Timing dram.ActTimings

	// RestoreFirst indicates that, before this row can be cached, the
	// controller must fully restore a partially-restored victim pair
	// (Section 4.1.4): activate RestoreRow with ACT-t under
	// RestoreTiming, precharge it, then retry.
	RestoreFirst   bool
	RestoreRow     int // regular-row index within the bank
	RestoreCopyRow int
	RestoreTiming  dram.ActTimings
}

// Mechanism is the controller-side interface of a CROW-based (or competing)
// mechanism. Implementations must be deterministic and are called from a
// single goroutine.
type Mechanism interface {
	// Name identifies the mechanism in reports.
	Name() string

	// PlanActivate decides how to activate regular row a.Row. The
	// controller calls it exactly once per activation it performs.
	PlanActivate(a dram.Addr, cycle int64) ActDecision

	// OnActivate notifies the mechanism that the decision was executed.
	OnActivate(a dram.Addr, d ActDecision, cycle int64)

	// OnPrecharge notifies the mechanism that the subarray holding
	// openRow (a regular-row index within the bank) was precharged, and
	// whether the activation lasted long enough to fully restore it.
	OnPrecharge(a dram.Addr, openRow int, fullyRestored bool, cycle int64)

	// OnRefreshRows notifies the mechanism that rows
	// [startRow, startRow+n) were refreshed in every bank of the rank
	// (bank == -1, all-bank REFab) or in one bank (per-bank REFpb).
	OnRefreshRows(channel, rank, bank, startRow, n int)

	// RefreshMultiplier scales the refresh interval: 1 for the baseline,
	// 2 when CROW-ref extends the window, 0 to disable refresh entirely
	// (the "no refresh" ideal).
	RefreshMultiplier() int
}

// Baseline is the conventional-DRAM mechanism: every activation is a plain
// single-row ACT at standard timings.
type Baseline struct {
	T dram.Timing
}

// Name implements Mechanism.
func (b *Baseline) Name() string { return "baseline" }

// PlanActivate implements Mechanism.
func (b *Baseline) PlanActivate(dram.Addr, int64) ActDecision {
	return ActDecision{Kind: dram.ActSingle, Timing: b.T.Base()}
}

// OnActivate implements Mechanism.
func (b *Baseline) OnActivate(dram.Addr, ActDecision, int64) {}

// OnPrecharge implements Mechanism.
func (b *Baseline) OnPrecharge(dram.Addr, int, bool, int64) {}

// OnRefreshRows implements Mechanism.
func (b *Baseline) OnRefreshRows(int, int, int, int, int) {}

// RefreshMultiplier implements Mechanism.
func (b *Baseline) RefreshMultiplier() int { return 1 }

// Ideal is the hypothetical configuration the paper compares against in
// Figures 8 and 14: a CROW-cache with a 100 % CROW-table hit rate (every
// activation is an ACT-t at reduced latency, with no copy or restore
// overhead), optionally with refresh disabled entirely.
type Ideal struct {
	T         dram.Timing
	NoRefresh bool
}

// Name implements Mechanism.
func (i *Ideal) Name() string { return "ideal" }

// PlanActivate implements Mechanism.
func (i *Ideal) PlanActivate(dram.Addr, int64) ActDecision {
	crow := i.T.CROW()
	return ActDecision{Kind: dram.ActTwo, Timing: crow.TwoFull}
}

// OnActivate implements Mechanism.
func (i *Ideal) OnActivate(dram.Addr, ActDecision, int64) {}

// OnPrecharge implements Mechanism.
func (i *Ideal) OnPrecharge(dram.Addr, int, bool, int64) {}

// OnRefreshRows implements Mechanism.
func (i *Ideal) OnRefreshRows(int, int, int, int, int) {}

// RefreshMultiplier implements Mechanism.
func (i *Ideal) RefreshMultiplier() int {
	if i.NoRefresh {
		return 0
	}
	return 1
}

// Unwrap peels mechanism wrappers (mitigation shields and the like) that
// expose their inner mechanism via an Unwrap method, returning the innermost
// mechanism. Type asserts against concrete mechanisms (e.g. *CROW) should go
// through it so wrapping stays transparent.
func Unwrap(m Mechanism) Mechanism {
	for {
		u, ok := m.(interface{ Unwrap() Mechanism })
		if !ok {
			return m
		}
		m = u.Unwrap()
	}
}
