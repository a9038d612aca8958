package core

import (
	"cmp"
	"slices"

	"nimblock/internal/fpga"
	"nimblock/internal/sched"
)

// Energy is NimblockEnergy: the Nimblock steps with an
// energy-conserving allocation and weighted per-tenant fairness. It
// changes two things:
//
//   - Energy: allocation stops at each candidate's goal number. The
//     leftover phase hands remaining slots to any application that can
//     still use them, buying marginal latency at the cost of extra
//     occupied slots (active power) well past the saturation point.
//     Energy skips it and leaves post-goal slots idle, so the
//     active-power integral tracks the work's saturation profile instead
//     of the board size.
//
//   - Fairness: candidates are served in ascending order of weighted
//     tenant service deficit (delivered fabric time divided by tenant
//     weight), so tenants converge to service proportional to their
//     weights under contention. The sort is stable over the pool's age
//     order, so equal deficits — and single-tenant workloads — keep
//     Nimblock's order and every decision downstream of it stays
//     deterministic.
type Energy struct{ planner }

// NewEnergy returns a NimblockEnergy scheduler planning against boards
// shaped like the given configuration. Pipelining within the goal
// allocation costs no extra slots, so the full algorithm's options stay
// on.
func NewEnergy(board fpga.Config) *Energy {
	return &Energy{newPlanner(DefaultOptions(), board)}
}

// Name implements sched.Scheduler.
func (s *Energy) Name() string { return "NimblockEnergy" }

// Pipelining implements sched.Scheduler.
func (s *Energy) Pipelining() bool { return true }

// Schedule implements sched.Scheduler.
func (s *Energy) Schedule(w sched.World, why sched.Reason) {
	cands := s.candidates(w)
	slices.SortStableFunc(cands, func(x, y *sched.App) int {
		dx := float64(w.TenantService(x.Tenant)) / x.ServiceWeight()
		dy := float64(w.TenantService(y.Tenant)) / y.ServiceWeight()
		return cmp.Compare(dx, dy)
	})
	s.goals(w, cands)
	s.launch(w, cands)
}
