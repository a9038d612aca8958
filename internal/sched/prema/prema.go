// Package prema implements the task-based PREMA comparator from the
// paper's evaluation (adapted from Choi & Rhu's predictive multi-task
// scheduler as ported to multi-slot FPGA systems).
//
// PREMA keeps the token accumulation and candidate thresholding scheme —
// tokens grow with priority and normalized performance degradation — and
// selects the *shortest* candidate (smallest estimated remaining work) to
// execute next. It shares slots among candidates but has no cross-batch
// pipelining and no preemption.
package prema

import (
	"cmp"
	"slices"

	"nimblock/internal/sched"
)

// Scheduler is the task-based PREMA policy.
type Scheduler struct {
	pool  *sched.TokenPool
	cands []*sched.App // scratch, reused across Schedule calls
}

// New returns a PREMA scheduler.
func New() *Scheduler { return &Scheduler{pool: sched.NewTokenPool()} }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "PREMA" }

// Pipelining implements sched.Scheduler: bulk processing only.
func (s *Scheduler) Pipelining() bool { return false }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(w sched.World, why sched.Reason) {
	apps := w.Apps()
	s.pool.Accumulate(w.Now(), apps)
	s.cands = sched.CandidatesInto(s.cands, apps)
	// Shortest estimated remaining work first (PREMA's selection rule).
	slices.SortStableFunc(s.cands, func(x, y *sched.App) int {
		if c := cmp.Compare(x.RemainingEstimate(), y.RemainingEstimate()); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	free := w.FreeSlots()
	idx := 0
	for _, a := range s.cands {
		// Re-evaluate after each configuration: prefetching a task makes
		// its successors configurable.
		for {
			if idx >= len(free) {
				return
			}
			tasks := a.ConfigurableTasks()
			if len(tasks) == 0 {
				break
			}
			if err := w.Reconfigure(free[idx], a, tasks[0]); err != nil {
				return
			}
			idx++
		}
	}
}
