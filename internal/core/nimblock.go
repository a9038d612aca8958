// Package core implements the Nimblock scheduling algorithm — the paper's
// primary contribution (Section 4) — and its variants.
//
// At each scheduling opportunity the algorithm:
//
//  1. accumulates PREMA-style tokens and updates the candidate pool
//     (Section 4.1, Algorithm 1);
//  2. reallocates slots: one slot per candidate oldest-first, then up to
//     each candidate's goal number (from saturation-point analysis), then
//     leftover slots to applications that can still use them
//     (Section 4.2);
//  3. selects a task from the oldest candidate with allocation headroom
//     and a configurable task, and a free slot to host it (Section 4.3);
//     pipelining across batch items begins automatically because extra
//     slots admit downstream tasks while upstream ones still run;
//  4. if a task is ready but no slot is free, batch-preempts the
//     application that most exceeds its allocation, choosing its latest
//     task in topological order (Section 4.4, Algorithm 2); the
//     hypervisor honours the preemption at the next batch boundary so no
//     user-logic state is ever checkpointed.
//
// A planner holds the state these steps share and exposes them one by
// one. Each policy in the package is a composition of the steps:
// Scheduler runs all four (Options switch off preemption and/or
// pipelining for the paper's ablation study, Section 5.6), Energy drops
// the leftover phase and orders candidates by tenant service deficit,
// and Checkpoint wraps the full pass with mid-batch SLO rescue.
package core

import (
	"nimblock/internal/fpga"
	"nimblock/internal/saturate"
	"nimblock/internal/sched"
)

// Options selects Nimblock features; both on is the full algorithm.
type Options struct {
	// Preemption enables batch-preemption of over-consuming applications.
	Preemption bool
	// Pipelining enables cross-batch pipelining of an application's tasks.
	Pipelining bool
}

// DefaultOptions enables the full algorithm.
func DefaultOptions() Options { return Options{Preemption: true, Pipelining: true} }

// satKey caches saturation analyses per application graph, batch and
// board size, so goal numbers recompute when faults shrink the usable
// board. The graph's structural fingerprint, not its name, identifies
// the application: two graphs built under one name must not share a
// goal number. The HLS report is a pure function of the graph, so it
// needs no key of its own.
type satKey struct {
	graph uint64
	batch int
	slots int
}

// planner is the state the Nimblock steps share: the board shape the
// saturation analysis sweeps, the token pool, the analysis cache and the
// candidate scratch slice.
type planner struct {
	opts  Options
	board fpga.Config
	pool  *sched.TokenPool
	cache map[satKey]saturate.Result
	cands []*sched.App // scratch, reused across Schedule calls
}

func newPlanner(opts Options, board fpga.Config) planner {
	return planner{
		opts:  opts,
		board: board,
		pool:  sched.NewTokenPool(),
		cache: map[satKey]saturate.Result{},
	}
}

// candidates accumulates tokens and returns the candidate pool, oldest
// first (Section 4.1). The slice is planner-owned scratch.
func (p *planner) candidates(w sched.World) []*sched.App {
	apps := w.Apps()
	p.pool.Accumulate(w.Now(), apps)
	p.cands = sched.CandidatesInto(p.cands, apps)
	return p.cands
}

// analysis returns the cached saturation analysis for the application on
// a board with the given number of usable slots. The analysis is computed
// from HLS estimates only; on the real system it runs in parallel with
// synthesis, firmly off the user flow's critical path, so treating it as
// pre-computed here is faithful. Re-analysing at a reduced slot count
// when faults quarantine part of the board is cheap for the same reason.
func (p *planner) analysis(a *sched.App, slots int) saturate.Result {
	key := satKey{graph: a.Graph.Fingerprint(), batch: a.Batch, slots: slots}
	if r, ok := p.cache[key]; ok {
		return r
	}
	board := p.board
	board.Slots = slots
	r, err := saturate.AnalyzeCached(a.Graph, a.Report, a.Batch, board, p.opts.Pipelining)
	if err != nil {
		// Conservative fallback: the universally best second slot.
		r = saturate.Result{Goal: 2, MaxUseful: a.Graph.NumTasks()}
	}
	if r.Goal < 1 {
		r.Goal = 1
	}
	if r.MaxUseful < r.Goal {
		r.MaxUseful = r.Goal
	}
	p.cache[key] = r
	return r
}

// updateGoal brings the app's Goal and MaxUseful up to date for a board
// with the given number of usable slots. The app keeps them with the
// slot count they were taken at, so the per-candidate query on every
// scheduling opportunity hashes nothing until faults shrink the board.
func (p *planner) updateGoal(a *sched.App, usable int) {
	if a.GoalSlots == usable {
		return
	}
	r := p.analysis(a, usable)
	a.Goal, a.MaxUseful, a.GoalSlots = r.Goal, r.MaxUseful, usable
}

// goals recomputes SlotsAllocated for every pending application up to
// the goal numbers (Section 4.2, phases 1 and 2) and returns the usable
// slot count and the slots still unallocated. It runs on every
// scheduling opportunity, which subsumes the paper's "periodic intervals
// plus candidate-pool changes" triggers.
func (p *planner) goals(w sched.World, cands []*sched.App) (usable, remaining int) {
	for _, a := range w.Apps() {
		a.SlotsAllocated = 0
	}
	// Budget only the usable slots: a quarantined board degrades into a
	// smaller one and the goal numbers below are recomputed to match.
	usable = w.UsableSlots()
	remaining = usable
	// Phase 1: one slot per candidate, oldest first, so every candidate
	// makes forward progress.
	for _, a := range cands {
		if remaining == 0 {
			return usable, 0
		}
		a.SlotsAllocated = 1
		remaining--
	}
	// Phase 2: raise allocations to the goal number, oldest first.
	for _, a := range cands {
		if remaining == 0 {
			return usable, 0
		}
		p.updateGoal(a, usable)
		remaining -= grant(a, a.Goal, remaining)
	}
	return usable, remaining
}

// leftover is phase 3: hand the slots goals left over to applications
// that can still make use of them, in age order, so older applications
// can pipeline aggressively toward their deadlines.
func (p *planner) leftover(cands []*sched.App, usable, remaining int) {
	for _, a := range cands {
		if remaining == 0 {
			return
		}
		p.updateGoal(a, usable)
		remaining -= grant(a, a.MaxUseful, remaining)
	}
}

// grant raises the application's allocation toward target, by at most
// the remaining slots, and returns how many slots it added.
func grant(a *sched.App, target, remaining int) int {
	add := min(target-a.SlotsAllocated, remaining)
	if add <= 0 {
		return 0
	}
	a.SlotsAllocated += add
	return add
}

// launch picks one task to configure (Section 4.3). Only one slot can be
// reconfigured at a time, so at most one reconfiguration is issued per
// opportunity, and only when the CAP is idle. The first candidate with
// allocation headroom and a configurable task wins; the lowest-index
// free slot hosts it. When that task has no free slot, launch falls
// back to Algorithm 2 if preemption is enabled.
func (p *planner) launch(w sched.World, cands []*sched.App) {
	if w.CAPBusy() {
		return
	}
	for _, a := range cands {
		if a.SlotsAllocated == 0 || a.SlotsUsed() >= a.SlotsAllocated {
			continue
		}
		tasks := a.ConfigurableTasks()
		if len(tasks) == 0 {
			continue
		}
		if free := w.FreeSlots(); len(free) > 0 {
			w.Reconfigure(free[0], a, tasks[0])
			return
		}
		if p.opts.Preemption {
			p.preempt(w)
		}
		return
	}
}

// preempt implements Algorithm 2: select the application that most
// exceeds its slot allocation and batch-preempt its topologically latest
// running task. The paper returns without acting when the victim is
// mid-item and re-evaluates at the next step; our preemption request is
// honoured by the hypervisor at the batch boundary, which yields the same
// boundary-only semantics without re-polling.
func (p *planner) preempt(w sched.World) {
	if preemptPending(w) {
		return // one preemption in flight at a time
	}
	// An app occupying several slots is examined once per slot, but its
	// over-consumption is identical each time and the comparison is
	// strict, so the first slot decides — no dedup set needed.
	var victim *sched.App
	over := 0
	for slot := 0; slot < w.NumSlots(); slot++ {
		a, _, ok := w.SlotOccupant(slot)
		if !ok {
			continue
		}
		if c := a.OverConsumption(); c > over {
			over, victim = c, a
		}
	}
	if victim == nil {
		return // no over-consumer: nothing is preempted
	}
	// Latest task in topological order eliminates the chance of removing
	// a pipelined dependency of another running task.
	rank := victim.Graph.TopoRank()
	bestSlot, bestRank := -1, -1
	for slot := 0; slot < w.NumSlots(); slot++ {
		a, task, ok := w.SlotOccupant(slot)
		if !ok || a != victim || a.TaskState(task) != sched.TaskActive {
			continue
		}
		if rank[task] > bestRank {
			bestRank, bestSlot = rank[task], slot
		}
	}
	if bestSlot >= 0 {
		w.RequestPreempt(bestSlot)
	}
}

// preemptPending reports whether any slot has a preemption in flight.
func preemptPending(w sched.World) bool {
	for slot := 0; slot < w.NumSlots(); slot++ {
		if w.PreemptRequested(slot) {
			return true
		}
	}
	return false
}

// Scheduler is the Nimblock policy and its ablations: every step, in
// order.
type Scheduler struct{ planner }

// New returns a Nimblock scheduler that will plan against boards shaped
// like the given configuration (the saturation analysis sweeps its slot
// count and reconfiguration latency).
func New(opts Options, board fpga.Config) *Scheduler {
	return &Scheduler{newPlanner(opts, board)}
}

// Name implements sched.Scheduler, matching the ablation labels used in
// Figures 9-11 of the paper.
func (s *Scheduler) Name() string {
	switch {
	case s.opts.Preemption && s.opts.Pipelining:
		return "Nimblock"
	case !s.opts.Preemption && s.opts.Pipelining:
		return "NimblockNoPreempt"
	case s.opts.Preemption && !s.opts.Pipelining:
		return "NimblockNoPipe"
	default:
		return "NimblockNoPreemptNoPipe"
	}
}

// Pipelining implements sched.Scheduler.
func (s *Scheduler) Pipelining() bool { return s.opts.Pipelining }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(w sched.World, why sched.Reason) {
	cands := s.candidates(w)
	usable, remaining := s.goals(w, cands)
	s.leftover(cands, usable, remaining)
	s.launch(w, cands)
}
