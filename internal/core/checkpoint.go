package core

import (
	"nimblock/internal/bitstream"
	"nimblock/internal/fpga"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// SLOFactor scales an application's single-slot latency estimate into
// its deadline (arrival + SLOFactor x estimate); 3x is the paper's mid
// "loose" deadline tier (Section 5.4).
const SLOFactor = 3.0

// RescuePriority is the minimum priority eligible for SLO-rescue
// preemption: only the paper's highest (real-time) tier.
const RescuePriority = 9

// Checkpoint is NimblockCheckpoint: the full Nimblock pass plus
// mid-batch SLO-rescue preemption built on the checkpoint/restore
// subsystem.
//
// Plain Nimblock only preempts at batch boundaries, so a high-priority
// arrival can wait out an entire item of a long-running low-priority
// batch before a slot frees. When the hypervisor runs with
// Config.Checkpoint enabled, a preemption request is honoured mid-item:
// the victim checkpoints at its latest passed preemption point, releases
// the slot, and resumes from the snapshot later. This policy exploits
// that: when a RescuePriority application is pending with no slots and
// its projected completion would miss its SLO, it requests preemption of
// the busiest lower-priority mid-item victim instead of waiting for a
// boundary. Deadlines are computed policy-side from the HLS report and
// board bandwidths.
type Checkpoint struct {
	Scheduler
	est map[estKey]sim.Duration
}

// estKey caches single-slot estimates per application graph and batch,
// keyed by fingerprint for the same reason as satKey.
type estKey struct {
	graph uint64
	batch int
}

// NewCheckpoint returns a NimblockCheckpoint scheduler planning against
// boards shaped like the given configuration.
func NewCheckpoint(board fpga.Config) *Checkpoint {
	return &Checkpoint{Scheduler{newPlanner(DefaultOptions(), board)}, map[estKey]sim.Duration{}}
}

// Name implements sched.Scheduler.
func (s *Checkpoint) Name() string { return "NimblockCheckpoint" }

// Schedule implements sched.Scheduler. An SLO-missed rescue-priority
// application claims a free slot before the core pass can hand it back
// to an older candidate (the usual fate of a slot a rescue just freed);
// the core pass then runs with its over-consumption preemption blinded
// to rescue-priority occupants, so it cannot immediately evict the app
// the rescue placed; finally the SLO-rescue check preempts a victim for
// whatever is still pending and past its slack.
func (s *Checkpoint) Schedule(w sched.World, why sched.Reason) {
	s.place(w)
	s.Scheduler.Schedule(guardedWorld{w}, why)
	s.rescue(w)
}

// guardedWorld passes everything through except preemption requests
// against rescue-priority occupants: a rescued real-time application
// must not be evicted on behalf of a lower-priority over-consumption
// claim, or the rescue and the core pass livelock swapping the slot.
type guardedWorld struct{ sched.World }

func (g guardedWorld) RequestPreempt(slot int) error {
	if a, _, ok := g.World.SlotOccupant(slot); ok && a.Priority >= RescuePriority {
		return nil // declined: the occupant outranks boundary preemption
	}
	return g.World.RequestPreempt(slot)
}

// place gives an SLO-missed rescue-priority application first claim on
// a free slot. The core pass allocates oldest-candidate-first, so
// without this the slot a rescue freed would go straight back to the
// long-waiting victim it was taken from.
func (s *Checkpoint) place(w sched.World) {
	if w.CAPBusy() {
		return
	}
	free := w.FreeSlots()
	if len(free) == 0 {
		return
	}
	urgent := s.urgent(w)
	if urgent == nil {
		return
	}
	if tasks := urgent.ConfigurableTasks(); len(tasks) > 0 {
		w.Reconfigure(free[0], urgent, tasks[0])
	}
}

// estimate is the application's single-slot latency from HLS estimates
// alone: one reconfiguration per task plus the serial batch.
func (s *Checkpoint) estimate(a *sched.App) sim.Duration {
	key := estKey{graph: a.Graph.Fingerprint(), batch: a.Batch}
	if d, ok := s.est[key]; ok {
		return d
	}
	bytes := float64(bitstream.SlotImageBytes + bitstream.HeaderBytes)
	r := sim.Seconds(bytes/s.board.SDBytesPerSec) + sim.Seconds(bytes/s.board.CAPBytesPerSec)
	var work sim.Duration
	for t := 0; t < a.Graph.NumTasks(); t++ {
		work += a.Report.Task(t).Latency
	}
	d := sim.Duration(a.Graph.NumTasks())*r + sim.Duration(a.Batch)*work
	s.est[key] = d
	return d
}

// urgent returns the oldest pending rescue-priority application that
// would miss its deadline even if it started right now, or nil.
func (s *Checkpoint) urgent(w sched.World) *sched.App {
	now := w.Now()
	var urgent *sched.App
	for _, a := range w.Apps() {
		if a.Priority < RescuePriority || a.SlotsUsed() > 0 {
			continue
		}
		if len(a.ConfigurableTasks()) == 0 {
			continue
		}
		est := s.estimate(a)
		deadline := a.Arrival.Add(sim.Duration(float64(est) * SLOFactor))
		if now.Add(est) <= deadline {
			continue // still on track even if it starts right now
		}
		if urgent == nil || a.Arrival < urgent.Arrival {
			urgent = a
		}
	}
	return urgent
}

// rescue issues at most one mid-item preemption per opportunity: when
// the oldest pending rescue-priority application has no slots, none are
// free, and its projected completion (start now, run single-slot) would
// land past its deadline, the busiest lower-priority mid-item occupant
// is preempted. Boundary-waiting tasks are left to the core pass's own
// (cheaper) boundary preemption.
func (s *Checkpoint) rescue(w sched.World) {
	if preemptPending(w) {
		return // one preemption in flight at a time, shared with the core pass
	}
	if len(w.FreeSlots()) > 0 {
		return // a slot is already available; the core pass will use it
	}
	urgent := s.urgent(w)
	if urgent == nil {
		return
	}
	// Victim: the mid-item slot whose lower-priority occupant has the
	// most estimated work remaining — the one a boundary wait would stall
	// behind longest. Ties keep the lowest slot.
	victimSlot := -1
	var victimRem sim.Duration
	for slot := 0; slot < w.NumSlots(); slot++ {
		a, task, ok := w.SlotOccupant(slot)
		if !ok || a.Priority >= urgent.Priority {
			continue
		}
		if a.TaskState(task) != sched.TaskActive {
			continue
		}
		if rem := a.RemainingEstimate(); victimSlot == -1 || rem > victimRem {
			victimSlot, victimRem = slot, rem
		}
	}
	if victimSlot >= 0 {
		w.RequestPreempt(victimSlot)
	}
}
