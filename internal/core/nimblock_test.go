package core

import (
	"fmt"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/fpga"
	"nimblock/internal/saturate"
	"nimblock/internal/sched"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

func mkApp(t *testing.T, id int64, name string, batch, prio int, arrival sim.Time) *sched.App {
	t.Helper()
	return schedtest.NewApp(t, id, apps.MustGraph(name), batch, prio, arrival)
}

func board() fpga.Config { return fpga.DefaultConfig() }

// reallocate runs the full scheduler's allocation steps: goals, then
// leftover.
func reallocate(s *Scheduler, w sched.World, cands []*sched.App) {
	usable, remaining := s.goals(w, cands)
	s.leftover(cands, usable, remaining)
}

func TestNames(t *testing.T) {
	cases := map[string]Options{
		"Nimblock":                {Preemption: true, Pipelining: true},
		"NimblockNoPreempt":       {Pipelining: true},
		"NimblockNoPipe":          {Preemption: true},
		"NimblockNoPreemptNoPipe": {},
	}
	for want, opts := range cases {
		s := New(opts, board())
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
		if s.Pipelining() != opts.Pipelining {
			t.Errorf("%s: Pipelining() = %v", want, s.Pipelining())
		}
	}
	if !DefaultOptions().Preemption || !DefaultOptions().Pipelining {
		t.Fatal("DefaultOptions must enable the full algorithm")
	}
}

func TestReallocateOneSlotEachOldestFirst(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(3)
	// Five candidates, more than slots: only the three oldest get a slot.
	for i := 0; i < 5; i++ {
		a := mkApp(t, int64(i+1), apps.LeNet, 2, 3, sim.Time(i))
		a.Candidate = true
		a.CandidateSince = sim.Time(i)
		w.AppList = append(w.AppList, a)
	}
	reallocate(s, w, sched.CandidatesInto(nil, w.AppList))
	for i, a := range w.AppList {
		want := 0
		if i < 3 {
			want = 1
		}
		if a.SlotsAllocated != want {
			t.Errorf("app %d allocated %d, want %d", i, a.SlotsAllocated, want)
		}
	}
}

func TestReallocateGoalNumbers(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(10)
	// Two candidates with plenty of slots: both reach their goal, and
	// leftover goes to the older one up to its max useful count.
	a := mkApp(t, 1, apps.OpticalFlow, 10, 3, 0) // 9-task chain, pipelines well
	b := mkApp(t, 2, apps.LeNet, 10, 3, 1)
	for _, x := range []*sched.App{a, b} {
		x.Candidate = true
		x.CandidateSince = x.Arrival
		w.AppList = append(w.AppList, x)
	}
	reallocate(s, w, sched.CandidatesInto(nil, w.AppList))
	if a.SlotsAllocated < a.Goal || b.SlotsAllocated < b.Goal {
		t.Fatalf("allocations below goal: a=%d/%d b=%d/%d", a.SlotsAllocated, a.Goal, b.SlotsAllocated, b.Goal)
	}
	if a.Goal < 2 {
		t.Fatalf("OpticalFlow goal = %d, want >= 2", a.Goal)
	}
	total := a.SlotsAllocated + b.SlotsAllocated
	if total > 10 {
		t.Fatalf("over-allocated: %d slots", total)
	}
}

func TestReallocateNonCandidatesZeroed(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(4)
	a := mkApp(t, 1, apps.LeNet, 2, 9, 0)
	a.Candidate = true
	b := mkApp(t, 2, apps.LeNet, 2, 1, 0)
	b.Candidate = false
	b.SlotsAllocated = 3 // stale
	w.AppList = []*sched.App{a, b}
	reallocate(s, w, sched.CandidatesInto(nil, w.AppList))
	if b.SlotsAllocated != 0 {
		t.Fatalf("non-candidate kept allocation %d", b.SlotsAllocated)
	}
}

// Allocation invariants under arbitrary candidate mixes.
func TestReallocateInvariants(t *testing.T) {
	names := apps.Names()
	for seed := 0; seed < 25; seed++ {
		s := New(DefaultOptions(), board())
		w := schedtest.NewWorld(10)
		n := seed%7 + 1
		for i := 0; i < n; i++ {
			a := mkApp(t, int64(i+1), names[(seed+i)%len(names)], (seed+i)%workloadMax+1, 3, sim.Time(i))
			a.Candidate = true
			a.CandidateSince = sim.Time(i)
			w.AppList = append(w.AppList, a)
		}
		cands := sched.CandidatesInto(nil, w.AppList)
		reallocate(s, w, cands)
		total := 0
		for _, a := range w.AppList {
			total += a.SlotsAllocated
		}
		if total > 10 {
			t.Fatalf("seed %d: allocated %d > 10 slots", seed, total)
		}
		// Every candidate gets at least one slot when candidates <= slots.
		if len(cands) <= 10 {
			for _, a := range cands {
				if a.SlotsAllocated < 1 {
					t.Fatalf("seed %d: candidate %d starved", seed, a.ID)
				}
			}
		}
	}
}

const workloadMax = 10

func TestSelectRespectsCAP(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(4)
	a := mkApp(t, 1, apps.LeNet, 2, 9, 0)
	w.AppList = []*sched.App{a}
	w.Busy = true
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != 0 {
		t.Fatalf("reconfigured %v while CAP busy", w.Reconfigs)
	}
	w.Busy = false
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != 1 {
		t.Fatalf("reconfigs = %v, want exactly one per opportunity", w.Reconfigs)
	}
}

func TestSelectOldestCandidateFirst(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(4)
	young := mkApp(t, 1, apps.LeNet, 2, 9, 10)
	old := mkApp(t, 2, apps.LeNet, 2, 9, 0)
	w.AppList = []*sched.App{old, young}
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != 1 || w.Reconfigs[0] != "LeNet#2/t0@s0" {
		t.Fatalf("reconfigs = %v, want oldest app first", w.Reconfigs)
	}
}

func TestSelectHonoursAllocation(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(2)
	a := mkApp(t, 1, apps.OpticalFlow, 10, 9, 0)
	b := mkApp(t, 2, apps.OpticalFlow, 10, 9, 1)
	w.AppList = []*sched.App{a, b}
	// Run several scheduling rounds, activating configured tasks so the
	// next round can continue.
	for round := 0; round < 6; round++ {
		s.Schedule(w, sched.ReasonTick)
		w.ActivateConfigured(t)
	}
	if a.SlotsUsed() > a.SlotsAllocated || b.SlotsUsed() > b.SlotsAllocated {
		t.Fatalf("allocation exceeded: a=%d/%d b=%d/%d",
			a.SlotsUsed(), a.SlotsAllocated, b.SlotsUsed(), b.SlotsAllocated)
	}
}

func TestPreemptPicksMaxOverConsumer(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(4)
	// hog uses 3 slots, allocated 1 -> over-consumption 2.
	hog := mkApp(t, 1, apps.OpticalFlow, 10, 1, 0)
	w.Occupy(t, 0, hog, 0)
	w.Occupy(t, 1, hog, 1)
	w.Occupy(t, 2, hog, 2)
	hog.SlotsAllocated = 1
	// mild uses 1 slot, allocated 0 -> over-consumption 1.
	mild := mkApp(t, 2, apps.LeNet, 5, 1, 0)
	w.Occupy(t, 3, mild, 0)
	mild.SlotsAllocated = 0
	w.AppList = []*sched.App{hog, mild}

	s.preempt(w)
	if len(w.Preempts) != 1 {
		t.Fatalf("preempts = %v, want exactly one", w.Preempts)
	}
	// Victim must be the hog's topologically latest running task (task 2
	// in slot 2), never a pipelined dependency.
	if w.Preempts[0] != 2 {
		t.Fatalf("preempted slot %d, want 2 (latest topo task of max over-consumer)", w.Preempts[0])
	}
}

func TestPreemptNoOverConsumer(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(2)
	a := mkApp(t, 1, apps.LeNet, 2, 3, 0)
	w.Occupy(t, 0, a, 0)
	a.SlotsAllocated = 2
	w.AppList = []*sched.App{a}
	s.preempt(w)
	if len(w.Preempts) != 0 {
		t.Fatal("preempted without an over-consumer")
	}
}

func TestPreemptOnePendingAtATime(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(3)
	hog := mkApp(t, 1, apps.OpticalFlow, 10, 1, 0)
	w.Occupy(t, 0, hog, 0)
	w.Occupy(t, 1, hog, 1)
	hog.SlotsAllocated = 1
	w.AppList = []*sched.App{hog}
	s.preempt(w)
	s.preempt(w)
	if len(w.Preempts) != 1 {
		t.Fatalf("preempts = %v, want one while a request is pending", w.Preempts)
	}
}

func TestNoPreemptOptionNeverPreempts(t *testing.T) {
	s := New(Options{Pipelining: true}, board())
	w := schedtest.NewWorld(2)
	hog := mkApp(t, 1, apps.OpticalFlow, 10, 1, 0)
	w.Occupy(t, 0, hog, 0)
	w.Occupy(t, 1, hog, 1)
	hog.SlotsAllocated = 0
	hog.Candidate = true
	newcomer := mkApp(t, 2, apps.LeNet, 2, 9, 1)
	newcomer.Candidate = true
	w.AppList = []*sched.App{hog, newcomer}
	s.Schedule(w, sched.ReasonTick)
	if len(w.Preempts) != 0 {
		t.Fatalf("NoPreempt variant preempted: %v", w.Preempts)
	}
}

func TestAnalysisFallbackSane(t *testing.T) {
	s := New(DefaultOptions(), board())
	a := mkApp(t, 1, apps.AlexNet, 5, 3, 0)
	slots := board().Slots
	an := s.analysis(a, slots)
	if an.Goal < 1 || an.MaxUseful < an.Goal {
		t.Fatalf("analysis = %+v", an)
	}
	// Cached result is stable.
	an2 := s.analysis(a, slots)
	if an.Goal != an2.Goal || an.MaxUseful != an2.MaxUseful {
		t.Fatal("analysis cache unstable")
	}
	// A degraded board caps the useful allocation at its usable size.
	if deg := s.analysis(a, 2); deg.Goal > 2 || deg.MaxUseful > 2 {
		t.Fatalf("degraded analysis = %+v, want goal and max within 2 slots", deg)
	}
}

// The goal numbers an app keeps between scheduling opportunities must
// follow the usable slot count: when faults shrink the board, the next
// pass re-analyses at the smaller size.
func TestGoalFollowsUsableSlots(t *testing.T) {
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(10)
	a := mkApp(t, 1, apps.AlexNet, 5, 3, 0)
	w.AppList = []*sched.App{a}
	s.Schedule(w, sched.ReasonTick)
	full := s.analysis(a, 10)
	if a.Goal != full.Goal || a.MaxUseful != full.MaxUseful || a.GoalSlots != 10 {
		t.Fatalf("goal %d max %d at %d slots, want %+v at 10", a.Goal, a.MaxUseful, a.GoalSlots, full)
	}
	for slot := 2; slot < 10; slot++ {
		w.Offline[slot] = true
	}
	s.Schedule(w, sched.ReasonTick)
	deg := s.analysis(a, 2)
	if deg.Goal == full.Goal && deg.MaxUseful == full.MaxUseful {
		t.Fatal("the scenario does not tell the two board sizes apart")
	}
	if a.Goal != deg.Goal || a.MaxUseful != deg.MaxUseful || a.GoalSlots != 2 {
		t.Fatalf("goal %d max %d at %d slots after degrading, want %+v at 2", a.Goal, a.MaxUseful, a.GoalSlots, deg)
	}
}

// Two different graphs submitted under one name must not share a goal
// number: the saturation cache keys by graph structure, not by name.
func TestGoalKeyedByGraphNotName(t *testing.T) {
	chain := taskgraph.NewBuilder("job")
	chain.AddTask("t0", 100*sim.Millisecond)
	wide := taskgraph.NewBuilder("job")
	for i := 0; i < 6; i++ {
		wide.AddTask(fmt.Sprintf("t%d", i), 100*sim.Millisecond)
	}
	s := New(DefaultOptions(), board())
	w := schedtest.NewWorld(10)
	first := schedtest.NewApp(t, 1, chain.MustBuild(), 4, 3, 0)
	w.AppList = []*sched.App{first}
	s.Schedule(w, sched.ReasonArrival)

	second := schedtest.NewApp(t, 2, wide.MustBuild(), 4, 3, 0)
	w.AppList = []*sched.App{second}
	s.Schedule(w, sched.ReasonArrival)
	own, err := saturate.AnalyzeCached(second.Graph, second.Report, second.Batch, board(), true)
	if err != nil {
		t.Fatal(err)
	}
	if second.Goal != own.Goal || own.Goal == first.Goal {
		t.Fatalf("wide graph goal %d, want its own analysis %d (chain sharing its name got %d)", second.Goal, own.Goal, first.Goal)
	}
}
