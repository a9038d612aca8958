package rr

import (
	"strings"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/sched"
	"nimblock/internal/sched/schedtest"
)

func TestIdentity(t *testing.T) {
	s := New()
	if s.Name() != "RR" || s.Pipelining() {
		t.Fatalf("identity: name=%q pipelining=%v", s.Name(), s.Pipelining())
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	s := New()
	w := schedtest.NewWorld(3)
	a := schedtest.NewApp(t, 1, apps.MustGraph(apps.ImageCompression), 2, 3, 0)
	w.AppList = []*sched.App{a}
	s.Schedule(w, sched.ReasonArrival)
	// The chain prefix spreads across distinct slots (shortest queue
	// first), so three different slots are configured.
	if len(w.Reconfigs) != 3 {
		t.Fatalf("reconfigs = %v", w.Reconfigs)
	}
	used := map[string]bool{}
	for _, rc := range w.Reconfigs {
		used[rc[strings.Index(rc, "@"):]] = true
	}
	if len(used) != 3 {
		t.Fatalf("tasks not distributed round-robin: %v", w.Reconfigs)
	}
}

func TestPriorityOrderWithinQueue(t *testing.T) {
	s := New()
	// Single slot: everything lands in the same queue; priority decides.
	w := schedtest.NewWorld(1)
	lo := schedtest.NewApp(t, 1, apps.MustGraph(apps.LeNet), 1, 1, 0)
	hi := schedtest.NewApp(t, 2, apps.MustGraph(apps.LeNet), 1, 9, 1)
	w.AppList = []*sched.App{lo, hi}
	s.Schedule(w, sched.ReasonArrival)
	if len(w.Reconfigs) != 1 {
		t.Fatalf("reconfigs = %v", w.Reconfigs)
	}
	// The slot was free at issue time, so the first issued task (lo.t0)
	// dispatched immediately; the queue now orders hi ahead of lo's
	// remaining tasks. Free the slot and re-schedule.
	w.FinishTask(t, 0)
	s.Schedule(w, sched.ReasonSlotFree)
	if len(w.Reconfigs) != 2 || !strings.HasPrefix(w.Reconfigs[1], "LeNet#2") {
		t.Fatalf("reconfigs = %v, want high-priority task next", w.Reconfigs)
	}
}

func TestStaleEntriesSkipped(t *testing.T) {
	s := New()
	w := schedtest.NewWorld(2)
	a := schedtest.NewApp(t, 1, apps.MustGraph(apps.LeNet), 1, 3, 0)
	w.AppList = []*sched.App{a}
	// Drive the whole app to completion through the scheduler.
	for round := 0; round < 10 && !a.Done(); round++ {
		s.Schedule(w, sched.ReasonTick)
		for slot := 0; slot < 2; slot++ {
			if _, ok := w.Occupants[slot]; ok {
				w.FinishTask(t, slot)
			}
		}
	}
	if !a.Done() {
		t.Fatal("app never finished under RR")
	}
	a.Retire()
	w.AppList = nil
	// Any queue entries left behind are stale: scheduling must not
	// reconfigure anything.
	n := len(w.Reconfigs)
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != n {
		t.Fatalf("stale entries dispatched: %v", w.Reconfigs[n:])
	}
}

func TestTasksIssuedOnce(t *testing.T) {
	s := New()
	w := schedtest.NewWorld(1)
	a := schedtest.NewApp(t, 1, apps.MustGraph(apps.Rendering3D), 1, 3, 0)
	w.AppList = []*sched.App{a}
	s.Schedule(w, sched.ReasonArrival)
	s.Schedule(w, sched.ReasonTick)
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != 1 {
		t.Fatalf("reconfigs = %v; a queued task was re-issued", w.Reconfigs)
	}
}

// A task whose reconfiguration faulted is handed back idle; it must be
// issued again rather than stranded, or the application never finishes.
func TestReissuesTaskAfterFailedReconfiguration(t *testing.T) {
	s := New()
	w := schedtest.NewWorld(1)
	a := schedtest.NewApp(t, 1, apps.MustGraph(apps.LeNet), 2, 3, 0)
	w.AppList = []*sched.App{a}
	s.Schedule(w, sched.ReasonArrival)
	if len(w.Reconfigs) != 1 {
		t.Fatalf("reconfigs = %v, want one", w.Reconfigs)
	}
	if err := a.MarkConfigFailed(0); err != nil {
		t.Fatal(err)
	}
	delete(w.Occupants, 0)
	s.Schedule(w, sched.ReasonSlotFree)
	if len(w.Reconfigs) != 2 || w.Reconfigs[1] != w.Reconfigs[0] {
		t.Fatalf("reconfigs = %v, want the failed task configured again", w.Reconfigs)
	}
}
