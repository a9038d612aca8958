package core

import (
	"strings"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/sched"
	"nimblock/internal/sched/schedtest"
	"nimblock/internal/sim"
)

func tenantApp(t *testing.T, id int64, tenant string, weight float64, arrival sim.Time) *sched.App {
	t.Helper()
	a := schedtest.NewApp(t, id, apps.MustGraph(apps.LeNet), 2, 3, arrival)
	a.Tenant, a.Weight = tenant, weight
	return a
}

func TestEnergyNameAndPipelining(t *testing.T) {
	s := NewEnergy(board())
	if s.Name() != "NimblockEnergy" {
		t.Fatalf("name %q", s.Name())
	}
	if !s.Pipelining() {
		t.Fatal("pipelining should be on")
	}
}

// The most underserved tenant's application must win the CAP even when
// it arrived later.
func TestDeficitOrderingLaunchesUnderservedTenant(t *testing.T) {
	w := schedtest.NewWorld(10)
	a := tenantApp(t, 1, "rich", 1, 0)
	b := tenantApp(t, 2, "poor", 1, 1)
	w.AppList = []*sched.App{a, b}
	w.Service["rich"] = 5 * sim.Second
	w.Service["poor"] = sim.Second
	s := NewEnergy(board())
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != 1 || !strings.HasPrefix(w.Reconfigs[0], "LeNet#2/") {
		t.Fatalf("reconfigs %v, want app 2 (tenant poor) first", w.Reconfigs)
	}
}

// Weights divide service: a half-weight tenant with the same raw
// service is twice as overserved, so the full-weight tenant launches.
func TestDeficitOrderingRespectsWeights(t *testing.T) {
	w := schedtest.NewWorld(10)
	a := tenantApp(t, 1, "half", 0.5, 0)
	b := tenantApp(t, 2, "full", 1, 1)
	w.AppList = []*sched.App{a, b}
	w.Service["half"] = 2 * sim.Second
	w.Service["full"] = 3 * sim.Second
	s := NewEnergy(board())
	s.Schedule(w, sched.ReasonTick)
	// half: 2s/0.5 = 4s effective; full: 3s/1 = 3s effective -> full first.
	if len(w.Reconfigs) != 1 || !strings.HasPrefix(w.Reconfigs[0], "LeNet#2/") {
		t.Fatalf("reconfigs %v, want app 2 (tenant full) first", w.Reconfigs)
	}
}

// Equal deficits fall back to Nimblock's age order deterministically.
func TestEqualDeficitFallsBackToAgeOrder(t *testing.T) {
	w := schedtest.NewWorld(10)
	a := tenantApp(t, 1, "t0", 1, 0)
	b := tenantApp(t, 2, "t1", 1, 1)
	w.AppList = []*sched.App{a, b}
	s := NewEnergy(board())
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != 1 || !strings.HasPrefix(w.Reconfigs[0], "LeNet#1/") {
		t.Fatalf("reconfigs %v, want oldest app first on equal deficit", w.Reconfigs)
	}
}

// Allocation stops at the goal number: with one candidate on a big
// board, slots past the saturation goal stay free (the leftover phase
// would hand them out).
func TestAllocationCappedAtGoal(t *testing.T) {
	w := schedtest.NewWorld(10)
	a := tenantApp(t, 1, "t0", 1, 0)
	w.AppList = []*sched.App{a}
	s := NewEnergy(board())
	s.Schedule(w, sched.ReasonTick)
	if a.Goal < 1 {
		t.Fatalf("goal %d not computed", a.Goal)
	}
	if a.SlotsAllocated != a.Goal {
		t.Fatalf("allocated %d slots, want goal %d exactly", a.SlotsAllocated, a.Goal)
	}
	if a.SlotsAllocated >= w.Slots {
		t.Fatalf("goal allocation %d consumed the whole board; energy lever is gone", a.SlotsAllocated)
	}
}

// The launch must use the lowest-index free slot.
func TestLaunchPicksLowestFreeSlot(t *testing.T) {
	w := schedtest.NewWorld(4)
	blocker := tenantApp(t, 9, "x", 1, 0)
	w.Occupy(t, 0, blocker, 0)
	a := tenantApp(t, 1, "t0", 1, 0)
	w.AppList = []*sched.App{a}
	s := NewEnergy(board())
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != 1 || !strings.HasSuffix(w.Reconfigs[0], "@s1") {
		t.Fatalf("reconfigs %v, want slot 1 (lowest free)", w.Reconfigs)
	}
}

// No launch while the CAP streams.
func TestNoLaunchWhileCAPBusy(t *testing.T) {
	w := schedtest.NewWorld(4)
	w.Busy = true
	a := tenantApp(t, 1, "t0", 1, 0)
	w.AppList = []*sched.App{a}
	s := NewEnergy(board())
	s.Schedule(w, sched.ReasonTick)
	if len(w.Reconfigs) != 0 {
		t.Fatalf("reconfigured with busy CAP: %v", w.Reconfigs)
	}
}

// With every slot taken and an over-consumer on board, the policy
// requests exactly one batch preemption.
func TestPreemptsOverConsumer(t *testing.T) {
	w := schedtest.NewWorld(2)
	hog := tenantApp(t, 1, "hog", 1, 0)
	hog.SlotsAllocated = 1 // uses 2
	w.Occupy(t, 0, hog, 0)
	w.Occupy(t, 1, hog, 1)
	starved := tenantApp(t, 2, "starved", 1, 1)
	w.AppList = []*sched.App{hog, starved}
	s := NewEnergy(board())
	s.Schedule(w, sched.ReasonTick)
	if len(w.Preempts) != 1 {
		t.Fatalf("preempts %v, want exactly one", w.Preempts)
	}
}
