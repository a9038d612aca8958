package hv_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/experiments"
	"nimblock/internal/faults"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
	"nimblock/internal/workload"
)

// goldenGraph is a 2-task chain with 100 ms items.
func goldenGraph(t *testing.T) *taskgraph.Graph {
	t.Helper()
	b := taskgraph.NewBuilder("golden")
	x := b.AddTask("t0", 100*sim.Millisecond)
	y := b.AddTask("t1", 100*sim.Millisecond)
	b.Chain(x, y)
	return b.MustBuild()
}

// reconfigTime derives the exact per-slot reconfiguration latency from
// the analytic single-slot formula: n*R + batch*work.
func reconfigTime(t *testing.T, g *taskgraph.Graph) sim.Duration {
	t.Helper()
	ss := hv.SingleSlotLatencyFor(hv.DefaultConfig().Board, g, 1)
	return (ss - g.TotalWork()) / sim.Duration(g.NumTasks())
}

// TestGoldenScheduleFCFS pins the exact timeline of one bulk-mode app on
// two slots:
//
//	t=0       arrival; t0 queued on the CAP, t1 behind it (prefetch)
//	t=R       t0 live; items at [R, R+L], [R+L, R+2L]
//	t=2R      t1 live, waits for t0's whole batch (bulk readiness)
//	t=R+2L    t0 done; t1 items at [R+2L, R+3L], [R+3L, R+4L]
//	retire at R+4L (R < L, so reconfigurations hide behind compute)
func TestGoldenScheduleFCFS(t *testing.T) {
	g := goldenGraph(t)
	R := reconfigTime(t, g)
	L := 100 * sim.Millisecond
	if R >= L {
		t.Fatalf("golden schedule assumes R < L (R=%v)", R)
	}
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	cfg.Board.Slots = 2
	h, err := hv.New(eng, cfg, fcfs.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(g, 2, 3, 0); err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.FirstLaunch != sim.Time(0).Add(R) {
		t.Errorf("first launch at %v, want %v", r.FirstLaunch, R)
	}
	want := sim.Time(0).Add(R + 4*L)
	if r.Retire != want {
		t.Errorf("retire at %v, want %v", r.Retire, want)
	}
	if r.Run != 4*L {
		t.Errorf("run = %v, want %v", r.Run, 4*L)
	}
	if r.Reconfig != 2*R {
		t.Errorf("reconfig = %v, want %v", r.Reconfig, 2*R)
	}
}

// TestGoldenScheduleNimblockPipelined pins the pipelined timeline of the
// same app under Nimblock:
//
//	t0 items at [R, R+L], [R+L, R+2L]
//	t1 live at 2R; item 0 ready at R+L (> 2R), so items at
//	[R+L, R+2L], [R+2L, R+3L] — retire at R+3L: pipelining saves L.
func TestGoldenScheduleNimblockPipelined(t *testing.T) {
	g := goldenGraph(t)
	R := reconfigTime(t, g)
	L := 100 * sim.Millisecond
	if 2*R >= R+L {
		t.Fatalf("golden schedule assumes 2R < R+L (R=%v)", R)
	}
	eng := sim.NewEngine()
	cfg := hv.DefaultConfig()
	cfg.Board.Slots = 2
	h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(g, 2, 3, 0); err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	want := sim.Time(0).Add(R + 3*L)
	if r.Retire != want {
		t.Errorf("retire at %v, want %v (pipelining must save one item)", r.Retire, want)
	}
}

// Preempting a free or configuring slot is a contract violation.
func TestRoguePreempt(t *testing.T) {
	eng := sim.NewEngine()
	h, err := hv.New(eng, hv.DefaultConfig(), &roguePreempt{})
	if err != nil {
		t.Fatal(err)
	}
	g := goldenGraph(t)
	if err := h.Submit(g, 1, 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(); err == nil {
		t.Fatal("preempt of empty slot did not fail the run")
	}
}

type roguePreempt struct{ fired bool }

func (r *roguePreempt) Name() string     { return "rogue-preempt" }
func (r *roguePreempt) Pipelining() bool { return false }
func (r *roguePreempt) Schedule(w sched.World, why sched.Reason) {
	if r.fired {
		return
	}
	r.fired = true
	w.RequestPreempt(3) // nothing is configured there
}

// policyDigests pins the exact per-submission outcomes of policyRun for
// every policy in the registry. The timeline tests above pin two
// policies by hand; these pin all of them, so a refactor of any policy
// that changes a single placement, allocation or preemption decision
// shows up here.
var policyDigests = map[string]string{
	"Baseline":                "f1c8a92957db616e",
	"FCFS":                    "92be461620b3f7db",
	"PREMA":                   "4d4cc570fe545ceb",
	"RR":                      "8c6ddfae536d218e",
	"Nimblock":                "33837f496f73aeb5",
	"NimblockNoPreempt":       "ff986cc0e6d04781",
	"NimblockNoPipe":          "ee165747682ee033",
	"NimblockNoPreemptNoPipe": "93ac31cce227a966",
	"NimblockCheckpoint":      "2c8a7ccd1b837eb8",
	"NimblockEnergy":          "37c7f52f9ff951b4",
}

// policyRun drives one fixed-seed board through every path the Nimblock
// variants tell apart: two tenants with different weights on a board
// with a power model (the energy policy's deficit order and goal cap),
// checkpointing with priority-9 arrivals (SLO rescue), and one slot
// quarantined mid-run (goal numbers recomputed at a smaller board). It
// returns an FNV-64a digest over every result and the run's counters.
func policyRun(t *testing.T, name string) (string, *hv.Hypervisor) {
	t.Helper()
	cfg := hv.DefaultConfig()
	cfg.Board.StaticWattsPerSlot = 0.5
	cfg.Board.ActiveWattsPerSlot = 2
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}
	cfg.Board.NewInjector = faults.MustParsePlan("seed 3\ncrc slot=9 prob=1\n").MustFactory()
	cfg.QuarantineThreshold = 2
	pol, err := experiments.NewPolicy(name, cfg.Board)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hv.New(sim.NewEngine(), cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range workload.Generate(workload.Spec{Scenario: workload.Stress, Events: 40}, 1) {
		tenant, weight := "interactive", 2.0
		if i%3 == 0 {
			tenant, weight = "batch", 1
		}
		if _, err := h.SubmitTenant(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival, tenant, weight); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := fnv.New64a()
	for i, r := range res {
		fmt.Fprintf(d, "%d %+v\n", i, r)
	}
	fmt.Fprintf(d, "%+v\n%+v\n", h.Recovery(), h.Energy())
	return fmt.Sprintf("%016x", d.Sum64()), h
}

// TestGoldenPolicyDigests fails when any policy's outcome changes. The
// scenario must keep quarantining a slot and must keep every policy's
// decisions distinct, or a digest could pin a path the run never takes.
func TestGoldenPolicyDigests(t *testing.T) {
	seen := map[string]string{}
	names := make([]string, 0, len(policyDigests))
	for name := range policyDigests {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			got, h := policyRun(t, name)
			if q := h.Recovery().Quarantined; q != 1 {
				t.Fatalf("%d slots quarantined, want 1", q)
			}
			if other, dup := seen[got]; dup {
				t.Fatalf("same outcome as %s: the scenario no longer tells the policies apart", other)
			}
			seen[got] = name
			if want := policyDigests[name]; got != want {
				t.Fatalf("outcome digest %s, want %s", got, want)
			}
		})
	}
}
