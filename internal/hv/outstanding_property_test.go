package hv_test

import (
	"fmt"
	"math/rand"
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/experiments"
	"nimblock/internal/faults"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// recomputeRemaining is the from-scratch definition of the remaining
// HLS estimate: sum over tasks of estimate x items not yet done.
func recomputeRemaining(a *sched.App) sim.Duration {
	var total sim.Duration
	for t := 0; t < a.Graph.NumTasks(); t++ {
		total += a.Report.Task(t).Latency * sim.Duration(a.Batch-a.DoneCount(t))
	}
	return total
}

// checkOutstanding compares every live application's remaining estimate
// and the board's outstanding estimate with a full recomputation.
func checkOutstanding(h *hv.Hypervisor) error {
	var want sim.Duration
	for _, list := range [][]*sched.App{h.Apps(), h.InTransit()} {
		for _, a := range list {
			rem := recomputeRemaining(a)
			if got := a.RemainingEstimate(); got != rem {
				return fmt.Errorf("%v: RemainingEstimate %v, recomputed %v", a, got, rem)
			}
			want += rem
		}
	}
	if got := h.OutstandingEstimate(); got != want {
		return fmt.Errorf("OutstandingEstimate %v, recomputed %v", got, want)
	}
	return nil
}

// outstandingPlan injects CRC faults on slot 9 (quarantined after two),
// slowdowns the watchdog kills, and an early guaranteed hang.
const outstandingPlan = `
seed %d
crc slot=9 prob=1
slow prob=0.3 factor=4 until=60s
hang app=LeNet task=0 prob=1 until=400ms
`

// outstandingConfig builds a board with the fault plan, the watchdog,
// quarantine and (when ckpt is set) checkpoint/restore all enabled.
func outstandingConfig(seed int64, ckpt bool) hv.Config {
	cfg := hv.DefaultConfig()
	cfg.Board.NewInjector = faults.MustParsePlan(fmt.Sprintf(outstandingPlan, seed)).MustFactory()
	cfg.WatchdogFactor = 2
	cfg.WatchdogGrace = 20 * sim.Millisecond
	cfg.QuarantineThreshold = 2
	if ckpt {
		cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}
	}
	return cfg
}

// TestOutstandingEstimateProperty pins the remaining-work bookkeeping
// against full recomputation after every simulator step, across every
// registry policy and fault seeds that exercise watchdog kills, CRC
// quarantine, checkpoint restores, a board evacuation (evacuees
// resubmitted, with their snapshots, to a second board on the same
// engine) and hedge aborts of both a pending and an in-transit
// submission.
func TestOutstandingEstimateProperty(t *testing.T) {
	const seeds = 4
	for name := range policyDigests { // every registry policy
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var kills, quarantined, resumed, aborted, evacuees int
			for seed := int64(1); seed <= seeds; seed++ {
				st := outstandingRun(t, name, seed)
				kills += st.kills
				quarantined += st.quarantined
				resumed += st.resumed
				aborted += st.aborted
				evacuees += st.evacuees
			}
			if kills == 0 || quarantined == 0 || aborted == 0 || evacuees == 0 {
				t.Fatalf("scenario lost coverage: kills=%d quarantined=%d aborted=%d evacuees=%d",
					kills, quarantined, aborted, evacuees)
			}
			if resumed == 0 {
				t.Fatal("no checkpoint restore happened")
			}
		})
	}
}

// check fails the test unless both boards pass checkOutstanding.
func check(t *testing.T, name string, seed int64, boards [2]*hv.Hypervisor) {
	t.Helper()
	for i, h := range boards {
		if err := checkOutstanding(h); err != nil {
			t.Fatalf("%s seed %d board %d at %v: %v", name, seed, i, h.Now(), err)
		}
	}
}

type outstandingStats struct {
	kills, quarantined, resumed, aborted, evacuees int
}

func outstandingRun(t *testing.T, name string, seed int64) outstandingStats {
	t.Helper()
	ckpt := seed%2 == 1
	eng := sim.NewEngine()
	var boards [2]*hv.Hypervisor
	for i := range boards {
		cfg := outstandingConfig(seed+int64(i)*100, ckpt)
		pol, err := experiments.NewPolicy(name, cfg.Board)
		if err != nil {
			t.Fatal(err)
		}
		if boards[i], err = hv.New(eng, cfg, pol); err != nil {
			t.Fatal(err)
		}
	}
	a, b := boards[0], boards[1]
	rng := rand.New(rand.NewSource(seed))
	var onB []int64
	for i, ev := range workload.Generate(workload.Spec{Scenario: workload.Stress, Events: 16}, seed) {
		h := boards[i%2]
		id, err := h.SubmitID(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival)
		if err != nil {
			t.Fatal(err)
		}
		if h == b {
			onB = append(onB, id)
		}
	}
	// A late submission the hedge abort cancels before it arrives.
	late, err := b.SubmitID(apps.MustGraph(apps.LeNet), 2, 3, sim.Time(30*sim.Second))
	if err != nil {
		t.Fatal(err)
	}

	var st outstandingStats
	evacAt := sim.Time(sim.Second) + sim.Time(rng.Intn(2000))*sim.Time(sim.Millisecond)
	abortAt := evacAt + sim.Time(sim.Second)
	evacuated, hedged := false, false
	for steps := 0; eng.Step(); steps++ {
		if steps > 5_000_000 {
			t.Fatalf("%s seed %d: run did not quiesce", name, seed)
		}
		check(t, name, seed, boards)
		now := eng.Now()
		if !evacuated && now >= evacAt {
			evacuated = true
			st.quarantined += a.Recovery().Quarantined
			st.kills += a.Recovery().WatchdogKills
			st.resumed += a.Recovery().ResumedItems
			for _, ev := range a.Evacuate() {
				id, err := b.SubmitID(ev.App.Graph, ev.Batch, ev.Priority, now)
				if err != nil {
					t.Fatal(err)
				}
				if ckpt {
					b.SeedCheckpoints(id, ev.Snapshots)
				}
				st.evacuees++
			}
			if a.OutstandingEstimate() != 0 || a.PendingCount() != 0 {
				t.Fatalf("%s seed %d: evacuated board still holds %v of work", name, seed, a.OutstandingEstimate())
			}
			check(t, name, seed, boards)
		}
		if !hedged && now >= abortAt {
			hedged = true
			for _, id := range []int64{onB[rng.Intn(len(onB))], late} {
				if ok, _ := b.Abort(id); ok {
					st.aborted++
				}
			}
			check(t, name, seed, boards)
		}
	}
	if err := b.Err(); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if b.PendingCount() != 0 || b.OutstandingEstimate() != 0 {
		t.Fatalf("%s seed %d: %d submissions and %v of work left at quiescence",
			name, seed, b.PendingCount(), b.OutstandingEstimate())
	}
	st.quarantined += b.Recovery().Quarantined
	st.kills += b.Recovery().WatchdogKills
	st.resumed += b.Recovery().ResumedItems
	return st
}
