package hv

import (
	"math/rand"
	"slices"
	"testing"

	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// pollSave is the tick a timer re-armed every period would save at: the
// first j = 1, 2, ... with since + j*P before completion whose snapshot
// is newer than have, or 0.
func pollSave(h *Hypervisor, rt *slotRuntime, a *sched.App, since, have sim.Duration) int64 {
	p := h.cfg.Checkpoint.Period
	for j := int64(1); since+sim.Duration(j)*p < rt.itemLat; j++ {
		if h.saveSnap(rt, a, 0, since+sim.Duration(j)*p) > have {
			return j
		}
	}
	return 0
}

// TestNextSaveMatchesPolling checks the binary search against a linear
// poll on randomized stretches: slowdown factors 1, 1.37, 2 and 3.5,
// restored and earlier-stretch progress, declared checkpoints and
// uniform default points, an existing snapshot, a search that starts
// mid-stretch, and stretches ending exactly on a tick.
func TestNextSaveMatchesPolling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	factors := []float64{1, 1.37, 2, 3.5}
	onTick := 0
	for trial := 0; trial < 5000; trial++ {
		nominal := sim.Duration(1000 + rng.Int63n(400_000))
		b := taskgraph.NewBuilder("stretch")
		b.AddTask("k", nominal)
		if rng.Intn(2) == 0 {
			var pts []float64
			for range 1 + rng.Intn(6) {
				pts = append(pts, 0.01+0.98*rng.Float64())
			}
			slices.Sort(pts)
			b.SetCheckpoints(0, slices.Compact(pts)...)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		a := &sched.App{Graph: g}
		rt := &slotRuntime{factor: factors[rng.Intn(len(factors))]}
		if rng.Intn(2) == 0 {
			rt.base = sim.Duration(rng.Int63n(int64(nominal) / 2))
		}
		if rng.Intn(2) == 0 {
			rt.doneNominal = sim.Duration(rng.Int63n(int64(nominal) / 3))
		}
		rt.itemLat = stretchDur(nominal-rt.base-rt.doneNominal, rt.factor)
		ticks := 1 + rng.Int63n(3000)
		period := max(1, rt.itemLat/sim.Duration(ticks))
		if rng.Intn(4) == 0 {
			// The stretch ends exactly on a tick: that tick never saves.
			rt.itemLat = sim.Duration(ticks) * period
			onTick++
		}
		h := &Hypervisor{cfg: Config{Checkpoint: CheckpointConfig{
			Period:        period,
			DefaultPoints: 1 + rng.Intn(12),
		}}}
		var since, have sim.Duration
		if rng.Intn(3) == 0 {
			// Resume the search mid-stretch on the tick grid.
			since = sim.Duration(rng.Int63n(ticks)) * period
		}
		switch rng.Intn(3) {
		case 0:
			have = rt.base // the snapshot this attempt restored from
		case 1:
			have = h.saveSnap(rt, a, 0, since) // captured at the search origin
		}
		got := h.nextSave(rt, a, 0, since, have)
		if want := pollSave(h, rt, a, since, have); got != want {
			t.Fatalf("trial %d: nextSave = %d, polling saves at tick %d (nominal %v base %v done %v factor %v lat %v period %v since %v have %v)",
				trial, got, want, nominal, rt.base, rt.doneNominal, rt.factor, rt.itemLat, period, since, have)
		}
	}
	if onTick == 0 {
		t.Fatal("no stretch ended on a tick")
	}
}

// TestNextSaveSkipsCompletionTick pins the tie rule: a point first
// reached on the tick where the stretch completes is not saved, because
// the completion was armed first and fires first.
func TestNextSaveSkipsCompletionTick(t *testing.T) {
	b := taskgraph.NewBuilder("tie")
	b.AddTask("k", 1000)
	g, err := b.SetCheckpoints(0, 0.95).Build()
	if err != nil {
		t.Fatal(err)
	}
	a := &sched.App{Graph: g}
	h := &Hypervisor{cfg: Config{Checkpoint: CheckpointConfig{Period: 300}}}
	// Restored at 100 of 1000: ticks at 300 and 600 pass no point, and
	// the tick at 900 reaches the 0.95 point.
	rt := &slotRuntime{base: 100, factor: 1, itemLat: 900}
	if snap := h.saveSnap(rt, a, 0, 900); snap != 950 {
		t.Fatalf("snapshot at the completion tick = %v, want 950", snap)
	}
	if j := h.nextSave(rt, a, 0, 0, 100); j != 0 {
		t.Fatalf("nextSave armed tick %d at the completion instant", j)
	}
	rt.itemLat = 901
	if j := h.nextSave(rt, a, 0, 0, 100); j != 3 {
		t.Fatalf("nextSave = %d one microsecond before completion, want 3", j)
	}
}
