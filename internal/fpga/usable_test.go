package fpga_test

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/bitstream"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/fpga"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
)

// recount is the definition UsableSlots caches: slots not offline.
func recount(b *fpga.Board) int {
	n := 0
	for i := 0; i < b.NumSlots(); i++ {
		if b.Slot(i).State != fpga.SlotOffline {
			n++
		}
	}
	return n
}

func checkUsable(t *testing.T, b *fpga.Board, when string) {
	t.Helper()
	if got, want := b.UsableSlots(), recount(b); got != want {
		t.Fatalf("%s: UsableSlots %d, recount %d", when, got, want)
	}
}

// The cached usable count must track every way a slot leaves service on
// the board itself: a free slot goes offline at once, a reconfiguring
// one when its stream fails, and a loaded one only after release.
func TestUsableSlotsMatchesRecount(t *testing.T) {
	eng := sim.NewEngine()
	b, err := fpga.NewBoard(eng, fpga.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := func(slot int) *bitstream.Image {
		return &bitstream.Image{Header: bitstream.Header{Slot: slot}, Bytes: bitstream.SlotImageBytes + bitstream.HeaderBytes}
	}
	checkUsable(t, b, "fresh board")

	if err := b.SetOffline(0); err != nil {
		t.Fatal(err)
	}
	checkUsable(t, b, "free slot offline")

	if err := b.Reconfigure(1, img(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.SetOffline(1); err != nil {
		t.Fatal(err)
	}
	checkUsable(t, b, "reconfiguring slot marked")
	eng.Run()
	checkUsable(t, b, "reconfiguring slot's stream failed")

	if err := b.Reconfigure(2, img(2), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := b.SetOffline(2); err == nil {
		t.Fatal("SetOffline of a loaded slot accepted")
	}
	checkUsable(t, b, "loaded slot refused")
	if err := b.Release(2); err != nil {
		t.Fatal(err)
	}
	if err := b.SetOffline(2); err != nil {
		t.Fatal(err)
	}
	checkUsable(t, b, "released slot offline")
	if got := b.UsableSlots(); got != b.NumSlots()-3 {
		t.Fatalf("usable %d after three slots left service", got)
	}
}

// Permanent slot deaths reach the board through the hypervisor's
// forceOffline, which kills a running occupant first. The count must
// match a recount after every simulator step, for a slot that dies
// free, one that dies mid-reconfiguration and one that dies loaded.
func TestUsableSlotsAfterForceOffline(t *testing.T) {
	cfg := hv.DefaultConfig()
	cfg.Board.NewInjector = faults.MustParsePlan(`
dead slot=9 at=1ms
dead slot=0 at=40ms
dead slot=1 at=2s
`).MustFactory()
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board))
	if err != nil {
		t.Fatal(err)
	}
	// AlexNet's 38 tasks keep slot 1 loaded at 2 s and the seven
	// surviving slots busy, with no slot starvation after the deaths.
	if err := h.Submit(apps.MustGraph(apps.AlexNet), 4, 3, 0); err != nil {
		t.Fatal(err)
	}
	b := h.Board()
	seen := map[fpga.SlotState]bool{}
	for _, probe := range []struct {
		slot int
		at   sim.Time
	}{{9, sim.Time(sim.Millisecond)}, {0, 40 * sim.Time(sim.Millisecond)}, {1, 2 * sim.Time(sim.Second)}} {
		eng.At(probe.at-1, func() { seen[b.Slot(probe.slot).State] = true })
	}
	for steps := 0; eng.Step(); steps++ {
		checkUsable(t, b, eng.Now().String())
		if steps > 1_000_000 {
			t.Fatalf("no quiescence by %v", eng.Now())
		}
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if !seen[fpga.SlotFree] || !seen[fpga.SlotReconfiguring] || !seen[fpga.SlotLoaded] {
		t.Fatalf("slot states just before the deaths: %v, want free, reconfiguring and loaded", seen)
	}
	if got := b.UsableSlots(); got != b.NumSlots()-3 {
		t.Fatalf("usable %d after three deaths", got)
	}
}
