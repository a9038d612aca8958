package bitstream

import (
	"testing"

	"nimblock/internal/hls"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

func graphAndReport(t *testing.T, tasks int) (*taskgraph.Graph, *hls.Report) {
	t.Helper()
	b := taskgraph.NewBuilder("app")
	ids := make([]int, tasks)
	for i := range ids {
		ids[i] = b.AddTask("t", 10*sim.Millisecond)
	}
	b.Chain(ids...)
	g := b.MustBuild()
	return g, hls.Analyze(g)
}

func TestRegisterGeneratesPerSlotImages(t *testing.T) {
	g, r := graphAndReport(t, 3)
	s := NewStore()
	if err := s.Register(g, r, 10, 5, 9); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 30 {
		t.Fatalf("Count = %d, want 3 tasks x 10 slots = 30", s.Count())
	}
	im, err := s.Lookup("app", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := im.Header
	if h.App != "app" || h.Task != 2 || h.Slot != 7 || h.Batch != 5 || h.Priority != 9 {
		t.Fatalf("header = %+v", h)
	}
	if h.Estimate != r.Task(2) {
		t.Fatalf("header estimate %v, want %v", h.Estimate, r.Task(2))
	}
	if h.NumInputs != 1 {
		t.Fatalf("NumInputs = %d, want 1 (chain)", h.NumInputs)
	}
}

func TestRegisterIdempotentBytes(t *testing.T) {
	g, r := graphAndReport(t, 2)
	s := NewStore()
	if err := s.Register(g, r, 4, 1, 1); err != nil {
		t.Fatal(err)
	}
	b1 := s.Bytes()
	if err := s.Register(g, r, 4, 1, 1); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != b1 {
		t.Fatalf("re-register changed byte accounting: %d -> %d", b1, s.Bytes())
	}
	want := int64(8 * (SlotImageBytes + HeaderBytes))
	if b1 != want {
		t.Fatalf("Bytes = %d, want %d", b1, want)
	}
}

func TestRegisterValidation(t *testing.T) {
	g, r := graphAndReport(t, 2)
	s := NewStore()
	if err := s.Register(g, r, 0, 1, 1); err == nil {
		t.Fatal("zero slots accepted")
	}
	g2, _ := graphAndReport(t, 3)
	if err := s.Register(g2, r, 2, 1, 1); err == nil {
		t.Fatal("mismatched HLS report accepted")
	}
}

func TestLookupMissing(t *testing.T) {
	s := NewStore()
	if _, err := s.Lookup("ghost", 0, 0); err == nil {
		t.Fatal("lookup of missing image succeeded")
	}
}

func TestLoadTime(t *testing.T) {
	im := &Image{Bytes: 1_000_000}
	if got := im.LoadTime(1_000_000); got != sim.Second {
		t.Fatalf("LoadTime = %v, want 1s", got)
	}
	if got := im.LoadTime(0); got != 0 {
		t.Fatalf("LoadTime with zero bandwidth = %v, want 0", got)
	}
}

func TestRelocatableRegistration(t *testing.T) {
	g, r := graphAndReport(t, 3)
	s := NewStore()
	if err := s.RegisterRelocatable(g, r, 5, 9); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want one image per task", s.Count())
	}
	// Any slot resolves to the relocatable image.
	for slot := 0; slot < 10; slot++ {
		im, err := s.Lookup("app", 1, slot)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if im.Header.Slot != RelocatableSlot {
			t.Fatalf("slot %d resolved to %+v", slot, im.Header)
		}
	}
}

func TestRelocationStorageSavings(t *testing.T) {
	g, r := graphAndReport(t, 4)
	perSlot, reloc := NewStore(), NewStore()
	if err := perSlot.Register(g, r, 10, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := reloc.RegisterRelocatable(g, r, 1, 1); err != nil {
		t.Fatal(err)
	}
	if perSlot.Bytes() != 10*reloc.Bytes() {
		t.Fatalf("savings factor: %d vs %d bytes", perSlot.Bytes(), reloc.Bytes())
	}
}

func TestPerSlotImagePreferredOverRelocatable(t *testing.T) {
	g, r := graphAndReport(t, 1)
	s := NewStore()
	s.RegisterRelocatable(g, r, 1, 1)
	s.Register(g, r, 2, 1, 1)
	im, err := s.Lookup("app", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if im.Header.Slot != 1 {
		t.Fatalf("lookup preferred %+v over the per-slot image", im.Header)
	}
}

// Re-registering an application refreshes every stored header in place:
// Lookup keeps returning the same *Image (holders see the new metadata)
// and the image count and byte accounting do not move.
func TestReRegisterRefreshesInPlace(t *testing.T) {
	g, r := graphAndReport(t, 3)
	s := NewStore()
	if err := s.Register(g, r, 4, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterRelocatable(g, r, 2, 1); err != nil {
		t.Fatal(err)
	}
	count, bytes := s.Count(), s.Bytes()
	if count != 3*4+3 {
		t.Fatalf("Count = %d, want 12 per-slot + 3 relocatable", count)
	}
	before := map[[2]int]*Image{}
	for task := 0; task < 3; task++ {
		for _, slot := range []int{0, 3, RelocatableSlot} {
			im, err := s.Lookup("app", task, slot)
			if err != nil {
				t.Fatal(err)
			}
			before[[2]int{task, slot}] = im
		}
	}
	if err := s.Register(g, r, 4, 7, 9); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterRelocatable(g, r, 7, 9); err != nil {
		t.Fatal(err)
	}
	if s.Count() != count || s.Bytes() != bytes {
		t.Fatalf("re-registration moved accounting: %d images %d bytes, want %d and %d", s.Count(), s.Bytes(), count, bytes)
	}
	for key, old := range before {
		im, err := s.Lookup("app", key[0], key[1])
		if err != nil {
			t.Fatal(err)
		}
		if im != old {
			t.Fatalf("task %d slot %d: re-registration replaced the image", key[0], key[1])
		}
		h := im.Header
		if h.Batch != 7 || h.Priority != 9 || h.Task != key[0] || h.Slot != key[1] || h.App != "app" {
			t.Fatalf("task %d slot %d: header not refreshed: %+v", key[0], key[1], h)
		}
	}
}

// Lookups outside what was registered fail; a per-slot image wins over
// a relocatable one, which still serves slots past the per-slot range.
func TestLookupBoundsAndPrecedence(t *testing.T) {
	g, r := graphAndReport(t, 2)
	s := NewStore()
	if err := s.Register(g, r, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 3}, {1, 99}} {
		if im, err := s.Lookup("app", c[0], c[1]); err == nil {
			t.Fatalf("task %d slot %d: lookup succeeded with %+v", c[0], c[1], im.Header)
		}
	}
	if _, err := s.Lookup("other", 0, 0); err == nil {
		t.Fatal("lookup of an unregistered app succeeded")
	}
	if err := s.RegisterRelocatable(g, r, 1, 1); err != nil {
		t.Fatal(err)
	}
	for slot := -1; slot < 5; slot++ {
		im, err := s.Lookup("app", 1, slot)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		want := slot
		if slot < 0 || slot >= 3 {
			want = RelocatableSlot
		}
		if im.Header.Slot != want {
			t.Fatalf("slot %d resolved to the image for slot %d, want %d", slot, im.Header.Slot, want)
		}
	}
	if _, err := s.Lookup("app", 2, 0); err == nil {
		t.Fatal("task past the graph resolved after relocatable registration")
	}
	// A larger graph under the same name extends the index.
	g3, r3 := graphAndReport(t, 3)
	if err := s.Register(g3, r3, 5, 1, 1); err != nil {
		t.Fatal(err)
	}
	if want := 2*3 + 2 + (3*5 - 2*3); s.Count() != want {
		t.Fatalf("Count = %d, want %d", s.Count(), want)
	}
	if im, err := s.Lookup("app", 2, 4); err != nil || im.Header.Slot != 4 {
		t.Fatalf("extended image: %v %v", im, err)
	}
}
