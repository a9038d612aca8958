package sched

import (
	"math"
	"testing"
	"testing/quick"

	"nimblock/internal/apps"
	"nimblock/internal/hls"
	"nimblock/internal/sim"
)

func mkApp(t *testing.T, id int64, name string, batch, prio int, arrival sim.Time) *App {
	t.Helper()
	g := apps.MustGraph(name)
	a, err := NewApp(id, g, hls.Analyze(g), batch, prio, arrival)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestInitialTokensEqualPriority(t *testing.T) {
	p := NewTokenPool()
	a := mkApp(t, 1, apps.LeNet, 5, 9, 0)
	p.Accumulate(0, []*App{a})
	if a.Tokens != 9 {
		t.Fatalf("initial tokens = %v, want priority 9", a.Tokens)
	}
}

func TestTokensGrowWithWaitAndPriority(t *testing.T) {
	p := NewTokenPool()
	lo := mkApp(t, 1, apps.LeNet, 5, 1, 0)
	hi := mkApp(t, 2, apps.LeNet, 5, 9, 0)
	all := []*App{lo, hi}
	p.Accumulate(0, all)
	p.Accumulate(10*sim.Time(sim.Second), all)
	if hi.Tokens-9 <= (lo.Tokens-1)*8.9 {
		t.Fatalf("high-priority accumulation too slow: lo=%v hi=%v", lo.Tokens, hi.Tokens)
	}
	if lo.Tokens <= 1 {
		t.Fatalf("low-priority app accumulated nothing: %v", lo.Tokens)
	}
}

func TestShortAppsDegradeFaster(t *testing.T) {
	p := NewTokenPool()
	short := mkApp(t, 1, apps.ImageCompression, 1, 3, 0)
	long := mkApp(t, 2, apps.DigitRecognition, 1, 3, 0)
	all := []*App{short, long}
	p.Accumulate(0, all)
	p.Accumulate(sim.Time(sim.Second), all)
	if short.Tokens <= long.Tokens {
		t.Fatalf("short app should accumulate faster: short=%v long=%v", short.Tokens, long.Tokens)
	}
}

func TestFloorPriority(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{{0.5, 0}, {1, 1}, {2.9, 1}, {3, 3}, {8.99, 3}, {9, 9}, {100, 9}}
	for _, c := range cases {
		if got := floorPriority(c.in); got != c.want {
			t.Errorf("floorPriority(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestThresholdingCandidates(t *testing.T) {
	p := NewTokenPool()
	a := mkApp(t, 1, apps.LeNet, 5, 9, 0) // tokens 9
	b := mkApp(t, 2, apps.LeNet, 5, 3, 0) // tokens 3
	c := mkApp(t, 3, apps.LeNet, 5, 1, 0) // tokens 1
	p.Accumulate(0, []*App{a, b, c})
	// Threshold = floor(9) = 9 -> only a qualifies.
	if !a.Candidate || b.Candidate || c.Candidate {
		t.Fatalf("candidates = %v %v %v, want only first", a.Candidate, b.Candidate, c.Candidate)
	}
}

func TestCandidatePoolNeverEmptyWhileAppsWait(t *testing.T) {
	// Regression for the >= vs > deviation: with a single app whose
	// tokens sit exactly on a priority level, the pool must not be empty.
	p := NewTokenPool()
	a := mkApp(t, 1, apps.LeNet, 5, 3, 0)
	p.Accumulate(0, []*App{a})
	if !a.Candidate {
		t.Fatal("single waiting app is not a candidate")
	}
}

func TestCandidateSinceStable(t *testing.T) {
	p := NewTokenPool()
	a := mkApp(t, 1, apps.LeNet, 5, 9, 0)
	p.Accumulate(0, []*App{a})
	first := a.CandidateSince
	p.Accumulate(sim.Time(sim.Second), []*App{a})
	if a.CandidateSince != first {
		t.Fatal("CandidateSince changed while app stayed in the pool")
	}
}

func TestCandidatesOrderedByPoolAge(t *testing.T) {
	a := mkApp(t, 1, apps.LeNet, 5, 3, 0)
	b := mkApp(t, 2, apps.LeNet, 5, 3, 5)
	c := mkApp(t, 3, apps.LeNet, 5, 3, 5)
	a.Candidate, a.CandidateSince = true, 100
	b.Candidate, b.CandidateSince = true, 50
	c.Candidate, c.CandidateSince = true, 50
	got := CandidatesInto(nil, []*App{a, b, c})
	if len(got) != 3 || got[0].ID != 2 || got[1].ID != 3 || got[2].ID != 1 {
		ids := []int64{}
		for _, x := range got {
			ids = append(ids, x.ID)
		}
		t.Fatalf("candidate order = %v, want [2 3 1]", ids)
	}
}

// The pool keeps no per-application state — each App carries its own
// last-accrual time — so a retired app cannot leak from it, and an app
// missing from some calls resumes accrual from its own last accrual,
// not from whenever the pool last ran.
func TestPoolHoldsNoPerAppState(t *testing.T) {
	p := NewTokenPool()
	a := mkApp(t, 1, apps.LeNet, 5, 9, 0)
	b := mkApp(t, 2, apps.LeNet, 5, 3, 0)
	p.Accumulate(0, []*App{a})
	p.Accumulate(sim.Time(sim.Second), []*App{a, b})
	p.Accumulate(3*sim.Time(sim.Second), []*App{b})
	p.Accumulate(5*sim.Time(sim.Second), nil) // both retired
	if *p != *NewTokenPool() {
		t.Fatalf("pool carries state after its apps retired: %+v", *p)
	}
	rate := func(x *App) float64 {
		return DefaultAlpha * float64(x.Priority) / float64(x.Report.AppLatency())
	}
	// b joined at 1 s with tokens equal to its priority and accrued to 3 s.
	if want := 3 + rate(b)*float64(2*sim.Second); math.Abs(b.Tokens-want) > 1e-9*want {
		t.Fatalf("b tokens %v, want %v", b.Tokens, want)
	}
	// a last accrued at 1 s; brought back at 6 s it accrues 5 s more.
	p.Accumulate(6*sim.Time(sim.Second), []*App{a})
	if want := 9 + rate(a)*float64(sim.Second) + rate(a)*float64(5*sim.Second); math.Abs(a.Tokens-want) > 1e-9*want {
		t.Fatalf("a tokens %v, want %v", a.Tokens, want)
	}
}

// Property: tokens are monotonically nondecreasing over successive
// accumulations, and always at least the priority.
func TestTokenMonotonicityProperty(t *testing.T) {
	f := func(steps []uint16, prioSel uint8) bool {
		prio := PriorityLevels[int(prioSel)%len(PriorityLevels)]
		g := apps.MustGraph(apps.LeNet)
		a, _ := NewApp(1, g, hls.Analyze(g), 3, prio, 0)
		p := NewTokenPool()
		now := sim.Time(0)
		p.Accumulate(now, []*App{a})
		prev := a.Tokens
		for _, s := range steps {
			now = now.Add(sim.Duration(s) * sim.Millisecond)
			p.Accumulate(now, []*App{a})
			if a.Tokens < prev || a.Tokens < float64(prio) {
				return false
			}
			prev = a.Tokens
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any accumulation over any app mix, at least one pending
// app is a candidate (the pool can never deadlock empty).
func TestCandidateNonEmptyProperty(t *testing.T) {
	f := func(prios []uint8, gap uint16) bool {
		if len(prios) == 0 {
			return true
		}
		if len(prios) > 12 {
			prios = prios[:12]
		}
		var all []*App
		g := apps.MustGraph(apps.Rendering3D)
		for i, ps := range prios {
			prio := PriorityLevels[int(ps)%len(PriorityLevels)]
			a, _ := NewApp(int64(i), g, hls.Analyze(g), 2, prio, sim.Time(i))
			all = append(all, a)
		}
		p := NewTokenPool()
		p.Accumulate(0, all)
		p.Accumulate(sim.Time(gap), all)
		for _, a := range all {
			if a.Candidate {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
