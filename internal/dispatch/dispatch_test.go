package dispatch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nimblock/internal/admit"
	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/fpga"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// work is the test front-end's record of one submission.
type work struct {
	g       *taskgraph.Graph
	batch   int
	prio    int
	tenant  string
	arrival sim.Time
}

// front is a minimal front-end: it lands every job on the least-loaded
// candidate board, and counts what the hooks see.
type front struct {
	*Core[*work]
	eng      *sim.Engine
	landErr  error
	retired  int
	rebuilds int
}

func mkPolicy(b hv.Config) sched.Scheduler { return core.New(core.DefaultOptions(), b.Board) }

func newFront(t *testing.T, cfg Config) *front {
	t.Helper()
	eng := sim.NewEngine()
	f := &front{eng: eng}
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	if cfg.HV.Board.Slots == 0 {
		cfg.HV = hv.DefaultConfig()
	}
	c, err := New(eng, cfg, mkPolicy, Hooks[*work]{
		Land:    f.land,
		Retired: func(int, int64, *Job[*work]) { f.retired++ },
		Rebuilt: func(int) { f.rebuilds++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Core = c
	return f
}

func (f *front) land(j *Job[*work]) (int, int64, error) {
	if f.landErr != nil {
		return 0, 0, f.landErr
	}
	best := -1
	var bestLoad sim.Duration
	for _, b := range f.Placeable() {
		if l := f.Board(b).OutstandingEstimate(); best < 0 || l < bestLoad {
			best, bestLoad = b, l
		}
	}
	if best < 0 {
		return -1, 0, nil
	}
	w := j.Work
	var id int64
	var err error
	if w.tenant != "" {
		id, err = f.Board(best).SubmitTenant(w.g, w.batch, w.prio, f.eng.Now(), w.tenant, 1)
	} else {
		id, err = f.Board(best).SubmitID(w.g, w.batch, w.prio, f.eng.Now())
	}
	return best, id, err
}

// submit schedules one arrival through admission.
func (f *front) submit(app string, batch, prio int, at sim.Time, tenant string) *Job[*work] {
	j := f.NewJob(&work{g: apps.MustGraph(app), batch: batch, prio: prio, tenant: tenant})
	f.eng.At(at, func() {
		j.Work.arrival = f.eng.Now()
		f.Offer(j, j.Work.g, batch, admit.Request{Tenant: tenant, Priority: prio})
		f.Pump()
	})
	return j
}

func at(s float64) sim.Time { return sim.Time(sim.Seconds(s)) }

// tally checks that every registered job has exactly one outcome and
// returns the counts per kind.
func tally(t *testing.T, outs []Outcome[*work], n int) map[Kind]int {
	t.Helper()
	if len(outs) != n {
		t.Fatalf("%d outcomes for %d jobs", len(outs), n)
	}
	seen := make([]bool, n)
	counts := map[Kind]int{}
	for _, o := range outs {
		if seen[o.Job.Idx] {
			t.Fatalf("job %d has two outcomes", o.Job.Idx)
		}
		seen[o.Job.Idx] = true
		counts[o.Kind]++
		switch o.Kind {
		case Done:
			if o.Board < 0 || o.Result.Response <= 0 {
				t.Fatalf("done outcome malformed: %+v", o)
			}
		case Rejected:
			if o.Board != -1 || o.Reason == "" {
				t.Fatalf("rejected outcome malformed: %+v", o)
			}
		case Failed:
			if o.Reason == "" {
				t.Fatalf("failed outcome without a reason: %+v", o)
			}
		}
	}
	return counts
}

func TestScoreRanksCapability(t *testing.T) {
	eng := sim.NewEngine()
	board := func(slots int, scale float64) *fpga.Board {
		cfg := fpga.DefaultConfig()
		cfg.Slots, cfg.LatencyScale = slots, scale
		b, err := fpga.NewBoard(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	wide, narrow, slow := board(10, 1), board(4, 1), board(10, 2)
	if !(Score(wide, 0) < Score(narrow, 0) && Score(wide, 0) < Score(slow, 0)) {
		t.Fatalf("idle boards not ranked by capability: wide %v narrow %v slow %v", Score(wide, 0), Score(narrow, 0), Score(slow, 0))
	}
	if Score(wide, 3) != 4*Score(wide, 0) {
		t.Fatalf("score not linear in 1+load: %v vs %v", Score(wide, 3), Score(wide, 0))
	}
	for i := 0; i < wide.NumSlots(); i++ {
		if err := wide.SetOffline(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := Score(wide, 0); !math.IsInf(got, 1) {
		t.Fatalf("board with no usable slots scored %v, want +Inf", got)
	}
}

func TestBoardConfigsResolve(t *testing.T) {
	base := hv.DefaultConfig()
	got, err := BoardConfigs(base, nil, 3)
	if err != nil || len(got) != 3 || got[2].Board.Slots != base.Board.Slots {
		t.Fatalf("homogeneous resolve = %d configs, %v", len(got), err)
	}
	per := []hv.Config{base, base}
	per[1].Board.Slots = 4
	if got, err := BoardConfigs(base, per, 2); err != nil || got[1].Board.Slots != 4 {
		t.Fatalf("per-board resolve lost the override: %v", err)
	}
	if _, err := BoardConfigs(base, per, 3); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestNewValidates(t *testing.T) {
	eng := sim.NewEngine()
	hooks := Hooks[*work]{}
	for name, tc := range map[string]struct {
		cfg Config
		mk  func(hv.Config) sched.Scheduler
	}{
		"no boards":      {Config{Boards: 0, HV: hv.DefaultConfig()}, mkPolicy},
		"nil policy":     {Config{Boards: 1, HV: hv.DefaultConfig()}, nil},
		"config length":  {Config{Boards: 2, HV: hv.DefaultConfig(), BoardConfigs: []hv.Config{hv.DefaultConfig()}}, mkPolicy},
		"admission":      {Config{Boards: 1, HV: hv.DefaultConfig(), Admission: &admit.Config{Capacity: -1}}, mkPolicy},
		"fault schedule": {Config{Boards: 1, HV: hv.DefaultConfig(), BoardFaults: []faults.BoardEvent{{Kind: faults.BoardCrash, Board: 5}}}, mkPolicy},
	} {
		if _, err := New(eng, tc.cfg, tc.mk, hooks); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTerminalShape(t *testing.T) {
	r := Terminal("LeNet", 3, 9, at(2))
	if r.AppID != -1 || r.FirstLaunch != -1 || r.App != "LeNet" || r.Batch != 3 || r.Priority != 9 || r.Arrival != at(2) || r.Retire != 0 {
		t.Fatalf("terminal result %+v", r)
	}
}

// TestHealthOffIsPlain pins the health-off fast path: every board is a
// candidate, no monitor runs, failover accessors report zero values, and
// every job completes.
func TestHealthOffIsPlain(t *testing.T) {
	f := newFront(t, Config{Boards: 3})
	if f.Monitor() != nil || f.BoardStates() != nil || f.FailoverStats() != (health.Stats{}) || f.AdmissionStats() != (admit.Stats{}) {
		t.Fatal("health-off core reports failure-domain state")
	}
	if got := f.Placeable(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("placeable = %v", got)
	}
	for i := 0; i < 6; i++ {
		f.submit(apps.LeNet, 2, 3, at(float64(i)/10), "t")
	}
	outs, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c := tally(t, outs, 6); c[Done] != 6 {
		t.Fatalf("outcomes %v", c)
	}
	if f.retired != 6 {
		t.Fatalf("retire hook saw %d retirements", f.retired)
	}
	if f.TenantServices()["t"] <= 0 {
		t.Fatal("tenant service not aggregated")
	}
}

// TestAdmissionRejectsAndReleases drives a bounded queue past capacity:
// rejections are outcomes, not errors, and retire-time release drains
// the queue.
func TestAdmissionRejectsAndReleases(t *testing.T) {
	f := newFront(t, Config{Boards: 2, Admission: &admit.Config{Capacity: 4, MaxInFlight: 2}})
	n := 12
	for i := 0; i < n; i++ {
		f.submit(apps.ImageCompression, 4, 1+2*(i%2), at(float64(i)/20), "")
	}
	outs, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := tally(t, outs, n)
	if c[Rejected] == 0 || c[Done] == 0 || c[Rejected] != f.Rejections() {
		t.Fatalf("outcomes %v, %d rejections", c, f.Rejections())
	}
	if st := f.AdmissionStats(); st.Completed != c[Done] {
		t.Fatalf("admission completed %d, %d done", st.Completed, c[Done])
	}
}

// TestParkedWorkWaitsForRevival crashes the only board: work arriving
// during the outage parks and runs once the breaker re-admits the
// rebuilt board.
func TestParkedWorkWaitsForRevival(t *testing.T) {
	f := newFront(t, Config{Boards: 1, BoardFaults: []faults.BoardEvent{{Kind: faults.BoardCrash, Board: 0, At: at(0.5), Recover: at(3)}}})
	f.submit(apps.Rendering3D, 4, 3, 0, "")
	for i := 0; i < 3; i++ {
		f.submit(apps.LeNet, 2, 3, at(1+float64(i)/10), "")
	}
	outs, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c := tally(t, outs, 4); c[Done] != 4 {
		t.Fatalf("outcomes %v", c)
	}
	for _, o := range outs {
		if o.Result.FirstLaunch < at(3) && o.Job.Idx > 0 {
			t.Fatalf("job %d launched at %v, before the board revived", o.Job.Idx, o.Result.FirstLaunch)
		}
	}
	st := f.FailoverStats()
	if st.Deaths != 1 || st.Redispatched != 1 || f.rebuilds != 1 {
		t.Fatalf("failover %+v, %d rebuilds", st, f.rebuilds)
	}
	if f.outcomeOf(outs, 0).Job.Retries != 1 {
		t.Fatal("evacuated job did not count its retry")
	}
}

func (f *front) outcomeOf(outs []Outcome[*work], idx int) Outcome[*work] {
	for _, o := range outs {
		if o.Job.Idx == idx {
			return o
		}
	}
	return Outcome[*work]{}
}

// TestLostWorkFails covers both terminal failure causes: a job that
// outlives its retry budget, and work parked on a board that never
// returns, which strands at the end of the run.
func TestLostWorkFails(t *testing.T) {
	for _, tc := range []struct {
		reason string
		events []faults.BoardEvent
	}{
		{"retries-exhausted", []faults.BoardEvent{
			{Kind: faults.BoardCrash, Board: 0, At: at(0.5), Recover: at(1)},
			{Kind: faults.BoardCrash, Board: 0, At: at(4)},
		}},
		{"stranded", []faults.BoardEvent{{Kind: faults.BoardCrash, Board: 0, At: at(0.5)}}},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			f := newFront(t, Config{Boards: 1, Health: &health.Options{RetryBudget: 1}, BoardFaults: tc.events})
			f.submit(apps.AlexNet, 30, 3, 0, "")
			outs, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			c := tally(t, outs, 1)
			if c[Failed] != 1 || f.FailoverStats().FailedSubmissions != 1 {
				t.Fatalf("outcomes %v, stats %+v", c, f.FailoverStats())
			}
			if o := outs[0]; o.Board != 0 || o.Reason != tc.reason {
				t.Fatalf("failed outcome %+v, want board 0 and reason %q", o, tc.reason)
			}
			if got := f.BoardStates(); got[0] != health.Dead {
				t.Fatalf("board state %v", got)
			}
		})
	}
}

// TestFailoverConservation is the core's conservation property: under
// random crashes, admission and checkpoint migration, every job ends as
// exactly one outcome and the failure accounting agrees.
func TestFailoverConservation(t *testing.T) {
	migrated := 0
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			hcfg := hv.DefaultConfig()
			hcfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}
			var events []faults.BoardEvent
			for k := 0; k < 4; k++ {
				when := at(1 + 6*rng.Float64())
				events = append(events, faults.BoardEvent{Kind: faults.BoardCrash, Board: rng.Intn(3), At: when, Recover: when.Add(sim.Seconds(2 + 4*rng.Float64()))})
			}
			f := newFront(t, Config{
				Boards:      3,
				HV:          hcfg,
				Seed:        seed,
				Admission:   &admit.Config{Capacity: 16, MaxInFlight: 8},
				Health:      &health.Options{RetryBudget: 1},
				BoardFaults: events,
			})
			names := []string{apps.LeNet, apps.ImageCompression, apps.OpticalFlow, apps.Rendering3D}
			n := 30
			for i := 0; i < n; i++ {
				f.submit(names[rng.Intn(len(names))], 1+rng.Intn(6), []int{1, 3, 9}[rng.Intn(3)], at(8*rng.Float64()), "")
			}
			outs, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			c := tally(t, outs, n)
			st := f.FailoverStats()
			if c[Failed] != st.FailedSubmissions || c[Rejected] != f.Rejections() {
				t.Fatalf("outcomes %v disagree with failover %+v / %d rejections", c, st, f.Rejections())
			}
			for _, o := range outs {
				if o.Kind == Done && o.Job.Retries > 1 {
					t.Fatalf("job %d completed after %d retries with budget 1", o.Job.Idx, o.Job.Retries)
				}
			}
			migrated += st.MigratedItems
		})
	}
	if migrated == 0 {
		t.Fatal("no seed migrated a checkpoint; the property covers nothing")
	}
}

func TestLandErrorSurfacesFromRun(t *testing.T) {
	f := newFront(t, Config{Boards: 1, Admission: &admit.Config{}})
	f.landErr = errors.New("boom")
	f.submit(apps.LeNet, 1, 3, 0, "")
	if _, err := f.Run(); err == nil || !errors.Is(err, f.landErr) {
		t.Fatalf("Run error = %v, want the land error", err)
	}
}

func TestEnergySumsBoards(t *testing.T) {
	hcfg := hv.DefaultConfig()
	hcfg.Board.StaticWattsPerSlot, hcfg.Board.ActiveWattsPerSlot = 2, 1
	f := newFront(t, Config{Boards: 2, HV: hcfg})
	f.submit(apps.LeNet, 2, 3, 0, "")
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var want hv.EnergyStats
	for b := 0; b < f.Boards(); b++ {
		want.Add(f.Board(b).Energy())
	}
	if got := f.Energy(); got != want || got.StaticJoules <= 0 {
		t.Fatalf("energy %+v, want %+v", got, want)
	}
}
