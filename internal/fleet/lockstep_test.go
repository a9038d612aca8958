package fleet

import (
	"errors"
	"fmt"
	"testing"

	"nimblock/internal/hv"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// runLockstep is the reference coordinator: the per-epoch loop that
// takes a barrier at every grid boundary and drains the fleet as a
// whole, advancing shards serially. The fused loop in Run must match it
// exactly.
func (f *Fleet) runLockstep(stream *workload.Stream) ([]Result, error) {
	horizon := f.cfg.HV.Horizon
	var (
		now        sim.Time
		lookahead  workload.Event
		haveEvent  bool
		streamDone bool
	)
	for {
		end := now.Add(f.cfg.Epoch)
		if end > horizon {
			end = horizon
		}
		for {
			if !haveEvent && !streamDone {
				lookahead, haveEvent = stream.Next()
				streamDone = !haveEvent
			}
			if !haveEvent || lookahead.Arrival > end {
				break
			}
			f.route(lookahead)
			haveEvent = false
		}
		for _, sh := range f.shards {
			f.stats.EventsFired += int64(sh.eng.RunUntil(end))
		}
		f.stats.Epochs++
		now = end
		pending := f.barrier(now)
		if streamDone && pending == 0 {
			break
		}
		if now >= horizon {
			return nil, fmt.Errorf("fleet: %d submissions still pending at horizon %v", pending, horizon)
		}
	}
	f.stats.Makespan = now
	if err := errors.Join(f.errs...); err != nil {
		return nil, err
	}
	return f.collect()
}

// lockstepCase is one stream and fleet shape the oracle compares on.
type lockstepCase struct {
	name string
	spec workload.Spec
	mut  func(*Config)
	down []int // boards masked down before the run
	// exhaust drains the stream before the run: an empty stream.
	exhaust bool
	// stall and shed say the reference run hits the horizon or sheds,
	// so a case cannot silently stop exercising its path.
	stall, shed bool
}

var lockstepCases = []lockstepCase{
	{name: "stress", spec: workload.Spec{Scenario: workload.Stress, Events: 12, BatchCap: 3}},
	// Mean gap 2.5 s: runs of 20+ arrival-free epochs between arrivals.
	{name: "sparse-poisson", spec: workload.Spec{PoissonRate: 0.4, BatchCap: 2, Events: 10}},
	// Ten arrivals per 100 ms epoch.
	{name: "burst", spec: workload.Spec{FixedGap: 10 * sim.Millisecond, BatchCap: 2, Events: 24}},
	// Every arrival sits exactly on an epoch boundary, the first at 0.
	{name: "on-boundary", spec: workload.Spec{FixedGap: 100 * sim.Millisecond, BatchCap: 2, Events: 12}},
	// Boundary arrivals on a grid that 250 ms does not divide.
	{name: "odd-epoch", spec: workload.Spec{FixedGap: 250 * sim.Millisecond, BatchCap: 2, Events: 12},
		mut: func(c *Config) { c.Epoch = 70 * sim.Millisecond }},
	{name: "shed", spec: workload.Spec{Scenario: workload.RealTime, Events: 20, FixedBatch: 8},
		mut: func(c *Config) { c.MaxOutstanding = 3 }, shed: true},
	{name: "board-down", spec: workload.Spec{Scenario: workload.Stress, Events: 12, BatchCap: 3}, down: []int{0, 3, 7}},
	// The work fits well inside a horizon off the epoch grid.
	{name: "odd-horizon", spec: workload.Spec{PoissonRate: 2, BatchCap: 2, Events: 12},
		mut: func(c *Config) { c.HV.Horizon = sim.Time(900*sim.Second + 37*sim.Millisecond) }},
	// The horizon (off the grid) cuts the drain short.
	{name: "drain-stall", spec: workload.Spec{Scenario: workload.RealTime, Events: 6, FixedBatch: 20},
		mut: func(c *Config) { c.HV.Horizon = sim.Time(1234 * sim.Millisecond) }, stall: true},
	// Arrivals keep coming after the horizon (off the grid).
	{name: "arrival-stall", spec: workload.Spec{FixedGap: 300 * sim.Millisecond, FixedBatch: 1, Events: 12},
		mut: func(c *Config) { c.HV.Horizon = sim.Time(1234 * sim.Millisecond) }, stall: true},
	{name: "empty", spec: workload.Spec{Events: 3}, exhaust: true},
}

// TestFusedMatchesLockstep is the coordinator oracle: for every stream
// shape, the fused loop and the lockstep reference return identical
// results, errors and stats (epoch count included) over 20 seeds,
// {1, 2, 8} shards and {1, 4} workers. Run under -race it also checks
// the per-shard drain shares nothing it shouldn't.
func TestFusedMatchesLockstep(t *testing.T) {
	const boards = 8
	build := func(tc lockstepCase, shards, workers int) *Fleet {
		cfg := Config{Shards: shards, Boards: boards, HV: hv.DefaultConfig(), Workers: workers}
		if tc.mut != nil {
			tc.mut(&cfg)
		}
		f, err := New(cfg, mkNimblock)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range tc.down {
			f.SetBoardDown(g, true)
		}
		return f
	}
	stream := func(tc lockstepCase, seed int64) *workload.Stream {
		st := workload.NewStream(tc.spec, seed)
		for tc.exhaust {
			if _, ok := st.Next(); !ok {
				break
			}
		}
		return st
	}
	for _, tc := range lockstepCases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				for _, shards := range []int{1, 2, 8} {
					ref := build(tc, shards, 1)
					want, wantErr := ref.runLockstep(stream(tc, seed))
					if (wantErr != nil) != tc.stall || (ref.Stats().Rejected > 0) != tc.shed {
						t.Fatalf("seed %d shards %d: lockstep err %v, %d shed", seed, shards, wantErr, ref.Stats().Rejected)
					}
					for _, workers := range []int{1, 4} {
						f := build(tc, shards, workers)
						got, gotErr := f.Run(stream(tc, seed))
						where := fmt.Sprintf("seed %d shards %d workers %d", seed, shards, workers)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: error %v, lockstep %v", where, gotErr, wantErr)
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d results, lockstep %d", where, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: result %d\n  fused:    %+v\n  lockstep: %+v", where, i, got[i], want[i])
							}
						}
						compareStats(t, where, f.Stats(), ref.Stats())
					}
				}
			}
		})
	}
}

func compareStats(t *testing.T, where string, got, want Stats) {
	t.Helper()
	fields := []struct {
		name      string
		got, want any
	}{
		{"Submitted", got.Submitted, want.Submitted},
		{"Completed", got.Completed, want.Completed},
		{"Rejected", got.Rejected, want.Rejected},
		{"Epochs", got.Epochs, want.Epochs},
		{"EventsFired", got.EventsFired, want.EventsFired},
		{"Makespan", got.Makespan, want.Makespan},
		{"Energy", got.Energy, want.Energy},
		{"BoardFairness", got.BoardFairness, want.BoardFairness},
	}
	for _, fd := range fields {
		if fd.got != fd.want {
			t.Fatalf("%s: Stats.%s fused %v, lockstep %v", where, fd.name, fd.got, fd.want)
		}
	}
	if got != want {
		t.Fatalf("%s: stats fused %+v, lockstep %+v", where, got, want)
	}
}
