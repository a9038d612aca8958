package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"nimblock/internal/admit"
	"nimblock/internal/apps"
	"nimblock/internal/faults"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// goldenDigests pins the exact per-submission outcomes of goldenRun for
// each dispatch policy. The property tests check invariants; these pin
// the outcomes themselves, so a refactor of the orchestration code that
// changes any placement, admission or failover decision shows up here.
var goldenDigests = map[Dispatch]string{
	LeastLoaded: "5eb34154636c93c9",
	HeteroAware: "287e0fd9b65710c0",
}

// goldenRun drives one fixed-seed cluster through every orchestration
// path at once: a heterogeneous board mix with checkpointing on,
// bounded admission with tenants and SLOs, board crashes, a hang and a
// degrade window, and hedged dispatch for the top priority class. It
// returns an FNV-64a digest over every result and the run's counters.
func goldenRun(t *testing.T, d Dispatch) (string, []Result, health.Stats, admit.Stats) {
	t.Helper()
	base := hv.DefaultConfig()
	base.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}
	bcfgs := make([]hv.Config, 4)
	for i := range bcfgs {
		c := base
		if i >= 2 {
			c.Board.Slots = 4
			c.Board.LatencyScale = 2
		}
		bcfgs[i] = c
	}
	at := func(s float64) sim.Time { return sim.Time(sim.Seconds(s)) }
	events := []faults.BoardEvent{
		{Kind: faults.BoardDegrade, Board: 1, At: at(1), Until: at(9), Factor: 2},
		{Kind: faults.BoardCrash, Board: 0, At: at(3), Recover: at(8)},
		{Kind: faults.BoardHang, Board: 2, At: at(6), Recover: at(14)},
		{Kind: faults.BoardCrash, Board: 3, At: at(7), Recover: at(12)},
		{Kind: faults.BoardCrash, Board: 0, At: at(16)},
	}
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Boards:       len(bcfgs),
		HV:           base,
		BoardConfigs: bcfgs,
		Dispatch:     d,
		Seed:         7,
		Admission:    &admit.Config{Capacity: 30, MaxInFlight: 12, Quotas: map[string]int{"batch": 8}},
		Health:       &health.Options{RetryBudget: 1, HedgePriority: 9},
		BoardFaults:  events,
	}, mkNimblock(base))
	if err != nil {
		t.Fatal(err)
	}
	seq := workload.Generate(workload.Spec{Scenario: workload.Stress, Events: 80}, 11)
	for i, ev := range seq {
		opts := SubmitOptions{Tenant: "interactive", Weight: 2}
		if i%3 == 0 {
			opts = SubmitOptions{Tenant: "batch"}
		}
		if i%7 == 0 {
			opts.SLO = sim.Seconds(4)
		}
		if err := c.SubmitWith(apps.MustGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival, opts); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i, r := range res {
		fmt.Fprintf(h, "%d %+v\n", i, r)
	}
	fs, as := c.FailoverStats(), c.AdmissionStats()
	fmt.Fprintf(h, "%+v\n%+v\n", fs, as)
	return fmt.Sprintf("%016x", h.Sum64()), res, fs, as
}

// TestGoldenDigest fails when any submission's outcome changes. The
// scenario must keep reaching every path it pins, or the digest would
// pin nothing.
func TestGoldenDigest(t *testing.T) {
	for d, want := range goldenDigests {
		t.Run(d.String(), func(t *testing.T) {
			got, res, fs, as := goldenRun(t, d)
			completed, rejected, failed := 0, 0, 0
			for _, r := range res {
				switch {
				case r.Rejected:
					rejected++
				case r.Failed:
					failed++
				default:
					completed++
				}
			}
			t.Logf("%d completed, %d rejected, %d failed; failover %+v; admission %+v", completed, rejected, failed, fs, as)
			if completed == 0 || rejected == 0 || failed == 0 || fs.Deaths < 3 || fs.Hedged == 0 ||
				fs.Redispatched == 0 || fs.MigratedItems == 0 || fs.Degrades == 0 || as.RejectedQuota == 0 {
				t.Fatalf("scenario no longer reaches every orchestration path")
			}
			if got != want {
				t.Fatalf("outcome digest %s, want %s", got, want)
			}
		})
	}
}
