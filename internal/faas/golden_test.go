package faas

import (
	"fmt"
	"hash/fnv"
	"testing"

	"nimblock/internal/admit"
	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/faults"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// goldenDigest pins the exact per-invocation outcomes of goldenRun. The
// property tests check invariants; this pins the outcomes themselves,
// so a refactor of the orchestration code that changes any placement,
// cold start, admission or failover decision shows up here.
const goldenDigest = "a51cd1ca49284e9f"

// goldenRun drives one fixed-seed platform through the serverless
// paths at once: the heterogeneous board mix (one 10-slot board, three
// 4-slot boards at latency scale 2, with a power model), checkpointing,
// bounded admission with a tenant quota, cold starts, and board crashes
// that wipe deployed bitstreams. It returns an FNV-64a digest over
// every result and the run's counters.
func goldenRun(t *testing.T) (string, []Result, Stats, health.Stats, admit.Stats) {
	t.Helper()
	base := hv.DefaultConfig()
	base.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}
	bcfgs := make([]hv.Config, 4)
	for i := range bcfgs {
		c := base
		c.Board.StaticWattsPerSlot = 2.5
		c.Board.ActiveWattsPerSlot = 1.5
		if i > 0 {
			c.Board.Slots = 4
			c.Board.LatencyScale = 2
		}
		bcfgs[i] = c
	}
	at := func(s float64) sim.Time { return sim.Time(sim.Seconds(s)) }
	eng := sim.NewEngine()
	p, err := New(eng, Config{
		Boards:       len(bcfgs),
		HV:           base,
		BoardConfigs: bcfgs,
		ColdStart:    500 * sim.Millisecond,
		ScaleUp:      2,
		Admission:    &admit.Config{Capacity: 16, MaxInFlight: 10, Quotas: map[string]int{"bulk": 7}},
		Health:       &health.Options{RetryBudget: 1},
		BoardFaults: []faults.BoardEvent{
			{Kind: faults.BoardCrash, Board: 0, At: at(4), Recover: at(9)},
			{Kind: faults.BoardCrash, Board: 2, At: at(6), Recover: at(10)},
			{Kind: faults.BoardCrash, Board: 1, At: at(12)},
			{Kind: faults.BoardCrash, Board: 0, At: at(15), Recover: at(18)},
		},
	}, func() sched.Scheduler { return core.New(core.DefaultOptions(), base.Board) })
	if err != nil {
		t.Fatal(err)
	}
	fns := []struct {
		app      string
		priority int
		tenant   string
		slo      sim.Duration
	}{
		{apps.LeNet, 9, "web", 0},
		{apps.ImageCompression, 3, "web", sim.Seconds(5)},
		{apps.DigitRecognition, 9, "web", 0},
		{apps.OpticalFlow, 3, "bulk", 0},
		{apps.Rendering3D, 1, "bulk", 0},
		{apps.AlexNet, 1, "bulk", 0},
	}
	var pool []string
	for _, f := range fns {
		if err := p.Register(f.app, Function{Graph: apps.MustGraph(f.app), Priority: f.priority, Tenant: f.tenant, SLO: f.slo}); err != nil {
			t.Fatal(err)
		}
		pool = append(pool, f.app)
	}
	st := workload.NewStream(workload.Spec{PoissonRate: 1.5, BatchCap: 6, Pool: pool, Events: 120}, 5)
	for {
		ev, ok := st.Next()
		if !ok {
			break
		}
		if err := p.Invoke(ev.App, ev.Batch, ev.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i, r := range res {
		fmt.Fprintf(h, "%d %+v\n", i, r)
	}
	ps, fs, as := p.Stats(), p.FailoverStats(), p.AdmissionStats()
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n", ps, fs, as)
	return fmt.Sprintf("%016x", h.Sum64()), res, ps, fs, as
}

// TestGoldenDigest fails when any invocation's outcome changes. The
// scenario must keep reaching every path it pins, or the digest would
// pin nothing.
func TestGoldenDigest(t *testing.T) {
	got, res, ps, fs, as := goldenRun(t)
	completed, rejected, failed := classifyInv(t, res)
	t.Logf("%d completed, %d rejected, %d failed; platform %+v; failover %+v; admission %+v", completed, rejected, failed, ps, fs, as)
	if completed == 0 || rejected == 0 || failed == 0 || ps.ColdStarts < 8 || fs.Deaths < 4 ||
		fs.Redispatched == 0 || fs.MigratedItems == 0 || as.RejectedQuota == 0 {
		t.Fatalf("scenario no longer reaches every serverless path")
	}
	if got != goldenDigest {
		t.Fatalf("outcome digest %s, want %s", got, goldenDigest)
	}
}
