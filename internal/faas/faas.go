// Package faas layers a serverless platform over the virtualized FPGA
// cluster.
//
// The paper's introduction argues FPGA virtualization is the enabler for
// serverless computing with FPGAs as first-class accelerators: FaaS needs
// strong isolation between tenants (slots), fine-grained scheduling of
// individual tasks (the Nimblock runtime), and flexible resource
// allocation (the cluster). This package supplies the missing front-end:
// a function registry, invocation dispatch with warm-board affinity, and
// cold-start modelling — a function's partial bitstreams must be
// distributed to a board before its first invocation runs there.
//
// An optional admission controller (internal/admit) bounds what the
// platform accepts; rejected invocations come back from Run as Rejected
// results, so a traffic spike sheds load instead of queueing without
// bound.
package faas

import (
	"fmt"
	"sort"

	"nimblock/internal/admit"
	"nimblock/internal/dispatch"
	"nimblock/internal/faults"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// Function is a registered FPGA function: a task-graph with a fixed
// priority class and optional admission attributes.
type Function struct {
	Graph    *taskgraph.Graph
	Priority int
	// Tenant attributes the function's invocations for admission quotas
	// and fair sharing; "" is the shared default tenant.
	Tenant string
	// Weight is the tenant's fair-share weight for service-proportional
	// scheduling on the boards (NimblockEnergy); 0 means weight 1.
	Weight float64
	// SLO is the per-invocation latency budget for deadline admission;
	// 0 falls back to the admission controller's DeadlineFactor.
	SLO sim.Duration
}

// Config parameterizes the platform.
type Config struct {
	// Boards is the cluster size.
	Boards int
	// HV configures each board.
	HV hv.Config
	// BoardConfigs, when non-nil, overrides HV per board, enabling a
	// heterogeneous platform (mixed slot counts, latency scales, power
	// envelopes). Its length must equal Boards. Placement folds each
	// board's latency scale and usable slot count into its load score.
	BoardConfigs []hv.Config
	// ColdStart is the delay to distribute a function's bitstreams to a
	// board that has never run it (network copy to the board's SD card).
	ColdStart sim.Duration
	// ScaleUp is the pending-invocation count on warm boards beyond
	// which the dispatcher pays a cold start to open a new board.
	// Values <= 0 mean eager scaling: any warm backlog at all justifies
	// a strictly less-loaded cold board.
	ScaleUp int
	// Admission, when non-nil, bounds accepted invocations; rejections
	// are reported as Rejected results from Run.
	Admission *admit.Config
	// Health, when non-nil, arms the board-level failure domain layer:
	// liveness tracking, health-aware placement, failover of invocations
	// off dead boards (checkpoint migration when HV.Checkpoint is
	// enabled), and circuit-breaker re-admission. A dead board loses its
	// deployed bitstreams, so re-invocations pay a fresh cold start.
	// Hedged dispatch is a cluster-only feature: invocations are cheap
	// to re-run and warm affinity would make duplicate placement fight
	// the cold-start model. Enabled automatically when BoardFaults is
	// non-empty.
	Health *health.Options
	// BoardFaults schedules board-level fault events (crash, hang,
	// degrade), typically via faults.Plan.BoardEvents.
	BoardFaults []faults.BoardEvent
}

// DefaultConfig is a four-board platform with a 500 ms cold start.
func DefaultConfig() Config {
	return Config{
		Boards:    4,
		HV:        hv.DefaultConfig(),
		ColdStart: 500 * sim.Millisecond,
		ScaleUp:   4,
	}
}

// Result is one completed (or rejected) invocation. A Rejected result
// never reached a board: Board is -1, Latency 0, and RejectReason names
// the admission outcome.
type Result struct {
	Function string
	Board    int
	Cold     bool
	// InvokedAt is when the client issued the invocation.
	InvokedAt sim.Time
	// Latency is retirement minus invocation, including any cold start.
	Latency sim.Duration
	// Items echoes the invocation batch.
	Items        int
	Rejected     bool
	RejectReason string
	// Failed marks invocations lost permanently to board deaths: the
	// retry budget ran out ("retries-exhausted") or no board ever came
	// back ("stranded"). Board is the last board that held it, or -1.
	Failed     bool
	FailReason string
	// Attempts counts placements: 1 for an invocation that ran where it
	// first landed, more after failover, 0 for rejected (or failed
	// before any board could take it).
	Attempts int
}

// Stats aggregates platform counters. Invocations counts accepted
// dispatches only; Rejections counts what admission turned away.
type Stats struct {
	Invocations int
	ColdStarts  int
	WarmStarts  int
	Rejections  int
}

// invocation is the platform-side record of one Invoke call.
type invocation struct {
	function string
	invoked  sim.Time
	items    int
	cold     bool // whether the latest placement paid a cold start
}

// job is one invocation as the orchestration core tracks it.
type job = dispatch.Job[*invocation]

// Platform is the serverless front-end. The embedded core owns boards,
// admission and failover; the platform adds warm affinity, cold starts
// and the bitstream deployments a board death wipes.
type Platform struct {
	*dispatch.Core[*invocation]
	eng         *sim.Engine
	cfg         Config
	deployed    []map[string]bool
	outstanding []int // per-board dispatched-not-retired invocations
	funcs       map[string]Function
	stats       Stats
}

// New builds a platform; mkPolicy supplies one scheduler per board.
func New(eng *sim.Engine, cfg Config, mkPolicy func() sched.Scheduler) (*Platform, error) {
	if cfg.ColdStart < 0 {
		return nil, fmt.Errorf("faas: negative cold start")
	}
	if mkPolicy == nil {
		return nil, fmt.Errorf("faas: nil policy factory")
	}
	p := &Platform{eng: eng, cfg: cfg, funcs: map[string]Function{}}
	core, err := dispatch.New(eng, dispatch.Config{
		Name:         "faas",
		Boards:       cfg.Boards,
		HV:           cfg.HV,
		BoardConfigs: cfg.BoardConfigs,
		Admission:    cfg.Admission,
		Health:       cfg.Health,
		BoardFaults:  cfg.BoardFaults,
	}, func(hv.Config) sched.Scheduler { return mkPolicy() }, dispatch.Hooks[*invocation]{
		Land:    p.land,
		Retired: p.retired,
		Rebuilt: p.rebuilt,
	})
	if err != nil {
		return nil, err
	}
	p.Core = core
	p.deployed = make([]map[string]bool, cfg.Boards)
	p.outstanding = make([]int, cfg.Boards)
	for i := range p.deployed {
		p.deployed[i] = map[string]bool{}
	}
	return p, nil
}

// Register adds a function to the registry. Functions must be registered
// before they are invoked; re-registration replaces the definition only
// if no invocation has run yet.
func (p *Platform) Register(name string, fn Function) error {
	if fn.Graph == nil {
		return fmt.Errorf("faas: function %q has no task-graph", name)
	}
	if fn.Priority < 1 {
		return fmt.Errorf("faas: function %q priority %d < 1", name, fn.Priority)
	}
	if _, dup := p.funcs[name]; dup {
		return fmt.Errorf("faas: function %q already registered", name)
	}
	p.funcs[name] = fn
	return nil
}

// Invoke schedules an invocation of a registered function at the given
// time with the given number of independent inputs.
func (p *Platform) Invoke(function string, items int, at sim.Time) error {
	if _, ok := p.funcs[function]; !ok {
		return fmt.Errorf("faas: unknown function %q", function)
	}
	if items < 1 {
		return fmt.Errorf("faas: invocation of %q with %d items", function, items)
	}
	j := p.NewJob(&invocation{function: function, invoked: at, items: items})
	p.eng.At(at, func() { p.arrive(j) })
	return nil
}

// arrive runs the admission decision (if configured) at the invocation
// instant and dispatches or records the outcome.
func (p *Platform) arrive(j *job) {
	fn := p.funcs[j.Work.function]
	p.Offer(j, fn.Graph, j.Work.items, admit.Request{Tenant: fn.Tenant, Priority: fn.Priority, SLO: fn.SLO})
	p.Pump()
}

// land places one invocation (fresh, parked, or evacuated) with warm
// affinity, delaying its arrival on the board by the cold start when
// the board has never run the function.
func (p *Platform) land(j *job) (int, int64, error) {
	in := j.Work
	fn := p.funcs[in.function]
	board, cold := p.pick(in.function)
	if board < 0 {
		return -1, 0, nil
	}
	arrival := p.eng.Now()
	if cold {
		arrival = arrival.Add(p.cfg.ColdStart)
	}
	var id int64
	var err error
	if fn.Tenant != "" {
		id, err = p.Board(board).SubmitTenant(fn.Graph, in.items, fn.Priority, arrival, fn.Tenant, fn.Weight)
	} else {
		id, err = p.Board(board).SubmitID(fn.Graph, in.items, fn.Priority, arrival)
	}
	if err != nil {
		return board, 0, fmt.Errorf("faas: invocation of %q: %w", in.function, err)
	}
	if cold {
		p.deployed[board][in.function] = true
		p.stats.ColdStarts++
	} else {
		p.stats.WarmStarts++
	}
	if j.Retries == 0 {
		p.stats.Invocations++
	}
	p.outstanding[board]++
	in.cold = cold
	return board, id, nil
}

// retired keeps the per-board outstanding count honest.
func (p *Platform) retired(board int, _ int64, j *job) {
	if j != nil {
		p.outstanding[board]--
	}
}

// rebuilt forgets a dead board's state: its bitstream deployments die
// with it, so the next invocation there pays a fresh cold start.
func (p *Platform) rebuilt(board int) {
	p.deployed[board] = map[string]bool{}
	p.outstanding[board] = 0
}

// pick chooses a board with warm affinity: the least-busy board that
// already holds the function's bitstreams, unless every warm board is at
// or over the scale-up threshold and a cold board is strictly less
// loaded, in which case the cold start is worth paying. Only placeable
// boards are considered (see dispatch.Core.Placeable), and load ties
// break toward the lowest board index (strict "<"), so placement is
// deterministic. Boundary behavior, pinned by tests:
//
//   - no warm board: cheapest cold board, cold start;
//   - all boards warm (nowhere to scale to): least-loaded warm board,
//     however deep its backlog;
//   - ScaleUp <= 0: eager scaling — any warm backlog justifies a
//     strictly less-loaded cold board (an idle warm board still wins);
//   - single board: always that board, cold exactly once per function.
//
// Load is the board's outstanding invocation count, scored through
// dispatch.Score so a slow or narrow board looks busier than a fast
// wide board at the same queue depth.
func (p *Platform) pick(function string) (board int, cold bool) {
	warmBest, coldBest := -1, -1
	var warmScore, coldScore float64
	warmLoad := 0
	for _, i := range p.Placeable() {
		score := dispatch.Score(p.Board(i).Board(), float64(p.outstanding[i]))
		if p.deployed[i][function] {
			if warmBest == -1 || score < warmScore {
				warmBest, warmScore = i, score
				warmLoad = p.outstanding[i]
			}
		} else if coldBest == -1 || score < coldScore {
			coldBest, coldScore = i, score
		}
	}
	if warmBest == -1 {
		if coldBest == -1 {
			return -1, false // nothing placeable right now
		}
		return coldBest, true
	}
	threshold := p.cfg.ScaleUp
	if threshold <= 0 {
		threshold = 1
	}
	if coldBest != -1 && warmLoad >= threshold && coldScore < warmScore {
		return coldBest, true
	}
	return warmBest, false
}

// Stats returns platform counters.
func (p *Platform) Stats() Stats {
	st := p.stats
	st.Rejections = p.Rejections()
	return st
}

// Outstanding reports dispatched-not-retired invocations on one board
// (for tests and reports).
func (p *Platform) Outstanding(board int) int { return p.outstanding[board] }

// Run drives the simulation until every accepted invocation completes
// and returns per-invocation results — completed, rejected and failed —
// ordered by invocation time (ties by board, rejections first).
// Dispatch-time submit failures accumulated during the run are returned
// joined.
func (p *Platform) Run() ([]Result, error) {
	outs, err := p.Core.Run()
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(outs))
	for i, o := range outs {
		in := o.Job.Work
		r := Result{Function: in.function, Board: o.Board, InvokedAt: in.invoked, Items: in.items}
		switch o.Kind {
		case dispatch.Done:
			r.Cold, r.Latency, r.Attempts = in.cold, o.Result.Retire.Sub(in.invoked), o.Job.Retries+1
		case dispatch.Rejected:
			r.Rejected, r.RejectReason = true, o.Reason
		case dispatch.Failed:
			r.Failed, r.FailReason, r.Attempts = true, o.Reason, o.Job.Retries
		}
		out[i] = r
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].InvokedAt != out[j].InvokedAt {
			return out[i].InvokedAt < out[j].InvokedAt
		}
		return out[i].Board < out[j].Board
	})
	return out, nil
}
