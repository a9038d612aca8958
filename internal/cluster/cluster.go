// Package cluster scales Nimblock out across multiple FPGAs.
//
// The paper's introduction lists scale-out — "allowing applications to
// spread across multiple FPGAs" — as one of the three properties a
// virtualized FPGA should support, and leaves cloud-scale exploration to
// future work. This package provides that layer: a dispatcher in front
// of N independent boards, each running its own Nimblock hypervisor, all
// advancing on one virtual clock. Applications are placed on a board at
// arrival time by a pluggable dispatch policy; within a board, the
// configured scheduling algorithm takes over.
//
// An optional admission controller (internal/admit) sits in front of
// dispatch: arrivals it rejects never reach a board and come back from
// Run as Rejected results instead of errors, so overload degrades the
// excess traffic rather than the whole run.
package cluster

import (
	"fmt"
	"math/rand"
	"slices"
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

// Dispatch selects how arrivals are spread across boards.
type Dispatch int

const (
	// RoundRobin cycles through boards in order.
	RoundRobin Dispatch = iota
	// LeastLoaded picks the board with the smallest estimated
	// outstanding work (HLS estimates, like the schedulers use).
	LeastLoaded
	// LeastPending picks the board with the fewest pending applications.
	LeastPending
	// RandomBoard picks uniformly at random (seeded, deterministic).
	RandomBoard
	// HeteroAware ranks boards by estimated completion of the next unit
	// of work on a heterogeneous fleet: outstanding work stretched by
	// the board's latency scale and divided by its usable slot count.
	// On a homogeneous fleet it degenerates to LeastLoaded.
	HeteroAware
)

// String names the dispatch policy.
func (d Dispatch) String() string {
	switch d {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case LeastPending:
		return "least-pending"
	case RandomBoard:
		return "random"
	case HeteroAware:
		return "hetero-aware"
	default:
		return fmt.Sprintf("Dispatch(%d)", int(d))
	}
}

// Config parameterizes a cluster.
type Config struct {
	// Boards is the number of FPGAs (>= 1).
	Boards int
	// HV configures each board's hypervisor identically.
	HV hv.Config
	// BoardConfigs, when non-nil, overrides HV per board, enabling
	// heterogeneous clusters (e.g. a mix of edge-scale 4-slot and
	// cloud-scale 10-slot devices, the Hetero-ViTAL direction). Its
	// length must equal Boards.
	BoardConfigs []hv.Config
	// Dispatch selects the placement policy (default RoundRobin).
	Dispatch Dispatch
	// Seed drives RandomBoard placement.
	Seed int64
	// Admission, when non-nil, bounds what the cluster accepts: arrivals
	// the controller rejects are reported as Rejected results from Run
	// instead of being dispatched.
	Admission *admit.Config
	// Health, when non-nil, arms the board-level failure domain layer:
	// per-board liveness tracking, health-aware dispatch, failover of
	// work off dead boards (checkpoint migration when the board config
	// enables hv.CheckpointConfig), circuit-breaker re-admission, and
	// hedged dispatch for priority >= Health.HedgePriority submissions.
	// It is enabled automatically when BoardFaults is non-empty.
	Health *health.Options
	// BoardFaults schedules board-level fault events (crash, hang,
	// degrade) against the fleet, typically via faults.Plan.BoardEvents.
	BoardFaults []faults.BoardEvent
}

// Result is a per-application outcome annotated with its board. When
// Rejected is set the submission never reached a board: Board is -1,
// RejectReason names the admission outcome ("shed", "deadline",
// "quota"), and only the identifying Result fields (App, Batch,
// Priority, Arrival) are meaningful.
type Result struct {
	hv.Result
	Board        int
	Rejected     bool
	RejectReason string
	// Failed marks work that was admitted but lost permanently to board
	// deaths: its retry budget ran out (FailReason "retries-exhausted")
	// or no board ever came back to run it ("stranded"). Board is the
	// last board that held it, or -1 if it never ran.
	Failed     bool
	FailReason string
	// Attempts counts placements: 1 for work that ran where it first
	// landed, more when board deaths forced re-dispatch, 0 for rejected.
	Attempts int
}

// SubmitOptions carries the admission-relevant attributes of one
// submission. The zero value is a default-tenant submission with no
// explicit SLO.
type SubmitOptions struct {
	// Tenant attributes the submission for quotas and fair sharing.
	Tenant string
	// SLO is the latency budget for deadline admission; 0 falls back to
	// the controller's DeadlineFactor (or no deadline test).
	SLO sim.Duration
	// Weight is the tenant's fair-share weight for service-proportional
	// scheduling on the boards (NimblockEnergy); 0 means weight 1.
	Weight float64
}

// submission is the cluster-side record of one Submit call.
type submission struct {
	g        *taskgraph.Graph
	batch    int
	priority int
	arrival  sim.Time
	opts     SubmitOptions
}

// job is one submission as the orchestration core tracks it.
type job = dispatch.Job[*submission]

// Cluster fronts N hypervisors with an arrival-time dispatcher. The
// embedded core owns boards, admission and failover; the cluster adds
// its dispatch policies and hedging (see failover.go).
type Cluster struct {
	*dispatch.Core[*submission]
	eng    *sim.Engine
	cfg    Config
	rng    *rand.Rand
	next   int            // round-robin cursor
	buffer []*job         // same-instant arrivals awaiting the canonical drain
	hedges map[int]*hedge // submission index -> hedge state
}

// New builds a cluster; mkPolicy supplies a fresh scheduling policy per
// board (policies are stateful and must not be shared) and receives the
// board's configuration so policies that plan against board shape (the
// Nimblock goal-number analysis) work on heterogeneous clusters.
func New(eng *sim.Engine, cfg Config, mkPolicy func(board hv.Config) sched.Scheduler) (*Cluster, error) {
	c := &Cluster{eng: eng, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	core, err := dispatch.New(eng, dispatch.Config{
		Name:         "cluster",
		Boards:       cfg.Boards,
		HV:           cfg.HV,
		BoardConfigs: cfg.BoardConfigs,
		Seed:         cfg.Seed,
		Admission:    cfg.Admission,
		Health:       cfg.Health,
		BoardFaults:  cfg.BoardFaults,
	}, mkPolicy, dispatch.Hooks[*submission]{
		Land:      c.land,
		Dispatch:  c.dispatch,
		Retired:   c.retired,
		Evacuated: c.evacuated,
	})
	if err != nil {
		return nil, err
	}
	c.Core = core
	return c, nil
}

// Submit schedules an application arrival under the default tenant with
// no explicit SLO. The board is chosen when the application actually
// arrives, so load-aware policies see current state.
func (c *Cluster) Submit(g *taskgraph.Graph, batch, priority int, arrival sim.Time) error {
	return c.SubmitWith(g, batch, priority, arrival, SubmitOptions{})
}

// SubmitWith is Submit with admission attributes (tenant, SLO).
func (c *Cluster) SubmitWith(g *taskgraph.Graph, batch, priority int, arrival sim.Time, opts SubmitOptions) error {
	if g == nil {
		return fmt.Errorf("cluster: nil graph")
	}
	j := c.NewJob(&submission{g: g, batch: batch, priority: priority, opts: opts})
	c.eng.At(arrival, func() {
		// Buffer and drain once all arrivals at this instant are in: the
		// drain's After(0) event sorts after every Submit event already
		// queued at the same time, so simultaneous submissions are
		// admitted and dispatched in one canonical pass (by submission
		// index) no matter how their events were interleaved.
		j.Work.arrival = c.eng.Now()
		c.buffer = append(c.buffer, j)
		if len(c.buffer) == 1 {
			c.eng.After(0, c.drain)
		}
	})
	return nil
}

// drain admits and dispatches every arrival buffered at this instant.
func (c *Cluster) drain() {
	batch := c.buffer
	c.buffer = nil
	sort.Slice(batch, func(i, j int) bool { return batch[i].Idx < batch[j].Idx })
	for _, j := range batch {
		sub := j.Work
		c.Offer(j, sub.g, sub.batch, admit.Request{Tenant: sub.opts.Tenant, Priority: sub.priority, SLO: sub.opts.SLO})
	}
	c.Pump()
}

// dispatch places one admitted submission: on two boards when it is
// SLO-critical and hedging is configured, otherwise through the core.
func (c *Cluster) dispatch(j *job, t *admit.Ticket) {
	if h := c.cfg.Health; h != nil && h.HedgePriority > 0 && j.Work.priority >= h.HedgePriority && c.hedge(j, t) {
		return
	}
	c.Place(j, t)
}

// land picks a board by the dispatch policy and submits j there.
func (c *Cluster) land(j *job) (int, int64, error) {
	b := c.pick()
	if b < 0 {
		return -1, 0, nil
	}
	id, err := c.submitTo(b, j)
	return b, id, err
}

// submitTo lands one submission on board b, carrying the tenant
// identity and fair-share weight through to the board's scheduler when
// the submission has them (anonymous submissions keep the cheaper
// untagged path).
func (c *Cluster) submitTo(b int, j *job) (id int64, err error) {
	sub := j.Work
	if sub.opts.Tenant != "" {
		id, err = c.Board(b).SubmitTenant(sub.g, sub.batch, sub.priority, c.eng.Now(), sub.opts.Tenant, sub.opts.Weight)
	} else {
		id, err = c.Board(b).SubmitID(sub.g, sub.batch, sub.priority, c.eng.Now())
	}
	if err != nil {
		return 0, fmt.Errorf("cluster: submission %d (%s) on board %d: %w", j.Idx, sub.g.Name(), b, err)
	}
	return id, nil
}

// pick applies the dispatch policy to the placeable boards; -1 means
// nothing can take work right now.
func (c *Cluster) pick() int {
	cands := c.Placeable()
	if len(cands) == 0 {
		return -1
	}
	return c.pickAmong(cands)
}

// pickAmong applies the dispatch policy over a non-empty candidate set
// in index order. Load and pending ties break toward the lowest board
// index — strict "<" keeps the earliest minimum — so placement is
// deterministic regardless of event ordering or which boards happen to
// be healthy.
func (c *Cluster) pickAmong(cands []int) int {
	best := -1
	switch c.cfg.Dispatch {
	case LeastLoaded:
		var bestLoad sim.Duration
		for _, i := range cands {
			if l := c.Board(i).OutstandingEstimate(); best < 0 || l < bestLoad {
				best, bestLoad = i, l
			}
		}
	case LeastPending:
		bestN := 0
		for _, i := range cands {
			if p := c.Board(i).PendingCount(); best < 0 || p < bestN {
				best, bestN = i, p
			}
		}
	case HeteroAware:
		bestScore := 0.0
		for _, i := range cands {
			if s := dispatch.Score(c.Board(i).Board(), c.Board(i).OutstandingEstimate().Seconds()); best < 0 || s < bestScore {
				best, bestScore = i, s
			}
		}
	case RandomBoard:
		best = cands[c.rng.Intn(len(cands))]
	default: // RoundRobin: advance the cursor to the next candidate board.
		n := c.Boards()
		for k := 0; k < n; k++ {
			if b := (c.next + k) % n; slices.Contains(cands, b) {
				c.next = (b + 1) % n
				return b
			}
		}
	}
	return best
}

// Run drives the shared engine until every application on every board
// retires, and returns one Result per submission in global submission
// order: board-annotated outcomes for dispatched work, Rejected entries
// for what admission turned away, Failed entries for work board deaths
// lost. Dispatch-time submit failures accumulated during the run are
// returned joined.
func (c *Cluster) Run() ([]Result, error) {
	outs, err := c.Core.Run()
	if err != nil {
		return nil, err
	}
	res := make([]Result, len(outs))
	for _, o := range outs {
		sub := o.Job.Work
		r := Result{Board: o.Board}
		switch o.Kind {
		case dispatch.Done:
			r.Result = o.Result
			r = c.annotate(o.Job, r)
		case dispatch.Rejected:
			r.Result = dispatch.Terminal(sub.g.Name(), sub.batch, sub.priority, sub.arrival)
			r.Rejected, r.RejectReason = true, o.Reason
		case dispatch.Failed:
			r.Result = dispatch.Terminal(sub.g.Name(), sub.batch, sub.priority, sub.arrival)
			r.Failed, r.FailReason, r.Attempts = true, o.Reason, o.Job.Retries
		}
		res[o.Job.Idx] = r
	}
	return res, nil
}

// annotate overlays re-dispatch accounting on a completed result: the
// response clock starts at the original arrival, not the re-dispatch,
// so failover latency shows up in the metrics it actually cost.
func (c *Cluster) annotate(j *job, r Result) Result {
	if c.Monitor() == nil {
		return r
	}
	r.Attempts = j.Retries + 1
	if j.Retries > 0 {
		arrival := j.Work.arrival
		r.Arrival = arrival
		if r.FirstLaunch >= 0 {
			r.Wait = r.FirstLaunch.Sub(arrival)
		}
		r.Response = r.Retire.Sub(arrival)
	}
	return r
}
