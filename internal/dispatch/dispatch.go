// Package dispatch is the board-orchestration core under the
// multi-board front-ends (internal/cluster and internal/faas).
//
// Each board runs its own hypervisor (hv.Instance), which owns the
// lifecycle of the work placed on it. The core owns everything above
// one board that the front-ends share: building and rebuilding boards,
// admission (offer, reject, evict, pump, ticket release on retire),
// the board-local ID bookkeeping that maps results back to jobs, the
// health-filtered candidate set, and board-level failover (park,
// migrate, retry, fail). A front-end supplies only its own decisions
// through Hooks: where a job lands and how it is submitted there, plus
// any extra bookkeeping on retire and on board death.
package dispatch

import (
	"errors"
	"fmt"
	"math"

	"nimblock/internal/admit"
	"nimblock/internal/faults"
	"nimblock/internal/fpga"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// Config parameterizes a Core; the front-ends pass their own settings
// through.
type Config struct {
	// Name prefixes error messages ("cluster", "faas").
	Name string
	// Boards is the board count (>= 1).
	Boards int
	// HV configures every board; BoardConfigs, when non-nil, overrides
	// it per board and must have length Boards.
	HV           hv.Config
	BoardConfigs []hv.Config
	// Seed seeds the health trackers' backoff jitter when the health
	// options leave it zero.
	Seed int64
	// Admission, when non-nil, bounds accepted work.
	Admission *admit.Config
	// Health, when non-nil, arms the failure-domain layer; it is armed
	// with defaults when BoardFaults is non-empty.
	Health      *health.Options
	BoardFaults []faults.BoardEvent
}

// Job is one unit of work the core tracks across placements. Work is
// the front-end's own record of it.
type Job[T any] struct {
	Work T
	// Idx is the job's submission ordinal.
	Idx int
	// Retries counts board deaths the job has survived.
	Retries int
	// Board is the last board that held the job; -1 before it is
	// first placed.
	Board int
}

// Kind classifies a job's terminal outcome.
type Kind int

const (
	// Done means the job retired on Board.
	Done Kind = iota
	// Rejected means admission turned the job away.
	Rejected
	// Failed means board deaths lost the job permanently.
	Failed
)

// Outcome is one job's terminal record. Result is set for Done jobs;
// Reason names the admission outcome or failure cause otherwise.
type Outcome[T any] struct {
	Job    *Job[T]
	Kind   Kind
	Reason string
	// Board is where the job retired, the last board that held a
	// failed job (-1 if none), or -1 for a rejected one.
	Board  int
	Result hv.Result
}

// Hooks are the front-end's part of orchestration. Land is required;
// the others may be nil.
type Hooks[T any] struct {
	// Land picks a board for j among Placeable and submits j there,
	// returning the board and the board-local ID. Board -1 parks j
	// until a board becomes placeable; an error is surfaced from Run.
	Land func(j *Job[T]) (board int, id int64, err error)
	// Dispatch, when set, takes freshly admitted work instead of Place.
	Dispatch func(j *Job[T], t *admit.Ticket)
	// Retired runs first in every board's retire hook; j is nil for an
	// ID no job is bound to.
	Retired func(board int, id int64, j *Job[T])
	// Evacuated sees each job carried off a dead board and returns the
	// ticket to fail it over with, or false to drop the evacuee.
	Evacuated func(board int, j *Job[T], ev *hv.Evacuee, t *admit.Ticket) (*admit.Ticket, bool)
	// Rebuilt runs once a dead board's hypervisor has been replaced,
	// before its work fails over.
	Rebuilt func(board int)
}

// Core fronts N hypervisors on one engine.
type Core[T any] struct {
	eng    *sim.Engine
	cfg    Config
	cfgs   []hv.Config
	mk     func(hv.Config) sched.Scheduler
	hooks  Hooks[T]
	boards []hv.Instance
	all    []int // every board index: the candidate set with health off

	jobs    []map[int64]*Job[T]       // board -> board-local ID -> job
	tickets []map[int64]*admit.Ticket // board -> board-local ID -> admission ticket
	ctrl    *admit.Controller
	jobsN   int
	// rejected and settled hold terminal outcomes decided before Run:
	// admission rejections, and results harvested off boards that died
	// or work failed for good, in the order they happened.
	rejected []Outcome[T]
	settled  []Outcome[T]
	errs     []error

	// Failure-domain state (nil/empty when health is off; see
	// failover.go).
	mon    *health.Monitor
	hopt   health.Options
	parked []parked[T]
}

// BoardConfigs resolves every board's hv.Config: per when non-nil (its
// length must equal boards), otherwise base for every board.
func BoardConfigs(base hv.Config, per []hv.Config, boards int) ([]hv.Config, error) {
	if per != nil {
		if len(per) != boards {
			return nil, fmt.Errorf("%d board configs for %d boards", len(per), boards)
		}
		return per, nil
	}
	out := make([]hv.Config, boards)
	for i := range out {
		out[i] = base
	}
	return out, nil
}

// Score ranks a board for the next placement given its outstanding
// load (estimated seconds of work, or a queue depth): load plus one,
// stretched by the board's latency scale and divided by its usable slot
// count — a completion-time proxy for the next unit of work. Lower is
// better. The +1 makes idle boards rank by capability (fast, wide
// boards first); a board with no usable slots ranks +Inf.
func Score(b *fpga.Board, load float64) float64 {
	usable := b.UsableSlots()
	if usable == 0 {
		return math.Inf(1)
	}
	return (1 + load) * b.LatencyScale() / float64(usable)
}

// Terminal is the hv.Result shape of a submission that never completed:
// only the identifying fields are set, and AppID and FirstLaunch are -1.
func Terminal(app string, batch, priority int, arrival sim.Time) hv.Result {
	return hv.Result{AppID: -1, App: app, Batch: batch, Priority: priority, Arrival: arrival, FirstLaunch: -1}
}

// New builds the core and its boards; mk supplies a fresh scheduling
// policy per board (policies are stateful and must not be shared).
func New[T any](eng *sim.Engine, cfg Config, mk func(hv.Config) sched.Scheduler, hooks Hooks[T]) (*Core[T], error) {
	if cfg.Boards < 1 {
		return nil, fmt.Errorf("%s: need at least one board, got %d", cfg.Name, cfg.Boards)
	}
	if mk == nil {
		return nil, fmt.Errorf("%s: nil policy factory", cfg.Name)
	}
	cfgs, err := BoardConfigs(cfg.HV, cfg.BoardConfigs, cfg.Boards)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	c := &Core[T]{eng: eng, cfg: cfg, cfgs: cfgs, mk: mk, hooks: hooks}
	if cfg.Admission != nil {
		if c.ctrl, err = admit.New(*cfg.Admission); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
	}
	for i := 0; i < cfg.Boards; i++ {
		h, err := c.newBoard(i)
		if err != nil {
			return nil, fmt.Errorf("%s: board %d: %w", cfg.Name, i, err)
		}
		c.boards = append(c.boards, h)
		c.all = append(c.all, i)
		c.jobs = append(c.jobs, map[int64]*Job[T]{})
		c.tickets = append(c.tickets, map[int64]*admit.Ticket{})
	}
	if err := c.initHealth(); err != nil {
		return nil, err
	}
	return c, nil
}

// newBoard builds (or rebuilds, after a death) board i's hypervisor
// with the core's retire hook chained onto any user-provided one.
func (c *Core[T]) newBoard(i int) (hv.Instance, error) {
	bcfg := c.cfgs[i]
	user := bcfg.OnRetire
	bcfg.OnRetire = func(id int64) {
		if user != nil {
			user(id)
		}
		c.onRetire(i, id)
	}
	return hv.New(c.eng, bcfg, c.mk(bcfg))
}

// Boards reports the board count.
func (c *Core[T]) Boards() int { return len(c.boards) }

// Board exposes one board's backend.
func (c *Core[T]) Board(i int) hv.Instance { return c.boards[i] }

// NewJob registers one submission; Run reports exactly one Outcome for
// every job registered.
func (c *Core[T]) NewJob(w T) *Job[T] {
	j := &Job[T]{Work: w, Idx: c.jobsN, Board: -1}
	c.jobsN++
	return j
}

// Offer runs admission for j, whose work is batch items of g; req
// carries its tenant, priority and SLO. With admission off j is
// dispatched at once; otherwise call Pump once the instant's offers
// are in.
func (c *Core[T]) Offer(j *Job[T], g *taskgraph.Graph, batch int, req admit.Request) {
	if c.ctrl == nil {
		c.dispatch(j, nil)
		return
	}
	req.Estimate = c.estimate(g, batch)
	req.Arrival = c.eng.Now()
	req.Payload = j
	_, evicted, out := c.ctrl.Offer(req, c.minLoad())
	if out != admit.Admitted {
		c.reject(j, out.String())
		return
	}
	if evicted != nil {
		c.reject(evicted.Request().Payload.(*Job[T]), admit.Shed.String())
	}
}

// Pump dispatches every job the admission controller clears.
func (c *Core[T]) Pump() {
	if c.ctrl == nil {
		return
	}
	for _, t := range c.ctrl.Dispatchable() {
		c.dispatch(t.Request().Payload.(*Job[T]), t)
	}
}

func (c *Core[T]) dispatch(j *Job[T], t *admit.Ticket) {
	if c.hooks.Dispatch != nil {
		c.hooks.Dispatch(j, t)
		return
	}
	c.Place(j, t)
}

func (c *Core[T]) reject(j *Job[T], reason string) {
	c.rejected = append(c.rejected, Outcome[T]{Job: j, Kind: Rejected, Reason: reason, Board: -1})
}

// Rejections counts jobs admission has turned away so far.
func (c *Core[T]) Rejections() int { return len(c.rejected) }

// Release frees an admission slot and, on the next event tick (outside
// the hypervisor's retire processing), dispatches any queued work the
// freed slot clears. A nil ticket is a no-op.
func (c *Core[T]) Release(t *admit.Ticket) {
	if c.ctrl == nil || t == nil {
		return
	}
	c.ctrl.Release(t)
	if c.ctrl.QueueDepth() > 0 {
		c.eng.After(0, c.Pump)
	}
}

// AdmissionStats reports the admission controller's counters; the zero
// Stats when admission is disabled.
func (c *Core[T]) AdmissionStats() admit.Stats {
	if c.ctrl == nil {
		return admit.Stats{}
	}
	return c.ctrl.Stats()
}

// estimate is the admission-time work estimate: single-slot latency on
// the fastest-case board, optimistic across heterogeneous boards so the
// deadline test never rejects work a big board could have finished in
// time.
func (c *Core[T]) estimate(g *taskgraph.Graph, batch int) sim.Duration {
	best := hv.SingleSlotLatencyFor(c.cfgs[0].Board, g, batch)
	for i := 1; i < len(c.cfgs); i++ {
		if e := hv.SingleSlotLatencyFor(c.cfgs[i].Board, g, batch); e < best {
			best = e
		}
	}
	return best
}

// minLoad is the least-loaded placeable board's outstanding estimate —
// the admission controller's optimistic view of how soon new work could
// start.
func (c *Core[T]) minLoad() sim.Duration {
	cands := c.Placeable()
	if len(cands) == 0 {
		// Nothing placeable: admission sees an effectively infinite queue.
		return c.cfg.HV.Horizon.Sub(0)
	}
	best := c.boards[cands[0]].OutstandingEstimate()
	for _, b := range cands[1:] {
		if l := c.boards[b].OutstandingEstimate(); l < best {
			best = l
		}
	}
	return best
}

// Place lands j now, or parks it while no board can take it.
func (c *Core[T]) Place(j *Job[T], t *admit.Ticket) {
	c.place(parked[T]{job: j, ticket: t})
}

// place lands one unit of work (fresh, parked, or evacuated), seeding
// any surviving checkpoints so migrated items resume instead of
// re-executing. Submit failures are recorded and surfaced from Run —
// never a panic: one malformed submission must not take down the run.
func (c *Core[T]) place(w parked[T]) {
	b, id, err := c.hooks.Land(w.job)
	if err != nil {
		c.errs = append(c.errs, err)
		c.Release(w.ticket)
		return
	}
	if b < 0 {
		c.parked = append(c.parked, w)
		return
	}
	c.Bind(b, id, w.job, w.ticket)
	if c.mon != nil {
		c.settle(b, id, w)
	}
}

// Bind records that board b holds j under board-local ID id, with
// admission ticket t (nil when the ticket is held elsewhere).
func (c *Core[T]) Bind(b int, id int64, j *Job[T], t *admit.Ticket) {
	c.jobs[b][id] = j
	if t != nil {
		c.tickets[b][id] = t
	}
	j.Board = b
}

// Unbind forgets board-local ID id on board b, whose work was aborted.
func (c *Core[T]) Unbind(b int, id int64) { delete(c.jobs[b], id) }

// Report records an error to surface from Run.
func (c *Core[T]) Report(err error) { c.errs = append(c.errs, err) }

// onRetire releases the retiring job's admission slot and, with health
// armed, advances the board's breaker probation and wakes parked work.
func (c *Core[T]) onRetire(b int, id int64) {
	if c.hooks.Retired != nil {
		c.hooks.Retired(b, id, c.jobs[b][id])
	}
	if c.mon != nil {
		c.mon.Tracker(b).ReportSuccess()
		if len(c.parked) > 0 {
			c.eng.After(0, c.unpark)
		}
	}
	if t, ok := c.tickets[b][id]; ok {
		delete(c.tickets[b], id)
		c.Release(t)
	}
}

// Energy sums the per-board energy reports; each board integrates its
// own power model, so heterogeneous fleets aggregate correctly.
func (c *Core[T]) Energy() hv.EnergyStats {
	var total hv.EnergyStats
	for _, b := range c.boards {
		total.Add(b.Energy())
	}
	return total
}

// TenantServices merges delivered per-tenant fabric time across boards
// (board-local latency scales already folded in by each board).
func (c *Core[T]) TenantServices() map[string]sim.Duration {
	out := map[string]sim.Duration{}
	for _, b := range c.boards {
		for tenant, d := range b.TenantServices() {
			out[tenant] += d
		}
	}
	return out
}

// Run drives the engine until every board goes quiet and returns one
// Outcome per job: rejections first, then outcomes settled during the
// run in the order they happened, then each board's results in board
// order. Errors recorded during the run are returned joined.
func (c *Core[T]) Run() ([]Outcome[T], error) {
	// Drain rather than run to the horizon: DrainUntil leaves the clock
	// at the last fired event (the makespan), so Energy sampled after
	// Run prices static power over time actually spanned by work, not
	// over the idle tail out to the horizon.
	c.eng.DrainUntil(c.cfg.HV.Horizon)
	if c.mon != nil {
		c.strand()
	}
	if err := errors.Join(c.errs...); err != nil {
		return nil, err
	}
	out := make([]Outcome[T], 0, c.jobsN)
	out = append(out, c.rejected...)
	out = append(out, c.settled...)
	for b, board := range c.boards {
		results, err := board.Collect()
		if err != nil {
			return nil, fmt.Errorf("%s: board %d: %w", c.cfg.Name, b, err)
		}
		for _, r := range results {
			j, ok := c.jobs[b][r.AppID]
			if !ok {
				return nil, fmt.Errorf("%s: board %d reported unknown app %d", c.cfg.Name, b, r.AppID)
			}
			out = append(out, Outcome[T]{Job: j, Kind: Done, Board: b, Result: r})
		}
	}
	if c.ctrl != nil && c.ctrl.QueueDepth() > 0 {
		return nil, fmt.Errorf("%s: %d admitted submissions still queued at horizon", c.cfg.Name, c.ctrl.QueueDepth())
	}
	if len(out) != c.jobsN {
		return nil, fmt.Errorf("%s: %d results for %d submissions", c.cfg.Name, len(out), c.jobsN)
	}
	return out, nil
}
