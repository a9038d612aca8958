package dispatch

// Board-level failure domains. When the health options (or a non-empty
// board-fault schedule) arm this layer, every board gets a health
// tracker fed by its hypervisor's event heartbeat, placement only
// considers placeable boards, and a declared board death evacuates
// unfinished work: already-retired results are harvested, mid-flight
// jobs are placed again on healthy boards (resuming from checkpoints
// when the target board runs the checkpoint subsystem), and work that
// exhausts its retry budget surfaces as a distinct terminal Failed
// outcome — never silently dropped, never double-counted.

import (
	"fmt"
	"math"

	"nimblock/internal/admit"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
)

// parked is one unit of work waiting for a placeable board: a fresh
// job that arrived while every board was down, or an evacuee carried
// off a dead board.
type parked[T any] struct {
	job    *Job[T]
	ticket *admit.Ticket
	// snaps and workDone travel with an evacuee: surviving checkpoints
	// to seed into the next board, and the fabric time the dead board
	// already spent (wasted unless the snapshots carry part of it).
	snaps    []hv.Snapshot
	workDone sim.Duration
	// redispatch marks evacuees, so placement books the re-dispatch and
	// wasted/migrated work into the failover stats.
	redispatch bool
}

// initHealth arms the failure-domain layer when configured. With no
// health options and no board faults the core behaves exactly as it
// would without this layer — no monitor, no polls, no extra events.
func (c *Core[T]) initHealth() error {
	if c.cfg.Health == nil && len(c.cfg.BoardFaults) == 0 {
		return nil
	}
	opt := health.Options{}
	if c.cfg.Health != nil {
		opt = *c.cfg.Health
	}
	opt = opt.WithDefaults()
	if opt.Tracker.Seed == 0 {
		opt.Tracker.Seed = c.cfg.Seed
	}
	c.hopt = opt
	hooks := health.Hooks{
		Progress:  func(b int) uint64 { return c.boards[b].Progress() },
		Busy:      func(b int) bool { return c.boards[b].PendingCount() > 0 },
		OnDead:    c.boardDead,
		OnFreeze:  func(b int) { c.boards[b].Freeze() },
		OnDegrade: func(b int, factor float64) { c.boards[b].SetSlowdown(factor) },
		OnRevive:  c.boardRevive,
	}
	c.mon = health.NewMonitor(c.eng, len(c.boards), opt.Tracker, hooks, health.NewInstruments(opt.Registry))
	if err := c.mon.Schedule(c.cfg.BoardFaults); err != nil {
		return fmt.Errorf("%s: %w", c.cfg.Name, err)
	}
	return nil
}

// Monitor is the health monitor; nil when the failure-domain layer is
// off.
func (c *Core[T]) Monitor() *health.Monitor { return c.mon }

// Placeable lists, in index order, the boards placement may use right
// now: every board with health off, otherwise the placeable boards with
// the best (lowest) health score, so degraded boards only receive work
// when no clean board is available. Callers must not modify the slice.
func (c *Core[T]) Placeable() []int {
	if c.mon == nil {
		return c.all
	}
	now := c.eng.Now()
	var cands []int
	best := math.MaxInt
	for b := range c.boards {
		t := c.mon.Tracker(b)
		if !t.Placeable(now) {
			continue
		}
		s := t.Score()
		if s < best {
			best = s
			cands = cands[:0]
		}
		if s == best {
			cands = append(cands, b)
		}
	}
	return cands
}

// unpark retries placement for everything parked; work that still has
// no placeable board parks again, in order.
func (c *Core[T]) unpark() {
	waiting := c.parked
	c.parked = nil
	for _, w := range waiting {
		c.place(w)
	}
}

// settle finishes a placement with health armed: seeds evacuated
// checkpoints so migrated items resume through the target's CAP, books
// the failover accounting, and keeps the liveness poll armed.
func (c *Core[T]) settle(b int, id int64, w parked[T]) {
	st := c.mon.StatsRef()
	ins := c.mon.Instruments()
	var migrated sim.Duration
	if len(w.snaps) > 0 && c.cfgs[b].Checkpoint.Enabled {
		c.boards[b].SeedCheckpoints(id, w.snaps)
		for _, s := range w.snaps {
			migrated += s.Progress
		}
		st.MigratedItems += len(w.snaps)
		st.MigratedWork += migrated
		if ins != nil {
			ins.MigratedItems.Add(int64(len(w.snaps)))
			ins.MigratedWork.Add(migrated.Seconds())
		}
	}
	if w.redispatch {
		wasted := max(w.workDone-migrated, 0)
		st.Redispatched++
		st.WastedWork += wasted
		if ins != nil {
			ins.Redispatched.Inc()
			ins.WastedWork.Add(wasted.Seconds())
		}
	}
	c.mon.Kick()
}

// Waste books fabric time lost to a board death.
func (c *Core[T]) Waste(d sim.Duration) {
	c.mon.StatsRef().WastedWork += d
	if ins := c.mon.Instruments(); ins != nil {
		ins.WastedWork.Add(d.Seconds())
	}
}

// boardDead fails a dead board's work over. Results that retired before
// the death are harvested now — the board is rebuilt immediately and
// its replacement restarts local IDs, so the old bookkeeping must be
// settled before the maps reset. Unfinished work is placed again (with
// surviving checkpoints), parked if no board can take it, or failed
// once its retry budget runs out.
func (c *Core[T]) boardDead(b int) {
	evs := c.boards[b].Evacuate()
	results, err := c.boards[b].Collect()
	if err != nil {
		c.Report(fmt.Errorf("%s: harvesting dead board %d: %w", c.cfg.Name, b, err))
	}
	jobs, tickets := c.jobs[b], c.tickets[b]
	for _, r := range results {
		j, ok := jobs[r.AppID]
		if !ok {
			c.Report(fmt.Errorf("%s: dead board %d reported unknown app %d", c.cfg.Name, b, r.AppID))
			continue
		}
		c.settled = append(c.settled, Outcome[T]{Job: j, Kind: Done, Board: b, Result: r})
	}
	// Rebuild now, while the tracker still refuses placements: the dead
	// hypervisor can never serve again, and a revive only has to lift
	// the breaker.
	if h, err := c.newBoard(b); err != nil {
		c.Report(fmt.Errorf("%s: rebuilding board %d: %w", c.cfg.Name, b, err))
	} else {
		c.boards[b] = h
	}
	c.jobs[b] = map[int64]*Job[T]{}
	c.tickets[b] = map[int64]*admit.Ticket{}
	if c.hooks.Rebuilt != nil {
		c.hooks.Rebuilt(b)
	}
	for _, ev := range evs {
		j, ok := jobs[ev.ID]
		if !ok {
			c.Report(fmt.Errorf("%s: dead board %d evacuated unknown app %d", c.cfg.Name, b, ev.ID))
			continue
		}
		t := tickets[ev.ID]
		if c.hooks.Evacuated != nil {
			if t, ok = c.hooks.Evacuated(b, j, &ev, t); !ok {
				continue
			}
		}
		c.failover(j, t, ev.Snapshots, ev.WorkDone)
	}
}

// failover places one evacuated job again, parking it when no board is
// placeable and failing it permanently once its retry budget is
// exhausted.
func (c *Core[T]) failover(j *Job[T], t *admit.Ticket, snaps []hv.Snapshot, workDone sim.Duration) {
	j.Retries++
	if j.Retries > c.hopt.RetryBudget {
		c.Waste(workDone)
		c.fail(j, "retries-exhausted", t)
		return
	}
	c.place(parked[T]{job: j, ticket: t, snaps: snaps, workDone: workDone, redispatch: true})
}

// fail records a permanent loss: the job surfaces from Run as a Failed
// outcome instead of vanishing, and its admission slot is freed.
func (c *Core[T]) fail(j *Job[T], reason string, t *admit.Ticket) {
	c.settled = append(c.settled, Outcome[T]{Job: j, Kind: Failed, Reason: reason, Board: j.Board})
	c.Release(t)
	c.mon.StatsRef().FailedSubmissions++
	if ins := c.mon.Instruments(); ins != nil {
		ins.Failed.Inc()
	}
}

// strand fails everything still parked when the run ends: no board
// ever came back to take it.
func (c *Core[T]) strand() {
	for _, w := range c.parked {
		c.Waste(w.workDone)
		c.fail(w.job, "stranded", w.ticket)
	}
	c.parked = nil
}

// boardRevive runs when a dead board's scheduled recovery arrives. The
// hypervisor was already rebuilt at death; what remains is waking
// parked work once the circuit breaker re-admits the board.
func (c *Core[T]) boardRevive(b int) {
	c.eng.At(c.mon.Tracker(b).ReadmitAt(), c.unpark)
}

// FailoverStats reports the failover accounting; the zero Stats when
// the failure-domain layer is off.
func (c *Core[T]) FailoverStats() health.Stats {
	if c.mon == nil {
		return health.Stats{}
	}
	return c.mon.Stats()
}

// BoardStates reports every board's health state; nil when the
// failure-domain layer is off.
func (c *Core[T]) BoardStates() []health.State {
	if c.mon == nil {
		return nil
	}
	out := make([]health.State, len(c.boards))
	for b := range c.boards {
		out[b] = c.mon.Tracker(b).State()
	}
	return out
}
