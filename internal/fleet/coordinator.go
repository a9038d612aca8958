package fleet

// The shard coordinator: epoch-grid advancement with deterministic
// results for any shard count and any worker count.
//
// Simulated time is cut into a grid of Epoch-long intervals, the last
// clamped to the horizon; an arrival belongs to the epoch
// (start, start+Epoch] that holds it (an arrival at 0 to the first).
// Placement reads a barrier taken at that epoch's start, where every
// shard clock sits on the same instant, plus the estimates already
// routed in the epoch. Nothing else reads a barrier, so for each epoch
// that routes the coordinator advances every shard in one RunUntil call
// to the epoch's start (fusing the arrival-free epochs before it), takes
// the barrier, routes the epoch's arrivals in stream order and advances
// every shard to the epoch's end. Back-to-back RunUntil calls fire
// exactly the events one call to the later deadline fires, so a skipped
// barrier changes nothing a board does.
//
// Once the stream is exhausted, one fan-out drains every shard on its
// own copy of the grid until its boards hold no pending work. Pending
// counts never grow after the last arrival, so the fleet's quiet
// boundary (the makespan) is the latest shard's; every shard then runs
// to it so energy is sampled with all clocks at one instant.
//
// Boards on a shared engine never touch each other's state (only
// placement reads across boards, and only at barriers), so a board's
// event outcomes are invariant under regrouping: the shard-determinism
// property the tests pin.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nimblock/internal/metrics"
	"nimblock/internal/sim"
	"nimblock/internal/workload"
)

// workers resolves the advancement fan-out for this config.
func (f *Fleet) workers() int {
	w := f.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(f.shards) {
		w = len(f.shards)
	}
	return w
}

// advance runs step once per shard index and returns the total events
// fired. Shards are fully independent between barriers, so any
// assignment of shards to workers fires the same events; with one
// worker this is the serial reference path. All shard advancement,
// the drain included, goes through here: perfbench charges
// fleet.advance_s to this function by name.
func (f *Fleet) advance(step func(s int) int) int64 {
	w := f.workers()
	if w <= 1 {
		var total int64
		for s := range f.shards {
			total += int64(step(s))
		}
		return total
	}
	var (
		next  atomic.Int64
		total atomic.Int64
		wg    sync.WaitGroup
	)
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= len(f.shards) {
					return
				}
				total.Add(int64(step(s)))
			}
		}()
	}
	wg.Wait()
	return total.Load()
}

// runTo advances every shard clock to end.
func (f *Fleet) runTo(end sim.Time) {
	f.stats.EventsFired += f.advance(func(s int) int { return f.shards[s].eng.RunUntil(end) })
}

// barrier refreshes placement state once every shard clock sits at the
// same instant at, and reports the fleet's true pending count.
func (f *Fleet) barrier(at sim.Time) int {
	pending := 0
	for s, sh := range f.shards {
		shardPending := 0
		for l, b := range sh.boards {
			g := sh.global[l]
			f.outSnap[g] = b.OutstandingEstimate()
			f.routed[g] = 0
			shardPending += b.PendingCount()
		}
		pending += shardPending
		if f.gauges != nil {
			f.gauges.shardPending[s].Set(float64(shardPending))
		}
	}
	f.pendEst = pending
	if f.gauges != nil {
		f.gauges.pending.Set(float64(pending))
		f.gauges.epoch.Set(at.Seconds())
	}
	return pending
}

// Run consumes the stream to exhaustion, drives the fleet to
// quiescence, and returns one Result per arrival in stream order.
// The stream may be unbounded only if something else bounds it (the
// horizon will otherwise run out and Run reports the stall).
func (f *Fleet) Run(stream *workload.Stream) ([]Result, error) {
	if stream == nil {
		return nil, fmt.Errorf("fleet: nil stream")
	}
	horizon, epoch := f.cfg.HV.Horizon, f.cfg.Epoch
	var now sim.Time
	ev, ok := stream.Next()
	for ok && ev.Arrival <= horizon {
		// Fuse the whole epochs before the one (start, start+epoch]
		// that holds the arrival; start lies below the horizon.
		if gap := ev.Arrival.Sub(now); gap > epoch {
			skip := (gap - 1) / epoch
			now = now.Add(skip * epoch)
			f.runTo(now)
			f.stats.Epochs += int(skip)
		}
		if now > 0 {
			f.barrier(now)
		}
		end := min(now.Add(epoch), horizon)
		for ok && ev.Arrival <= end {
			f.route(ev)
			ev, ok = stream.Next()
		}
		f.runTo(end)
		f.stats.Epochs++
		now = end
	}
	if ok {
		// An arrival beyond the horizon can never be routed.
		f.stats.Epochs += int((horizon.Sub(now) + epoch - 1) / epoch)
		f.runTo(horizon)
		return nil, f.stall(f.barrier(horizon))
	}
	makespan := f.drain(now)
	f.runTo(makespan)
	if pending := f.barrier(makespan); pending > 0 {
		return nil, f.stall(pending)
	}
	f.stats.Makespan = makespan
	if err := errors.Join(f.errs...); err != nil {
		return nil, err
	}
	return f.collect()
}

// drain steps every shard along its own copy of the epoch grid from the
// boundary from until its boards hold no pending work or its clock
// reaches the horizon, and returns the latest boundary a shard stopped
// at. Every shard steps the same grid, so the fleet's epoch count grows
// by the most any shard stepped. A fleet that has not run an epoch yet
// (from = 0) steps at least one.
func (f *Fleet) drain(from sim.Time) sim.Time {
	horizon, epoch := f.cfg.HV.Horizon, f.cfg.Epoch
	stop := make([]sim.Time, len(f.shards))
	steps := make([]int, len(f.shards))
	f.stats.EventsFired += f.advance(func(s int) int {
		sh, at, fired := f.shards[s], from, 0
		for at == 0 || sh.pending() > 0 && at < horizon {
			at = min(at.Add(epoch), horizon)
			fired += sh.eng.RunUntil(at)
			steps[s]++
		}
		stop[s] = at
		return fired
	})
	last, most := from, 0
	for s, at := range stop {
		last, most = max(last, at), max(most, steps[s])
	}
	f.stats.Epochs += most
	return last
}

// stall reports submissions the horizon cut off.
func (f *Fleet) stall(pending int) error {
	return fmt.Errorf("fleet: %d submissions still pending at horizon %v", pending, f.cfg.HV.Horizon)
}

// pending counts the shard's unfinished submissions.
func (sh *shard) pending() int {
	n := 0
	for _, b := range sh.boards {
		n += b.PendingCount()
	}
	return n
}

// collect assembles per-submission results in stream order and the
// aggregate stats, with every shard clock parked at the same final
// epoch boundary so energy integrates over identical spans regardless
// of sharding.
func (f *Fleet) collect() ([]Result, error) {
	out := make([]Result, f.subs)
	filled := 0
	occupied := make([]float64, 0, f.cfg.Boards)
	for s, sh := range f.shards {
		for l, b := range sh.boards {
			g := sh.global[l]
			results, err := b.Collect()
			if err != nil {
				return nil, fmt.Errorf("fleet: board %d: %w", g, err)
			}
			for _, r := range results {
				idx, ok := sh.idxOf[l][r.AppID]
				if !ok {
					return nil, fmt.Errorf("fleet: board %d reported unknown app %d", g, r.AppID)
				}
				out[idx] = Result{Result: r, Shard: s, Board: g}
				filled++
			}
			es := b.Energy()
			f.stats.Energy.Add(es)
			occupied = append(occupied, es.OccupiedSlotSeconds)
		}
	}
	for idx, r := range f.rejected {
		out[idx] = r
		filled++
	}
	if filled != f.subs {
		return nil, fmt.Errorf("fleet: %d results for %d submissions", filled, f.subs)
	}
	f.stats.Completed = filled - f.stats.Rejected
	f.stats.BoardFairness = metrics.JainIndex(occupied)
	return out, nil
}

// Stats reports the aggregate counters of a finished run.
func (f *Fleet) Stats() Stats { return f.stats }

// P99Response is the 99th-percentile response time over completed
// results (a helper for sweeps; 0 when nothing completed).
func P99Response(results []Result) sim.Duration {
	var xs []float64
	for _, r := range results {
		if !r.Rejected {
			xs = append(xs, r.Response.Seconds())
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return sim.Seconds(metrics.Percentile(xs, 99))
}
