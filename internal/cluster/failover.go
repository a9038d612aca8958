package cluster

// Hedged dispatch, the cluster's own piece of the failure-domain layer
// (the rest — health tracking, evacuation, migration, retry budgets —
// lives in internal/dispatch). A submission with priority >=
// Health.HedgePriority is placed on the two best placeable boards; the
// first copy to retire wins and the other is aborted.

import (
	"nimblock/internal/admit"
	"nimblock/internal/hv"
)

// hedge tracks one submission placed on two boards. The admission
// ticket is held here (not bound to either copy) so it is released
// exactly once.
type hedge struct {
	copies map[int]int64 // board -> board-local submission ID
	ticket *admit.Ticket
	done   bool
}

// hedge places an SLO-critical submission on the two best placeable
// boards. It returns false when fewer than two boards can take it, and
// the caller falls back to a single placement.
func (c *Cluster) hedge(j *job, t *admit.Ticket) bool {
	cands := c.Placeable()
	if len(cands) < 2 {
		return false
	}
	first := c.pickAmong(cands)
	rest := make([]int, 0, len(cands)-1)
	for _, b := range cands {
		if b != first {
			rest = append(rest, b)
		}
	}
	second := c.pickAmong(rest)
	id1, err := c.submitTo(first, j)
	if err != nil {
		c.Report(err)
		c.Release(t)
		return true
	}
	mon := c.Monitor()
	id2, err := c.submitTo(second, j)
	if err != nil {
		// The twin failed to submit: keep the single healthy placement.
		c.Report(err)
		c.Bind(first, id1, j, t)
		mon.Kick()
		return true
	}
	if c.hedges == nil {
		c.hedges = map[int]*hedge{}
	}
	c.hedges[j.Idx] = &hedge{copies: map[int]int64{first: id1, second: id2}, ticket: t}
	// Bind the twin first: the last Bind sets the job's board.
	c.Bind(second, id2, j, nil)
	c.Bind(first, id1, j, nil)
	mon.StatsRef().Hedged++
	if ins := mon.Instruments(); ins != nil {
		ins.Hedged.Inc()
	}
	mon.Kick()
	return true
}

// retired settles a hedge when one of its copies retires: the winner
// becomes the submission's board, the loser is aborted, and the held
// admission ticket is released.
func (c *Cluster) retired(board int, id int64, j *job) {
	if j == nil {
		return
	}
	h := c.hedges[j.Idx]
	if h == nil || h.done {
		return
	}
	h.done = true
	j.Board = board
	mon := c.Monitor()
	st, ins := mon.StatsRef(), mon.Instruments()
	for b, cid := range h.copies {
		if b == board && cid == id {
			continue
		}
		if ok, spent := c.Board(b).Abort(cid); ok {
			st.HedgeCancelled++
			st.WastedWork += spent
			if ins != nil {
				ins.HedgeWins.Inc()
				ins.WastedWork.Add(spent.Seconds())
			}
		}
		c.Unbind(b, cid)
	}
	c.Release(h.ticket)
	h.ticket = nil
}

// evacuated handles a hedge copy carried off a dead board: while its
// twin is still in flight the copy is simply dropped (its work booked
// as wasted); once both copies are gone the submission fails over as
// ordinary work with the hedge's ticket.
func (c *Cluster) evacuated(b int, j *job, ev *hv.Evacuee, t *admit.Ticket) (*admit.Ticket, bool) {
	h := c.hedges[j.Idx]
	if h == nil || h.done {
		return t, true
	}
	delete(h.copies, b)
	c.Waste(ev.WorkDone)
	if len(h.copies) > 0 {
		return nil, false
	}
	// The wasted work is already booked.
	delete(c.hedges, j.Idx)
	ev.WorkDone = 0
	return h.ticket, true
}
