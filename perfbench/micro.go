package main

// Layer-boundary micro-measurements: the cost of one call across a layer
// boundary with N pending applications, timed through public functions
// only. The fleet's per-epoch route and barrier steps have no public
// entry point; they are reported from the traced run's CPU profile
// (fleet.route_s, fleet.barrier_s) instead.

import (
	"fmt"
	"sort"
	"time"

	"nimblock/internal/apps"
	"nimblock/internal/experiments"
	"nimblock/internal/hls"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sim"
)

// microN are the pending-application counts measured.
var microN = []int{16, 128}

// microPolicies are the policies whose Schedule call is measured.
var microPolicies = []struct{ key, name string }{{"nimblock", "Nimblock"}, {"prema", "PREMA"}}

// microSettle is when Schedule is measured: every application arrived
// at 0 with a full batch, so all are still pending and the CAP is busy.
const microSettle = sim.Time(100 * sim.Millisecond)

// microApp is the deterministic i-th pending application.
func microApp(i int) (string, int) {
	names := apps.Names()
	return names[i%len(names)], sched.PriorityLevels[i%len(sched.PriorityLevels)]
}

// perCallMicros times fn in batches sized to take at least 2 ms and
// returns the median microseconds per call over seven batches.
func perCallMicros(fn func()) float64 {
	k := 1
	for {
		start := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		if time.Since(start) >= 2*time.Millisecond {
			break
		}
		k *= 2
	}
	samples := make([]float64, 7)
	for j := range samples {
		start := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		samples[j] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(k)
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

// scheduleBoard builds a board with n pending applications under the
// named policy, advanced to microSettle.
func scheduleBoard(cat catalog, policy string, n int) (*hv.Hypervisor, sched.Scheduler, error) {
	cfg := hv.DefaultConfig()
	pol, err := experiments.NewPolicy(policy, cfg.Board)
	if err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine()
	h, err := hv.New(eng, cfg, pol)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		app, prio := microApp(i)
		if err := h.Submit(cat[app], 30, prio, 0); err != nil {
			return nil, nil, err
		}
	}
	eng.RunUntil(microSettle)
	if got := len(h.Apps()); got != n {
		return nil, nil, fmt.Errorf("micro: %d of %d applications pending under %s", got, n, policy)
	}
	return h, pol, nil
}

// microMeasure returns every layer-boundary metric.
func microMeasure() (map[string]float64, error) {
	cat := newCatalog()
	out := map[string]float64{}
	var sinkDur sim.Duration
	for _, n := range microN {
		for _, p := range microPolicies {
			h, pol, err := scheduleBoard(cat, p.name, n)
			if err != nil {
				return nil, err
			}
			out[fmt.Sprintf("sched.schedule_us.%s.n%d", p.key, n)] = perCallMicros(func() { pol.Schedule(h, sched.ReasonTick) })
		}

		// OutstandingEstimate over n submissions still in transit.
		h, err := hv.New(sim.NewEngine(), hv.DefaultConfig(), fcfs.New())
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			app, prio := microApp(i)
			if err := h.Submit(cat[app], 30, prio, sim.Time(sim.Second)); err != nil {
				return nil, err
			}
		}
		out[fmt.Sprintf("hv.outstanding_us.n%d", n)] = perCallMicros(func() { sinkDur += h.OutstandingEstimate() })

		// TokenPool.Accumulate over n waiting applications, the clock
		// advancing 1 ms per call.
		pending := make([]*sched.App, n)
		for i := range pending {
			app, prio := microApp(i)
			g := cat[app]
			a, err := sched.NewApp(int64(i+1), g, hls.Analyze(g), 30, prio, 0)
			if err != nil {
				return nil, err
			}
			pending[i] = a
		}
		pool := sched.NewTokenPool()
		var now sim.Time
		out[fmt.Sprintf("sched.accumulate_us.n%d", n)] = perCallMicros(func() {
			now = now.Add(sim.Millisecond)
			pool.Accumulate(now, pending)
		})
	}
	if sinkDur < 0 {
		return nil, fmt.Errorf("micro: negative outstanding estimate")
	}
	return out, nil
}
