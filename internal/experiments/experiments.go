// Package experiments reproduces every table and figure in the paper's
// evaluation (Section 5). Each experiment has a driver that returns
// structured data and a renderer that prints the same rows/series the
// paper reports; cmd/nimblock-paper and the repository's benchmarks are
// thin wrappers over these drivers.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/fpga"
	"nimblock/internal/hv"
	"nimblock/internal/obs"
	"nimblock/internal/sched"
	"nimblock/internal/sched/baseline"
	"nimblock/internal/sched/fcfs"
	"nimblock/internal/sched/prema"
	"nimblock/internal/sched/rr"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
	"nimblock/internal/workload"
)

// Config scales the experiment harness.
type Config struct {
	// HV configures the hypervisor and board.
	HV hv.Config
	// Seed derives every random sequence.
	Seed int64
	// Sequences per test (paper: 10). Lower for quick runs.
	Sequences int
	// Events per sequence (paper: 20).
	Events int
	// Workers bounds the worker pool fanning independent runs across
	// goroutines: 0 consults NIMBLOCK_PARALLEL then defaults to
	// GOMAXPROCS; 1 forces the serial reference path. Output is
	// byte-identical at any setting.
	Workers int
	// NewObserver, when non-nil, is called once per simulation run to
	// build that run's live observer (it is teed with any HV.Observer
	// already set). Runs execute concurrently under the worker pool, so
	// per-run sinks keep pairing state (app IDs, slot windows) local
	// while still aggregating into shared, concurrency-safe state — the
	// pattern obs.NewMetrics over one shared Registry is built for.
	NewObserver func() obs.Sink
}

// DefaultConfig reproduces the paper's scale.
func DefaultConfig() Config {
	return Config{
		HV:        hv.DefaultConfig(),
		Seed:      20230617, // ISCA'23 presentation date
		Sequences: workload.SequencesPerTest,
		Events:    workload.EventsPerSequence,
	}
}

// QuickConfig is a reduced-scale configuration for smoke tests and
// benchmarks that must finish in seconds.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Sequences = 2
	c.Events = 8
	return c
}

// PolicyNames lists the five evaluated algorithms in figure order.
var PolicyNames = []string{"Baseline", "FCFS", "PREMA", "RR", "Nimblock"}

// SharingPolicyNames lists the four sharing algorithms (everything but
// the baseline), the set normalized in Figures 5 and 6.
var SharingPolicyNames = []string{"FCFS", "PREMA", "RR", "Nimblock"}

// AblationNames lists the Nimblock variants of Section 5.6.
var AblationNames = []string{"Nimblock", "NimblockNoPreempt", "NimblockNoPipe", "NimblockNoPreemptNoPipe"}

// NewPolicy instantiates a scheduler by name.
func NewPolicy(name string, board fpga.Config) (sched.Scheduler, error) {
	switch name {
	case "Baseline":
		return baseline.New(), nil
	case "FCFS":
		return fcfs.New(), nil
	case "PREMA":
		return prema.New(), nil
	case "RR":
		return rr.New(), nil
	case "Nimblock":
		return core.New(core.Options{Preemption: true, Pipelining: true}, board), nil
	case "NimblockNoPreempt":
		return core.New(core.Options{Pipelining: true}, board), nil
	case "NimblockNoPipe":
		return core.New(core.Options{Preemption: true}, board), nil
	case "NimblockNoPreemptNoPipe":
		return core.New(core.Options{}, board), nil
	case "NimblockCheckpoint":
		return core.NewCheckpoint(board), nil
	case "NimblockEnergy":
		return core.NewEnergy(board), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", name)
	}
}

// graphMemo caches benchmark task-graphs by name. apps.MustGraph builds a
// fresh graph on every call; the harness submits the same six benchmarks
// tens of thousands of times, so it shares one immutable Graph per name
// instead (Graphs are frozen at Build and safe for concurrent readers).
var graphMemo sync.Map // string -> *taskgraph.Graph

func cachedGraph(name string) *taskgraph.Graph {
	if g, ok := graphMemo.Load(name); ok {
		return g.(*taskgraph.Graph)
	}
	g, _ := graphMemo.LoadOrStore(name, apps.MustGraph(name))
	return g.(*taskgraph.Graph)
}

// ssKey identifies one single-slot latency: the board bandwidths and
// latency scale are the only board parameters SingleSlotLatencyFor
// reads. The scale entered the key with heterogeneous boards — without
// it, a slow edge board would silently reuse a fast board's cached
// latency.
type ssKey struct {
	app   string
	batch int
	capBW float64
	sdBW  float64
	scale float64
}

var ssMemo sync.Map // ssKey -> sim.Duration

// cachedSingleSlot memoizes hv.SingleSlotLatencyFor per (app, batch,
// board-bandwidth) configuration across scenarios, sweeps, and runs.
func cachedSingleSlot(board fpga.Config, app string, batch int) sim.Duration {
	key := ssKey{app: app, batch: batch, capBW: board.CAPBytesPerSec, sdBW: board.SDBytesPerSec, scale: board.LatencyScale}
	if d, ok := ssMemo.Load(key); ok {
		return d.(sim.Duration)
	}
	d, _ := ssMemo.LoadOrStore(key, hv.SingleSlotLatencyFor(board, cachedGraph(app), batch))
	return d.(sim.Duration)
}

// eventsFired accumulates simulator event counts across every run in
// the process: one atomic add per run (not per event), so parallel
// workers do not contend. cmd/nimblock-bench reads it to report
// events/sec alongside ns/op.
var eventsFired atomic.Int64

// EventsFired reports the total simulator events fired by experiment
// runs so far in this process.
func EventsFired() int64 { return eventsFired.Load() }

// countEvents books a finished run's event count; use with defer right
// after creating a run's engine.
func countEvents(eng *sim.Engine) { eventsFired.Add(eng.Fired()) }

// RunSequence replays one event sequence under one policy and returns
// per-event results (AppIDs follow event order, starting at 1).
func RunSequence(cfg Config, policy string, seq workload.Sequence) ([]hv.Result, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	pol, err := NewPolicy(policy, cfg.HV.Board)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	defer countEvents(eng)
	hcfg := cfg.HV
	if cfg.NewObserver != nil {
		hcfg.Observer = obs.Tee(hcfg.Observer, cfg.NewObserver())
	}
	h, err := hv.New(eng, hcfg, pol)
	if err != nil {
		return nil, err
	}
	for _, ev := range seq {
		if err := h.Submit(cachedGraph(ev.App), ev.Batch, ev.Priority, ev.Arrival); err != nil {
			return nil, err
		}
	}
	return h.Run()
}

// idOffset separates AppIDs of different sequences when results are
// pooled across a whole test.
const idOffset = 1_000_000

// ScenarioData pools results for one congestion scenario across all
// sequences and policies, plus the per-event single-slot latencies needed
// for deadline analysis.
type ScenarioData struct {
	Scenario workload.Scenario
	// Results maps policy name to the pooled per-event results; events
	// from sequence i carry AppIDs offset by i*idOffset so they remain
	// unique and match across policies.
	Results map[string][]hv.Result
	// PerSequence maps policy name to per-sequence result slices (same
	// offset IDs), for statistics that must stay sequence-local.
	PerSequence map[string][][]hv.Result
	// SingleSlot maps pooled AppIDs to single-slot latencies.
	SingleSlot map[int64]sim.Duration
}

// RunScenario replays the scenario's full stimulus under every policy in
// the given list.
func RunScenario(cfg Config, scenario workload.Scenario, policyNames []string) (*ScenarioData, error) {
	spec := workload.Spec{Scenario: scenario, Events: cfg.Events}
	return runSpec(cfg, spec, scenario, policyNames)
}

func runSpec(cfg Config, spec workload.Spec, scenario workload.Scenario, policyNames []string) (*ScenarioData, error) {
	out, err := runSpecs([]specRun{{cfg: cfg, spec: spec, scenario: scenario, policies: policyNames}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// specRun is one stimulus to replay: a (config, spec, policy-set) triple.
// Batch runners (ablation, sweeps) submit several at once so every
// underlying (sequence, policy) simulation lands in one worker pool.
type specRun struct {
	cfg      Config
	spec     workload.Spec
	scenario workload.Scenario
	policies []string
}

// runSpecs replays every spec under every one of its policies, fanning
// all independent (spec, sequence, policy) simulations across the worker
// pool and assembling each ScenarioData in the exact order the serial
// loops produced it, so downstream statistics see identical inputs.
func runSpecs(runs []specRun) ([]*ScenarioData, error) {
	// Generate stimuli up front (cheap, deterministic) so job closures
	// capture ready-made sequences.
	seqsByRun := make([][]workload.Sequence, len(runs))
	for ri, run := range runs {
		seqs := workload.GenerateTest(run.spec, run.cfg.Seed)
		if run.cfg.Sequences < len(seqs) {
			seqs = seqs[:run.cfg.Sequences]
		}
		seqsByRun[ri] = seqs
	}
	var jobs []func(context.Context) ([]hv.Result, error)
	for ri, run := range runs {
		run := run
		for si, seq := range seqsByRun[ri] {
			si, seq := si, seq
			for _, pol := range run.policies {
				pol := pol
				jobs = append(jobs, func(context.Context) ([]hv.Result, error) {
					res, err := RunSequence(run.cfg, pol, seq)
					if err != nil {
						return nil, fmt.Errorf("scenario %v, sequence %d, policy %s: %w", run.scenario, si, pol, err)
					}
					for i := range res {
						res[i].AppID += int64(si) * idOffset
					}
					return res, nil
				})
			}
		}
	}
	results, err := runJobs(runs[0].cfg.workers(), jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*ScenarioData, len(runs))
	ji := 0
	for ri, run := range runs {
		data := &ScenarioData{
			Scenario:    run.scenario,
			Results:     map[string][]hv.Result{},
			PerSequence: map[string][][]hv.Result{},
			SingleSlot:  map[int64]sim.Duration{},
		}
		for si, seq := range seqsByRun[ri] {
			for _, pol := range run.policies {
				res := results[ji]
				ji++
				data.Results[pol] = append(data.Results[pol], res...)
				data.PerSequence[pol] = append(data.PerSequence[pol], res)
			}
			for i, ev := range seq {
				id := int64(i+1) + int64(si)*idOffset
				data.SingleSlot[id] = cachedSingleSlot(run.cfg.HV.Board, ev.App, ev.Batch)
			}
		}
		out[ri] = data
	}
	return out, nil
}
