package main

// The four benchmark workloads. Each one builds everything a run needs
// before the first arrival is offered (setup), then offers the seeded
// arrivals and drives the simulation to quiescence (the timed run).
// Arrivals are an open loop in simulated time: the generator fixes every
// arrival instant from the seed and the program only receives the
// generated events, so there is no host-time pacing and no generator
// lateness to report.

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"

	"nimblock/internal/admit"
	"nimblock/internal/apps"
	"nimblock/internal/cluster"
	"nimblock/internal/core"
	"nimblock/internal/experiments"
	"nimblock/internal/faas"
	"nimblock/internal/faults"
	"nimblock/internal/fleet"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
	"nimblock/internal/workload"
)

// workloadDef is one named workload. size scales its length: 1 is the
// benchmark's stated size, tests run smaller fractions.
type workloadDef struct {
	name string
	why  string
	// setup builds the run. It must not offer any arrival.
	setup func(p params, in *instr) (runner, error)
	// generate pulls the workload's arrival stream(s) to exhaustion and
	// returns how many submissions they make: the generator cost on its
	// own, and the count conservation is checked against.
	generate func(p params) int
	// calRounds is how many calibration-kernel rounds a pass runs on
	// each side of its run, about a tenth of the run's host time.
	calRounds int
}

// params fixes one run's inputs.
type params struct {
	seed int64
	// size scales the workload length (1 = stated size).
	size float64
	// workers is the fleet's shard-advancing goroutine count.
	workers int
}

// scaled returns n scaled by the run's size, at least min.
func (p params) scaled(n, min int) int {
	v := int(float64(n) * p.size)
	if v < min {
		return min
	}
	return v
}

// runner is a workload ready to run.
type runner interface {
	// run offers every arrival and drives the simulation to quiescence.
	run() (*outcome, error)
}

// outcome is what a run produced, reduced to what the benchmark checks
// and reports.
type outcome struct {
	submitted, completed, rejected, failed int
	// responses holds the simulated response time in seconds of every
	// completed submission.
	responses []float64
	// digest hashes every submission's outcome in submission order.
	digest uint64
	// events counts simulator events fired.
	events int64
	// counts holds workload-specific simulated counters (named as the
	// per-layer metrics they feed).
	counts map[string]float64
	// keep holds the results so they stay live until the heap is
	// measured.
	keep any
}

// Outcome states folded into the digest.
const (
	stateDone byte = iota
	stateRejected
	stateFailed
)

// digester accumulates the result digest.
type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) add(state byte, board int, resp sim.Duration) {
	var buf [17]byte
	buf[0] = state
	binary.LittleEndian.PutUint64(buf[1:], uint64(int64(board)))
	binary.LittleEndian.PutUint64(buf[9:], uint64(resp))
	d.h.Write(buf[:])
}

// record books one submission's outcome.
func (o *outcome) record(d digester, state byte, board int, resp sim.Duration) {
	o.submitted++
	switch state {
	case stateDone:
		o.completed++
		o.responses = append(o.responses, resp.Seconds())
	case stateRejected:
		o.rejected++
	case stateFailed:
		o.failed++
	}
	d.add(state, board, resp)
}

// checkResult verifies one completed hypervisor result is internally
// consistent.
func checkResult(r hv.Result) error {
	if r.Response <= 0 || r.Response != r.Retire.Sub(r.Arrival) || r.FirstLaunch < r.Arrival || r.Retire < r.FirstLaunch {
		return fmt.Errorf("inconsistent result for %s (app %d): arrival %v, first launch %v, retire %v, response %v",
			r.App, r.AppID, r.Arrival, r.FirstLaunch, r.Retire, r.Response)
	}
	return nil
}

var workloads = []workloadDef{
	{
		name:      "paper-scenarios",
		why:       "what every paper reproduction pays: sim, sched and hv on one 10-slot board, five policies, no front-end",
		setup:     setupPaper,
		calRounds: 110,
		generate:  generatePaper,
	},
	{
		name:      "fleet-400",
		why:       "the 400-board sharded fleet: barrier load reads and token accrual dominate; the only parallel path",
		setup:     setupFleet,
		calRounds: 60,
		generate:  generateFleet,
	},
	{
		name:      "cluster-failover",
		why:       "hv write-heavy: checkpoint save/restore, evacuate and migration under board crashes on the cluster path",
		setup:     setupFailover,
		calRounds: 200,
		generate:  generateFailover,
	},
	{
		name:      "faas-hetero",
		why:       "serverless path: admission, cold-start bitstream deployment and hetero placement near saturation",
		setup:     setupFaas,
		calRounds: 25,
		generate:  generateFaas,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// catalog is the application catalog every workload builds in setup:
// one immutable task graph per paper benchmark, shared by every
// submission of it.
type catalog map[string]*taskgraph.Graph

func newCatalog() catalog {
	c := catalog{}
	for _, name := range apps.Names() {
		c[name] = apps.MustGraph(name)
	}
	return c
}

// ---- paper-scenarios ----------------------------------------------------

// paperSequences is how many sequences of 20 arrivals each scenario
// replays: 3 scenarios x 20 sequences x 20 arrivals x 5 policies =
// 6,000 submissions at the stated size. Every sequence has its own
// derived seed, so the scenarios do not share draws and a run averages
// over 60 independent sequences.
const paperSequences = 20

// paperStimulus generates the paper's stimulus: for every congestion
// scenario, sequences of 20 arrivals drawn by the paper's generator.
func paperStimulus(p params) [][]workload.Sequence {
	n := p.scaled(paperSequences, 1)
	scenarios := workload.Scenarios()
	out := make([][]workload.Sequence, len(scenarios))
	for si, sc := range scenarios {
		spec := workload.Spec{Scenario: sc, Events: workload.EventsPerSequence}
		for i := 0; i < n; i++ {
			out[si] = append(out[si], workload.Generate(spec, workload.DeriveSeed(p.seed, si*n+i)))
		}
	}
	return out
}

// generatePaper returns the submission count: every generated event is
// submitted once under each of the five policies.
func generatePaper(p params) int {
	n := 0
	for _, seqs := range paperStimulus(p) {
		for _, s := range seqs {
			n += len(s)
		}
	}
	return n * len(experiments.PolicyNames)
}

type paperBoard struct {
	eng *sim.Engine
	h   *hv.Hypervisor
	seq workload.Sequence
}

type paperRun struct {
	in     *instr
	cat    catalog
	boards []paperBoard
}

func setupPaper(p params, in *instr) (runner, error) {
	r := &paperRun{in: in, cat: newCatalog()}
	hcfg := in.hvConfig(hv.DefaultConfig())
	for _, seqs := range paperStimulus(p) {
		for _, seq := range seqs {
			for _, name := range experiments.PolicyNames {
				pol, err := experiments.NewPolicy(name, hcfg.Board)
				if err != nil {
					return nil, err
				}
				eng := sim.NewEngine()
				si := in.begin("hv.New")
				h, err := hv.New(eng, hcfg, in.policy(pol))
				in.end(si)
				if err != nil {
					return nil, err
				}
				r.boards = append(r.boards, paperBoard{eng: eng, h: h, seq: seq})
			}
		}
	}
	return r, nil
}

func (r *paperRun) run() (*outcome, error) {
	out := &outcome{counts: map[string]float64{}}
	d := newDigester()
	all := make([][]hv.Result, len(r.boards))
	for bi, b := range r.boards {
		for _, ev := range b.seq {
			si := r.in.begin("hv.Submit")
			err := b.h.Submit(r.cat[ev.App], ev.Batch, ev.Priority, ev.Arrival)
			r.in.end(si)
			if err != nil {
				return nil, err
			}
		}
		si := r.in.begin("hv.Run")
		res, err := b.h.Run()
		r.in.end(si)
		if err != nil {
			return nil, fmt.Errorf("board %d: %w", bi, err)
		}
		if len(res) != len(b.seq) {
			return nil, fmt.Errorf("board %d: %d results for %d submissions", bi, len(res), len(b.seq))
		}
		for _, x := range res {
			if err := checkResult(x); err != nil {
				return nil, err
			}
			out.record(d, stateDone, 0, x.Response)
		}
		rec := b.h.Recovery()
		out.counts["hv.wasted_s"] += rec.WastedWork.Seconds()
		out.events += b.eng.Fired()
		all[bi] = res
	}
	out.digest = d.h.Sum64()
	out.keep = all
	return out, nil
}

// ---- fleet-400 ----------------------------------------------------------

// The fleet shape is the 100x cell of the fleet sweep: 400 boards in 8
// shards, 100 ms epochs, streamed Poisson arrivals at 12.5/s with
// batches capped at 4, Nimblock on every board.
const (
	fleetBoards   = 400
	fleetShards   = 8
	fleetRate     = 12.5
	fleetBatchCap = 4
	fleetEpoch    = 100 * sim.Millisecond
	// fleetArrivals is the stated length of the stream.
	fleetArrivals = 5000
)

func fleetSpec(p params) workload.Spec {
	return workload.Spec{PoissonRate: fleetRate, BatchCap: fleetBatchCap, Events: p.scaled(fleetArrivals, 50)}
}

func generateFleet(p params) int {
	st := workload.NewStream(fleetSpec(p), p.seed)
	for {
		if _, ok := st.Next(); !ok {
			return st.Emitted()
		}
	}
}

// fleetWorkers is the shard-advancing goroutine count a run uses:
// min(nproc, shards) unless the caller fixes it.
func fleetWorkers(p params) int {
	w := p.workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > fleetShards {
		w = fleetShards
	}
	return w
}

type fleetRun struct {
	in      *instr
	f       *fleet.Fleet
	stream  *workload.Stream
	workers int
}

func setupFleet(p params, in *instr) (runner, error) {
	hcfg := in.hvConfig(hv.DefaultConfig())
	si := in.begin("fleet.New")
	f, err := fleet.New(fleet.Config{
		Shards:         fleetShards,
		Boards:         fleetBoards,
		HV:             hcfg,
		Epoch:          fleetEpoch,
		Workers:        fleetWorkers(p),
		MaxOutstanding: fleetBoards * 64,
	}, func(b hv.Config) sched.Scheduler {
		return in.policy(core.New(core.DefaultOptions(), b.Board))
	})
	in.end(si)
	if err != nil {
		return nil, err
	}
	return &fleetRun{in: in, f: f, stream: workload.NewStream(fleetSpec(p), p.seed), workers: fleetWorkers(p)}, nil
}

func (r *fleetRun) run() (*outcome, error) {
	si := r.in.begin("fleet.Run")
	res, err := r.f.Run(r.stream)
	r.in.end(si)
	if err != nil {
		return nil, err
	}
	out := &outcome{counts: map[string]float64{}}
	d := newDigester()
	for _, x := range res {
		if x.Rejected {
			out.record(d, stateRejected, -1, 0)
			continue
		}
		if err := checkResult(x.Result); err != nil {
			return nil, err
		}
		out.record(d, stateDone, x.Board, x.Response)
	}
	st := r.f.Stats()
	if st.Submitted != out.submitted || st.Completed != out.completed || st.Rejected != out.rejected {
		return nil, fmt.Errorf("fleet stats %+v disagree with %d results", st, len(res))
	}
	out.digest = d.h.Sum64()
	out.events = st.EventsFired
	out.counts["fleet.workers"] = float64(r.workers)
	out.counts["fleet.epochs"] = float64(st.Epochs)
	out.counts["fleet.board_jain"] = st.BoardFairness
	out.keep = res
	return out, nil
}

// ---- cluster-failover ---------------------------------------------------

// The failover shape is the -exp failover cell with MTBF 2 s, recovery
// 5 s and checkpointing on: 3 boards, stress arrivals (20 per
// sequence), Nimblock, least-pending dispatch, retry budget 3, a board
// crash every 2 s round-robin until 12 s, 50 ms checkpoint period. Each
// sequence runs on a fresh cluster.
const (
	failoverBoards    = 3
	failoverMTBF      = 2 * sim.Second
	failoverRecovery  = 5 * sim.Second
	failoverWindow    = 12 * sim.Second
	failoverCkpt      = 50 * sim.Millisecond
	failoverSequences = 50
)

func failoverStimulus(p params) []workload.Sequence {
	n := p.scaled(failoverSequences, 1)
	seqs := make([]workload.Sequence, n)
	for i := range seqs {
		seqs[i] = workload.Generate(workload.Spec{Scenario: workload.Stress, Events: workload.EventsPerSequence}, workload.DeriveSeed(p.seed, i))
	}
	return seqs
}

func generateFailover(p params) int {
	n := 0
	for _, s := range failoverStimulus(p) {
		n += len(s)
	}
	return n
}

func failoverCrashes() []faults.BoardEvent {
	var events []faults.BoardEvent
	board := 0
	for at := sim.Time(failoverMTBF); at < sim.Time(failoverWindow); at = at.Add(failoverMTBF) {
		events = append(events, faults.BoardEvent{Kind: faults.BoardCrash, Board: board, At: at, Recover: at.Add(failoverRecovery)})
		board = (board + 1) % failoverBoards
	}
	return events
}

type failoverCluster struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	seq workload.Sequence
}

type failoverRun struct {
	in       *instr
	cat      catalog
	clusters []failoverCluster
}

func setupFailover(p params, in *instr) (runner, error) {
	r := &failoverRun{in: in, cat: newCatalog()}
	hcfg := in.hvConfig(hv.DefaultConfig())
	hcfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: failoverCkpt}
	for _, seq := range failoverStimulus(p) {
		eng := sim.NewEngine()
		si := in.begin("cluster.New")
		cl, err := cluster.New(eng, cluster.Config{
			Boards:      failoverBoards,
			HV:          hcfg,
			Dispatch:    cluster.LeastPending,
			Seed:        p.seed,
			Health:      &health.Options{RetryBudget: 3},
			BoardFaults: failoverCrashes(),
		}, func(b hv.Config) sched.Scheduler {
			return in.policy(core.New(core.DefaultOptions(), b.Board))
		})
		in.end(si)
		if err != nil {
			return nil, err
		}
		r.clusters = append(r.clusters, failoverCluster{eng: eng, cl: cl, seq: seq})
	}
	return r, nil
}

func (r *failoverRun) run() (*outcome, error) {
	out := &outcome{counts: map[string]float64{}}
	d := newDigester()
	all := make([][]cluster.Result, len(r.clusters))
	for ci, c := range r.clusters {
		for _, ev := range c.seq {
			si := r.in.begin("cluster.Submit")
			err := c.cl.Submit(r.cat[ev.App], ev.Batch, ev.Priority, ev.Arrival)
			r.in.end(si)
			if err != nil {
				return nil, err
			}
		}
		si := r.in.begin("cluster.Run")
		res, err := c.cl.Run()
		r.in.end(si)
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", ci, err)
		}
		if len(res) != len(c.seq) {
			return nil, fmt.Errorf("cluster %d: %d results for %d submissions", ci, len(res), len(c.seq))
		}
		for _, x := range res {
			switch {
			case x.Rejected:
				out.record(d, stateRejected, x.Board, 0)
			case x.Failed:
				out.record(d, stateFailed, x.Board, 0)
			default:
				if err := checkResult(x.Result); err != nil {
					return nil, err
				}
				out.record(d, stateDone, x.Board, x.Response)
			}
		}
		st := c.cl.FailoverStats()
		out.counts["health.deaths"] += float64(st.Deaths)
		out.counts["health.migrated_items"] += float64(st.MigratedItems)
		out.counts["hv.wasted_s"] += st.WastedWork.Seconds()
		out.events += c.eng.Fired()
		all[ci] = res
	}
	out.digest = d.h.Sum64()
	out.keep = all
	return out, nil
}

// ---- faas-hetero --------------------------------------------------------

// The serverless shape: the hetero board mix (one 10-slot reference
// board plus three 4-slot boards at latency scale 2, powered at 2.5 W
// static and 1.5 W active per slot), the six paper functions, skewed
// popularity, Poisson invocations just under saturation, 500 ms cold
// start, ScaleUp 4 and a bounded admission queue.
const (
	faasEdgeBoards  = 3
	faasEdgeSlots   = 4
	faasEdgeScale   = 2
	faasStaticWatts = 2.5
	faasActiveWatts = 1.5
	faasColdStart   = 500 * sim.Millisecond
	faasScaleUp     = 4
	faasRate        = 0.1
	faasBatchCap    = 8
	faasInvocations = 6000
)

// faasFunctions registers every paper benchmark as a function. The
// paper assigns priorities per arrival, not per application; the
// serverless workload fixes one class per function, latency-sensitive
// classifiers high and bulk rendering low.
var faasFunctions = []struct {
	app      string
	priority int
	// popularity is the function's relative invocation weight.
	popularity int
}{
	{apps.LeNet, 9, 8},
	{apps.ImageCompression, 3, 4},
	{apps.DigitRecognition, 9, 1},
	{apps.OpticalFlow, 3, 2},
	{apps.Rendering3D, 1, 2},
	{apps.AlexNet, 1, 1},
}

// faasAdmission bounds the platform: a queue deep enough for a burst,
// a dispatch window matching the mix's parallelism, shedding beyond.
func faasAdmission() *admit.Config {
	return &admit.Config{Capacity: 24, MaxInFlight: 12}
}

func faasSpec(p params) workload.Spec {
	var pool []string
	for _, f := range faasFunctions {
		for i := 0; i < f.popularity; i++ {
			pool = append(pool, f.app)
		}
	}
	return workload.Spec{PoissonRate: faasRate, BatchCap: faasBatchCap, Pool: pool, Events: p.scaled(faasInvocations, 20)}
}

func generateFaas(p params) int {
	st := workload.NewStream(faasSpec(p), p.seed)
	for {
		if _, ok := st.Next(); !ok {
			return st.Emitted()
		}
	}
}

func faasBoards(base hv.Config) []hv.Config {
	cfgs := make([]hv.Config, 1+faasEdgeBoards)
	for i := range cfgs {
		c := base
		c.Board.StaticWattsPerSlot = faasStaticWatts
		c.Board.ActiveWattsPerSlot = faasActiveWatts
		if i > 0 {
			c.Board.Slots = faasEdgeSlots
			c.Board.LatencyScale = faasEdgeScale
		}
		cfgs[i] = c
	}
	return cfgs
}

type faasRun struct {
	in     *instr
	eng    *sim.Engine
	p      *faas.Platform
	stream *workload.Stream
}

func setupFaas(p params, in *instr) (runner, error) {
	cat := newCatalog()
	hcfg := in.hvConfig(hv.DefaultConfig())
	eng := sim.NewEngine()
	bcfgs := faasBoards(hcfg)
	si := in.begin("faas.New")
	pl, err := faas.New(eng, faas.Config{
		Boards:       len(bcfgs),
		HV:           hcfg,
		BoardConfigs: bcfgs,
		ColdStart:    faasColdStart,
		ScaleUp:      faasScaleUp,
		Admission:    faasAdmission(),
	}, func() sched.Scheduler {
		return in.policy(core.New(core.DefaultOptions(), hcfg.Board))
	})
	in.end(si)
	if err != nil {
		return nil, err
	}
	for _, f := range faasFunctions {
		if err := pl.Register(f.app, faas.Function{Graph: cat[f.app], Priority: f.priority}); err != nil {
			return nil, err
		}
	}
	return &faasRun{in: in, eng: eng, p: pl, stream: workload.NewStream(faasSpec(p), p.seed)}, nil
}

func (r *faasRun) run() (*outcome, error) {
	for {
		ev, ok := r.stream.Next()
		if !ok {
			break
		}
		si := r.in.begin("faas.Invoke")
		err := r.p.Invoke(ev.App, ev.Batch, ev.Arrival)
		r.in.end(si)
		if err != nil {
			return nil, err
		}
	}
	si := r.in.begin("faas.Run")
	res, err := r.p.Run()
	r.in.end(si)
	if err != nil {
		return nil, err
	}
	if len(res) != r.stream.Emitted() {
		return nil, fmt.Errorf("%d results for %d invocations", len(res), r.stream.Emitted())
	}
	out := &outcome{counts: map[string]float64{}}
	d := newDigester()
	for _, x := range res {
		switch {
		case x.Rejected:
			out.record(d, stateRejected, x.Board, 0)
		case x.Failed:
			out.record(d, stateFailed, x.Board, 0)
		default:
			if x.Latency <= 0 {
				return nil, fmt.Errorf("invocation of %s at %v: latency %v", x.Function, x.InvokedAt, x.Latency)
			}
			out.record(d, stateDone, x.Board, x.Latency)
		}
	}
	st := r.p.Stats()
	as := r.p.AdmissionStats()
	if st.Invocations+st.Rejections != out.submitted || as.Offered != out.submitted {
		return nil, fmt.Errorf("faas stats %+v / admission %+v disagree with %d results", st, as, out.submitted)
	}
	out.digest = d.h.Sum64()
	out.events = r.eng.Fired()
	out.counts["faas.cold_starts"] = float64(st.ColdStarts)
	if n := st.ColdStarts + st.WarmStarts; n > 0 {
		out.counts["faas.warm_ratio"] = float64(st.WarmStarts) / float64(n)
	}
	out.counts["admit.offered"] = float64(as.Offered)
	out.counts["admit.shed"] = float64(as.Shed)
	out.counts["admit.peak_queue"] = float64(as.PeakQueueDepth)
	out.keep = res
	return out, nil
}
