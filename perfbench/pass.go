package main

// One pass: set up a workload, run it, check and measure it. Every pass
// runs in a fresh child process, so process-wide memos (the saturation
// analysis cache, graph and single-slot memos) start cold in every pass:
// each pass pays lazy fills inside its timed run exactly as a fresh
// simulator process does, and no pass depends on the ones before it.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"nimblock/internal/metrics"
	"nimblock/internal/trace"
)

// passSpec tells a child process which pass to run.
type passSpec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Size     float64 `json:"size"`
	Workers  int     `json:"workers"`
	Traced   bool    `json:"traced"`
	// SpanPath, when set, receives the traced pass's spans as JSON lines.
	SpanPath string `json:"span_path,omitempty"`
}

func (s passSpec) params() params {
	return params{seed: s.Seed, size: s.Size, workers: s.Workers}
}

// passResult is what one pass reports back.
type passResult struct {
	Traced bool `json:"traced"`
	// Stimulus is which of the run's stimuli the pass ran; the parent
	// sets it.
	Stimulus   int     `json:"-"`
	SetupS     float64 `json:"setup_s"`
	RunS       float64 `json:"run_s"`
	CalS       float64 `json:"cal_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	LiveBytes  uint64  `json:"live_bytes"`
	Submitted  int     `json:"submitted"`
	Completed  int     `json:"completed"`
	Rejected   int     `json:"rejected"`
	Failed     int     `json:"failed"`
	P50        float64 `json:"resp_p50_s"`
	P99        float64 `json:"resp_p99_s"`
	Digest     string  `json:"digest"`
	// Layer holds the per-layer metrics of a traced pass.
	Layer map[string]float64 `json:"layer,omitempty"`
}

func (r *passResult) subsPerSec() float64 {
	return float64(r.Completed+r.Rejected+r.Failed) / r.RunS
}

// subsPerCal is the pass's throughput in calibration units: terminal
// submissions per host second, times the host seconds one calibration
// unit took in the same pass (CalS, the mean of the kernel runs before
// the set-up and after the run).
func (r *passResult) subsPerCal() float64 {
	return r.subsPerSec() * r.CalS
}

// profileRate is the traced pass's CPU-profile sampling rate in Hz.
const profileRate = 500

// setupRepeats is how many times a pass sets its workload up.
const setupRepeats = 5

// runPass runs one pass in this process.
func runPass(spec passSpec) (*passResult, error) {
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	p := spec.params()
	var in *instr
	if spec.Traced {
		in = newInstr()
	}
	var prof bytes.Buffer
	calRounds := p.scaled(w.calRounds, 1)
	calBefore := calibrate(calRounds)

	// Set up setupRepeats times and time each; the last, instrumented
	// one runs. The pass reports the median, so the first build's
	// one-off process warm-up (page faults, heap growth) does not
	// dominate a figure measured in milliseconds.
	setups := make([]float64, setupRepeats)
	var r runner
	for i := range setups {
		var rin *instr
		if i == len(setups)-1 && spec.Traced {
			rin = in
			// Raising the rate before StartCPUProfile makes the runtime
			// print a harmless "cannot set cpu profile rate" note on
			// stderr.
			runtime.SetCPUProfileRate(profileRate)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		r, err = w.setup(p, rin)
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			pprof.StopCPUProfile()
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t1 := time.Now()
	out, err := r.run()
	elapsed := time.Since(t1)
	runtime.ReadMemStats(&after)
	if spec.Traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", w.name, err)
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(r)
	runtime.KeepAlive(out.keep)
	calAfter := calibrate(calRounds)

	if err := checkOutcome(w, p, out); err != nil {
		return nil, err
	}
	res := &passResult{
		Traced:     spec.Traced,
		SetupS:     median(setups),
		RunS:       elapsed.Seconds(),
		CalS:       (calBefore + calAfter) / 2,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		LiveBytes:  live.HeapAlloc,
		Submitted:  out.submitted,
		Completed:  out.completed,
		Rejected:   out.rejected,
		Failed:     out.failed,
		P50:        metrics.Percentile(out.responses, 50),
		P99:        metrics.Percentile(out.responses, 99),
		Digest:     fmt.Sprintf("%016x", out.digest),
	}
	if !spec.Traced {
		return res, nil
	}

	layer := map[string]float64{}
	for k, v := range out.counts {
		layer[k] = v
	}
	layer["sim.events"] = float64(out.events)
	layer["sim.events_per_s"] = float64(out.events) / elapsed.Seconds()
	layer["runtime.mallocs"] = float64(after.Mallocs - before.Mallocs)
	layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layer["runtime.gc_cpu_frac"] = after.GCCPUFraction
	layer["trace.subs_per_s"] = res.subsPerSec()

	var calls, useful int64
	var busy time.Duration
	var hist histogram
	for _, t := range in.policies {
		calls += t.calls
		useful += t.useful
		busy += t.busy
		hist.merge(&t.hist)
	}
	layer["sched.calls"] = float64(calls)
	layer["sched.busy_s"] = busy.Seconds()
	layer["sched.call_us_p50"] = float64(hist.quantile(0.50)) / 1e3
	layer["sched.call_us_p99"] = float64(hist.quantile(0.99)) / 1e3
	if calls > 0 {
		layer["sched.useful_ratio"] = float64(useful) / float64(calls)
	}

	s := in.sink
	layer["hv.reconfigs"] = s.count(trace.KindReconfigStart)
	layer["hv.items_started"] = s.count(trace.KindItemStart)
	if n := s.count(trace.KindItemStart); n > 0 {
		layer["hv.item_useful_ratio"] = s.count(trace.KindItemDone) / n
	}
	layer["hv.ckpt_saves"] = s.count(trace.KindCheckpointSave)
	layer["hv.restores"] = s.count(trace.KindRestore)

	_, layer["hv.submit_us"] = in.spanStats("hv.Submit")
	_, layer["cluster.submit_us"] = in.spanStats("cluster.Submit")
	_, layer["faas.invoke_us"] = in.spanStats("faas.Invoke")
	layer["fleet.run_s"], _ = in.spanStats("fleet.Run")

	prof2, err := attribute(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, l := range profileLayers {
		layer[l+".self_s"] = prof2.self[l]
	}
	for _, m := range cumulativeFuncs {
		layer[m] = prof2.cum[m]
	}
	layer["profile.samples"] = float64(prof2.samples)

	// The generator on its own: a separate pull of the same stream(s).
	g0 := time.Now()
	w.generate(p)
	layer["workload.gen_s"] = time.Since(g0).Seconds()

	if spec.SpanPath != "" {
		if err := os.MkdirAll(filepath.Dir(spec.SpanPath), 0o755); err != nil {
			return nil, err
		}
		if err := in.writeSpans(spec.SpanPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	res.Layer = layer
	return res, nil
}

// checkOutcome verifies conservation: every generated arrival reached
// exactly one terminal state, and at least one completed.
func checkOutcome(w workloadDef, p params, out *outcome) error {
	want := w.generate(p)
	if out.submitted != want {
		return fmt.Errorf("%s: %d submissions for %d generated arrivals", w.name, out.submitted, want)
	}
	if out.completed+out.rejected+out.failed != out.submitted {
		return fmt.Errorf("%s: conservation violated: %d completed + %d rejected + %d failed != %d submitted",
			w.name, out.completed, out.rejected, out.failed, out.submitted)
	}
	if out.completed == 0 || len(out.responses) != out.completed {
		return fmt.Errorf("%s: %d completions, %d response times", w.name, out.completed, len(out.responses))
	}
	return nil
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
