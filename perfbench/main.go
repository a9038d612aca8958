// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed for a fixed host time, checks the simulator's
// outputs, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, taken from traced passes
// alternated with untraced passes so the tracing overhead is measured
// on the same host in the same run. See README.md for the workloads,
// the metrics and the cold-process rule.
//
// Usage:
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nimblock/internal/workload"
)

// passEnv carries a passSpec to a child process.
const passEnv = "PERFBENCH_PASS"

// stimuli is how many distinct inputs a run draws from its seed. Pass i
// runs stimulus i mod stimuli, so a run covers stimuli times the
// workload's stated size and the differences in work between inputs
// average out; each stimulus's passes are reduced to medians first.
// It is also the fewest untraced passes a run makes.
const stimuli = 4

// stimulusSeed is the workload seed of stimulus k of a run.
func stimulusSeed(seed int64, k int) int64 {
	return workload.DeriveSeed(seed, k)
}

// passTimeout bounds one child pass.
const passTimeout = 150 * time.Second

// options configure a run. Tests shrink size and redirect outDir.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size scales the workload length (1 = stated size).
	size float64
	// workers fixes the fleet's shard workers; 0 means min(nproc, shards).
	workers int
	// outDir receives span files.
	outDir string
}

func main() {
	if spec := os.Getenv(passEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(parentMain(os.Args[1:]))
}

// childMain runs one pass and prints its result as one JSON line.
func childMain(specJSON string) int {
	var spec passSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: bad pass spec:", err)
		return 2
	}
	res, err := runPass(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name, or \"all\"")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "host seconds to measure for")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from traced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	o.size, o.outDir = 1, ".bench_out"
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, err := findWorkload(n); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printEnv(o)
	total := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		o.workload = name
		s := benchWorkload(exe, o)
		line, _ := json.Marshal(s)
		if len(names) > 1 {
			// Each workload's own line, then one combined line last.
			fmt.Println(string(line))
			total.Correct = total.Correct && s.Correct
			total.Attempted += s.Attempted
			total.Failed += s.Failed
			for k, v := range s.Metrics {
				total.Metrics[name+"/"+k] = v
			}
			continue
		}
		total = s
	}
	line, _ := json.Marshal(total)
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// printEnv records the environment every number depends on.
func printEnv(o options) {
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s fleet_workers=%d memos=cold-process-per-pass\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fleetWorkers(params{workers: o.workers}))
}

// summary is the final JSON line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchWorkload measures one workload for o.seconds and summarizes it.
// Untraced passes run back to back; with tracing on, each untraced pass
// is followed by a traced one.
func benchWorkload(exe string, o options) summary {
	fmt.Printf("workload %s seed=%d size=%g seconds=%g trace=%t\n", o.workload, o.seed, o.size, o.seconds, o.trace)
	var plain, traced []*passResult
	var errs []error
	start := time.Now()
	// Start another pass only if it would end, at the last pass's pace,
	// no later than half a pass after the deadline, so a run lasts about
	// o.seconds whatever its pass length.
	var last time.Duration
	for len(plain) < stimuli || time.Since(start)+last/2 < time.Duration(o.seconds*float64(time.Second)) {
		t0 := time.Now()
		k := len(plain) % stimuli
		spec := passSpec{Workload: o.workload, Seed: stimulusSeed(o.seed, k), Size: o.size, Workers: o.workers}
		r, err := spawnPass(exe, spec)
		if err != nil {
			errs = append(errs, err)
			break
		}
		r.Stimulus = k
		plain = append(plain, r)
		fmt.Printf("pass %d stimulus=%d subs_per_cal=%.6g subs_per_s=%.6g cal_s=%.6g setup_s=%.6g run_s=%.6g alloc_mb=%.6g live_mb=%.6g\n",
			len(plain), k, r.subsPerCal(), r.subsPerSec(), r.CalS, r.SetupS, r.RunS, float64(r.AllocBytes)/1e6, float64(r.LiveBytes)/1e6)
		if o.trace {
			ts := spec
			ts.Traced = true
			ts.SpanPath = filepath.Join(o.outDir, o.workload+".spans.jsonl")
			r, err := spawnPass(exe, ts)
			if err != nil {
				errs = append(errs, err)
				break
			}
			r.Stimulus = k
			traced = append(traced, r)
		}
		last = time.Since(t0)
	}
	if err := checkPasses(append(append([]*passResult(nil), plain...), traced...)); err != nil {
		errs = append(errs, err)
	}
	var metrics map[string]float64
	if len(errs) == 0 {
		if o.trace {
			var err error
			metrics, err = layerMetrics(plain, traced)
			if err != nil {
				errs = append(errs, err)
			}
		} else {
			metrics = endToEndMetrics(plain)
		}
	}
	s := summary{Correct: len(errs) == 0, Metrics: map[string]metricValue{}}
	for _, p := range append(plain, traced...) {
		s.Attempted += p.Submitted
	}
	if s.Attempted == 0 {
		s.Attempted = 1
	}
	if !s.Correct {
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		s.Failed = s.Attempted
		return s
	}
	// One pass per stimulus stands for all of that stimulus's passes:
	// checkPasses has verified they agree.
	var digests []string
	var sub, done, rej, fail int
	for _, g := range byStimulus(plain) {
		digests = append(digests, g[0].Digest)
		sub, done, rej, fail = sub+g[0].Submitted, done+g[0].Completed, rej+g[0].Rejected, fail+g[0].Failed
	}
	fmt.Printf("result_digest %s\n", strings.Join(digests, ","))
	fmt.Printf("passes untraced=%d traced=%d stimuli=%d submitted=%d completed=%d rejected=%d failed=%d\n",
		len(plain), len(traced), len(digests), sub, done, rej, fail)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	} else {
		for k, v := range simulatedMetrics(plain) {
			metrics[k] = v
		}
		for _, d := range simulated {
			fmt.Printf("simulated %-31s %14.6g %s\n", d.name, metrics[d.name], d.unit)
		}
		fmt.Printf("host      %-31s %14.6g 1/s\n", "subs_per_s", metrics["subs_per_s"])
		fmt.Printf("host      %-31s %14.6g s\n", "host.cal_s", metrics["host.cal_s"])
	}
	for _, d := range defs {
		v := metrics[d.name]
		fmt.Printf("metric %-34s %14.6g %s\n", d.name, v, d.unit)
		s.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return s
}

// spawnPass runs one pass in a fresh child process.
func spawnPass(exe string, spec passSpec) (*passResult, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), passEnv+"="+string(b))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s pass (traced=%t): %w", spec.Workload, spec.Traced, err)
	}
	var r passResult
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("%s pass: decoding %q: %w", spec.Workload, strings.TrimSpace(string(out)), err)
	}
	return &r, nil
}

// byStimulus groups a run's passes by stimulus, in stimulus order.
func byStimulus(ps []*passResult) [][]*passResult {
	var groups [][]*passResult
	for _, p := range ps {
		for len(groups) <= p.Stimulus {
			groups = append(groups, nil)
		}
		groups[p.Stimulus] = append(groups[p.Stimulus], p)
	}
	return groups
}

// checkPasses requires every pass of a run on the same stimulus, traced
// or not, to reproduce the same simulated outcome: same digest, same
// counts, same response-time percentiles, and traced passes the same
// simulated layer counts.
func checkPasses(ps []*passResult) error {
	if len(ps) == 0 {
		return errors.New("no passes")
	}
	for k, g := range byStimulus(ps) {
		if len(g) == 0 {
			return fmt.Errorf("stimulus %d: no passes", k)
		}
		if err := checkSame(g); err != nil {
			return fmt.Errorf("stimulus %d: %w", k, err)
		}
	}
	return nil
}

// checkSame requires passes of one stimulus to agree.
func checkSame(ps []*passResult) error {
	a := ps[0]
	for i, b := range ps[1:] {
		if a.Digest != b.Digest || a.Submitted != b.Submitted || a.Completed != b.Completed ||
			a.Rejected != b.Rejected || a.Failed != b.Failed || a.P50 != b.P50 || a.P99 != b.P99 {
			return fmt.Errorf("pass %d (traced=%t) diverged: digest %s vs %s, %d/%d/%d/%d vs %d/%d/%d/%d",
				i+1, b.Traced, b.Digest, a.Digest, b.Submitted, b.Completed, b.Rejected, b.Failed,
				a.Submitted, a.Completed, a.Rejected, a.Failed)
		}
	}
	var first *passResult
	for _, p := range ps {
		if p.Layer == nil {
			continue
		}
		if first == nil {
			first = p
			continue
		}
		for _, k := range deterministicLayer {
			if p.Layer[k] != first.Layer[k] {
				return fmt.Errorf("traced passes disagree on %s: %v vs %v", k, p.Layer[k], first.Layer[k])
			}
		}
	}
	return nil
}

// perStimulus reduces passes to one figure: the median of f over each
// stimulus's passes, averaged over the stimuli.
func perStimulus(ps []*passResult, f func(*passResult) float64) float64 {
	var sum float64
	groups := byStimulus(ps)
	for _, g := range groups {
		xs := make([]float64, len(g))
		for i, p := range g {
			xs[i] = f(p)
		}
		sum += median(xs)
	}
	return sum / float64(len(groups))
}

// endToEndMetrics reduces passes to their host metrics: the end-to-end
// ones, plus the raw host-clock throughput and the host speed the
// per-layer metrics report. Throughput is the run's terminal
// submissions over its run time, both per stimulus, so it weighs every
// stimulus by its work.
func endToEndMetrics(ps []*passResult) map[string]float64 {
	terminal := perStimulus(ps, func(p *passResult) float64 { return float64(p.Completed + p.Rejected + p.Failed) })
	return map[string]float64{
		"subs_per_cal": terminal / perStimulus(ps, func(p *passResult) float64 { return p.RunS / p.CalS }),
		"subs_per_s":   terminal / perStimulus(ps, func(p *passResult) float64 { return p.RunS }),
		"host.cal_s":   perStimulus(ps, func(p *passResult) float64 { return p.CalS }),
		"setup_s":      perStimulus(ps, func(p *passResult) float64 { return p.SetupS }),
		"alloc_mb":     perStimulus(ps, func(p *passResult) float64 { return float64(p.AllocBytes) / 1e6 }),
		"live_mb":      perStimulus(ps, func(p *passResult) float64 { return float64(p.LiveBytes) / 1e6 }),
	}
}

// simulatedMetrics are exact per stimulus (checkPasses has verified
// every pass of a stimulus agrees) and averaged over the stimuli.
func simulatedMetrics(ps []*passResult) map[string]float64 {
	return map[string]float64{
		"resp_p50_s": perStimulus(ps, func(p *passResult) float64 { return p.P50 }),
		"resp_p99_s": perStimulus(ps, func(p *passResult) float64 { return p.P99 }),
		"fail_frac":  perStimulus(ps, func(p *passResult) float64 { return float64(p.Rejected+p.Failed) / float64(p.Submitted) }),
	}
}

// layerMetrics reduces traced passes to the per-layer metrics (per
// stimulus medians averaged over the stimuli, like the end-to-end
// ones), plus the tracing overhead against the interleaved untraced
// passes and the layer-boundary micro-measurements.
func layerMetrics(plain, traced []*passResult) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = perStimulus(traced, func(p *passResult) float64 { return p.Layer[d.name] })
	}
	for k, v := range simulatedMetrics(traced) {
		out[k] = v
	}
	micro, err := microMeasure()
	if err != nil {
		return nil, err
	}
	for k, v := range micro {
		out[k] = v
	}
	untraced := endToEndMetrics(plain)
	for _, k := range []string{"subs_per_s", "host.cal_s"} {
		out[k] = untraced[k]
	}
	if t := endToEndMetrics(traced)["subs_per_cal"]; t > 0 {
		out["trace.overhead"] = untraced["subs_per_cal"] / t
	}
	for _, d := range perLayer {
		if v := out[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v", d.name, v)
		}
	}
	return out, nil
}
