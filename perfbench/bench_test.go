package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestMain lets the test binary serve as a pass child, so the tests can
// drive the same spawn-a-fresh-process path the command uses.
func TestMain(m *testing.M) {
	if spec := os.Getenv(passEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// testSize runs every workload at a small fraction of its stated length.
const testSize = 0.05

// TestFleetDigestAcrossWorkers requires the fleet's per-submission
// outcomes to be identical whether shards advance on one worker or on
// several (at least two, so the parallel path runs even on one CPU).
func TestFleetDigestAcrossWorkers(t *testing.T) {
	parallel := runtime.NumCPU()
	if parallel < 2 {
		parallel = 2
	}
	var digests []string
	for _, workers := range []int{1, parallel} {
		r, err := runPass(passSpec{Workload: "fleet-400", Seed: 7, Size: 0.2, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		digests = append(digests, r.Digest)
	}
	if digests[0] != digests[1] {
		t.Fatalf("fleet digest differs: workers=1 %s, workers=%d %s", digests[0], parallel, digests[1])
	}
}

// TestTracingIsTransparent runs every workload untraced and traced:
// both must conserve submissions and produce the same outcomes, so the
// policy wrapper, the observer sink and the spans change nothing the
// simulator decides.
func TestTracingIsTransparent(t *testing.T) {
	for _, w := range workloads {
		plain, err := runPass(passSpec{Workload: w.name, Seed: 3, Size: testSize})
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		traced, err := runPass(passSpec{Workload: w.name, Seed: 3, Size: testSize, Traced: true})
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if err := checkPasses([]*passResult{plain, traced}); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if traced.Layer["sched.calls"] == 0 || traced.Layer["sim.events"] == 0 {
			t.Errorf("%s: traced pass recorded no scheduling work: %v", w.name, traced.Layer)
		}
	}
}

// TestDifferentSeedsDiffer guards against a workload ignoring its seed.
func TestDifferentSeedsDiffer(t *testing.T) {
	for _, w := range workloads {
		a, err := runPass(passSpec{Workload: w.name, Seed: 1, Size: testSize})
		if err != nil {
			t.Fatal(err)
		}
		b, err := runPass(passSpec{Workload: w.name, Seed: 2, Size: testSize})
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest == b.Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same outcomes", w.name)
		}
	}
}

// benchmarkFile is the subset of BENCHMARK.json the test compares.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the command's
// metric and workload tables in step.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), command %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := f.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %s %s %s, command %s %s %s", i, e.Name, e.Unit, e.Better, d.name, d.unit, d.better)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := f.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s %s, command %s %s %s", i, e.Name, e.Unit, e.Better, d.name, d.unit, d.better)
		}
	}
}

// TestEveryMetricPrinted drives the command's measuring loop, child
// processes included, and requires every metric BENCHMARK.json names to
// come back with its unit, untraced and traced.
func TestEveryMetricPrinted(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f := readBenchmarkFile(t)
	for _, traced := range []bool{false, true} {
		s := benchWorkload(exe, options{
			workload: "cluster-failover", seed: 5, seconds: 0.01, trace: traced,
			size: testSize, outDir: t.TempDir(),
		})
		if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
			t.Fatalf("traced=%t: correct=%t attempted=%d failed=%d", traced, s.Correct, s.Attempted, s.Failed)
		}
		want := map[string]string{}
		if traced {
			for _, m := range f.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range f.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		if len(s.Metrics) != len(want) {
			t.Errorf("traced=%t: %d metrics printed, %d expected", traced, len(s.Metrics), len(want))
		}
		for name, unit := range want {
			got, ok := s.Metrics[name]
			if !ok || got.Unit != unit {
				t.Errorf("traced=%t: metric %s = %+v, want unit %s", traced, name, got, unit)
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for v := uint64(1); v <= 10000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 10000
		got := float64(h.quantile(q))
		if got > want || got < want*0.96 {
			t.Errorf("quantile(%v) = %v, want within 4%% below %v", q, got, want)
		}
	}
	for i := 0; i < 400; i++ {
		if histBucket(histLower(i)) != i {
			t.Fatalf("bucket %d lower bound %d maps to bucket %d", i, histLower(i), histBucket(histLower(i)))
		}
	}
}

func TestFrameAttribution(t *testing.T) {
	cases := map[string]string{
		"nimblock/internal/hv.(*Hypervisor).ckptSave":         "hv",
		"nimblock/internal/sched/prema.(*Scheduler).Schedule": "sched",
		"nimblock/internal/core.(*Scheduler).reallocate":      "sched",
		"nimblock/internal/fleet.(*Fleet).advance.func1":      "fleet",
		"main.(*timedPolicy).Schedule":                        "bench",
		"runtime.mallocgc":                                    "",
	}
	for fn, want := range cases {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := enclosingFunc("nimblock/internal/fleet.(*Fleet).advance.func1.gowrap2"); got != "nimblock/internal/fleet.(*Fleet).advance" {
		t.Errorf("enclosingFunc = %q", got)
	}
	if got := enclosingFunc("nimblock/internal/hv.(*Hypervisor).function"); got != "nimblock/internal/hv.(*Hypervisor).function" {
		t.Errorf("enclosingFunc stripped a method name: %q", got)
	}
}

// TestPerStimulus checks the reduction every reported figure goes
// through: the median within each stimulus, then the mean over stimuli,
// so a slow pass of one stimulus cannot outweigh the others.
func TestPerStimulus(t *testing.T) {
	ps := []*passResult{
		{Stimulus: 0, RunS: 2}, {Stimulus: 1, RunS: 4}, {Stimulus: 0, RunS: 3},
		{Stimulus: 1, RunS: 40}, {Stimulus: 0, RunS: 100}, {Stimulus: 1, RunS: 5},
	}
	got := perStimulus(ps, func(p *passResult) float64 { return p.RunS })
	if want := (3.0 + 5.0) / 2; got != want {
		t.Fatalf("perStimulus = %v, want %v", got, want)
	}
	if err := checkPasses([]*passResult{{Stimulus: 1}}); err == nil {
		t.Fatal("checkPasses accepted a run with no pass of stimulus 0")
	}
}
