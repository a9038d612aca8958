// Command nimblock-paper regenerates every table and figure from the
// paper's evaluation (Section 5) on the simulated platform and prints the
// same rows and series the paper reports.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"

	"nimblock/internal/experiments"
	"nimblock/internal/obs"
	"nimblock/internal/workload"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experimentNames, ", "))
		quick      = flag.Bool("quick", false, "reduced scale (2 sequences x 8 events) for fast runs")
		seed       = flag.Int64("seed", 0, "override the base random seed")
		workers    = flag.Int("workers", 0, "worker pool size for independent runs (0: NIMBLOCK_PARALLEL or GOMAXPROCS; 1: serial)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
		serve      = flag.String("serve", "", "serve live aggregate metrics over HTTP on this address (e.g. :9090) while experiments run; Prometheus text at /metrics, JSON at /metrics.json; blocks after the run until interrupted")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers

	var reg *obs.Registry
	if *serve != "" {
		// One registry aggregates every simulation the harness fans out;
		// each run gets its own Metrics sink so pairing state stays
		// run-local while the instruments (shared, atomic) accumulate.
		reg = obs.NewRegistry()
		slots := cfg.HV.Board.Slots
		cfg.NewObserver = func() obs.Sink { return obs.NewMetrics(reg, slots) }
		go func() {
			if err := http.ListenAndServe(*serve, reg.Handler()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fail(f.Close())
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		fail(err)
		fail(trace.Start(f))
		defer func() {
			trace.Stop()
			fail(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			fail(err)
			runtime.GC() // settle allocations so the profile reflects live heap
			fail(pprof.WriteHeapProfile(f))
			fail(f.Close())
		}()
	}
	want, err := parseExperiments(*exp)
	fail(err)
	all := want["all"]
	run := func(name string) bool { return all || want[name] }

	if run("table1") {
		fmt.Println(experiments.Table1())
	}
	if run("table2") {
		fmt.Println(experiments.Table2())
	}
	if run("table3") {
		t3, err := experiments.Table3(cfg)
		fail(err)
		fmt.Println(t3.Render())
	}

	var data map[workload.Scenario]*experiments.ScenarioData
	needScenarios := run("fig5") || run("fig6") || run("fig7") || run("fig8")
	if needScenarios {
		data = map[workload.Scenario]*experiments.ScenarioData{}
		for _, sc := range workload.Scenarios() {
			d, err := experiments.RunScenario(cfg, sc, experiments.PolicyNames)
			fail(err)
			data[sc] = d
		}
	}
	if run("fig5") {
		f, err := experiments.Fig5(data)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("fig6") {
		f, err := experiments.Fig6(data)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("fig7") {
		f, err := experiments.Fig7(data)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("fig8") {
		f, err := experiments.Fig8(data[workload.Standard])
		fail(err)
		fmt.Println(f.Render())
	}

	if run("estimates") {
		f, err := experiments.EstimateAccuracy(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("loadsweep") {
		f, err := experiments.LoadSweep(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("reconfigsweep") {
		f, err := experiments.ReconfigSweep(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("preempt") {
		f, err := experiments.PreemptStudy(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("optimality") {
		f, err := experiments.Optimality(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("chaos") {
		f, err := experiments.Chaos(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("checkpoint") {
		f, err := experiments.CheckpointAblation(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("failover") {
		f, err := experiments.Failover(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("hetero") {
		f, err := experiments.Hetero(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("fleet") {
		// The registry (when -serve is set) exposes the largest cell's
		// per-shard routing and pending-depth instruments.
		f, err := experiments.Fleet(cfg, reg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("overload") {
		// The shared registry (when -serve is set) doubles as the live
		// admission side-channel: admit_* counters and queue gauges.
		f, err := experiments.Overload(cfg, reg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("utilization") {
		f, err := experiments.UtilizationStudy(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("slotsweep") {
		f, err := experiments.SlotSweep(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("scaleout") {
		f, err := experiments.ScaleOut(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("interconnect") {
		f, err := experiments.InterconnectStudy(cfg)
		fail(err)
		fmt.Println(f.Render())
	}
	if run("fig7ablation") {
		f, err := experiments.DeadlineAblation(cfg)
		fail(err)
		fmt.Println(f.Render())
		fmt.Println(f.Summary())
		fmt.Println()
	}

	if run("fig9") || run("fig10") || run("fig11") {
		ab, err := experiments.RunAblation(cfg)
		fail(err)
		if run("fig9") {
			f, err := experiments.Fig9(ab)
			fail(err)
			fmt.Println(f.Render())
		}
		if run("fig10") {
			f, err := experiments.Fig10(ab)
			fail(err)
			fmt.Println(f.Render())
		}
		if run("fig11") {
			f, err := experiments.Fig11(ab)
			fail(err)
			fmt.Println(f.Render())
		}
	}

	if *serve != "" {
		fmt.Printf("serving metrics on %s (/metrics, /metrics.json); Ctrl-C to exit\n", *serve)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}

// experimentNames lists every name -exp accepts.
var experimentNames = []string{
	"all", "table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"fig7ablation", "interconnect", "scaleout", "slotsweep", "utilization", "optimality", "preempt",
	"reconfigsweep", "loadsweep", "estimates", "chaos", "overload", "checkpoint", "failover", "hetero", "fleet",
}

// parseExperiments splits a comma-separated -exp value into the set of
// requested experiments, rejecting any name not in experimentNames so
// a typo fails instead of silently running nothing.
func parseExperiments(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(experimentNames, e) {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", e, strings.Join(experimentNames, ", "))
		}
		want[e] = true
	}
	return want, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
