package main

// The metrics the benchmark reports. BENCHMARK.json at the repository
// root lists the same names, units and directions; the package test
// checks the two agree.

type metricDef struct {
	name, unit, better string
}

// endToEnd are reported by untraced runs, as medians over the run's
// passes. All four are host measurements: the simulated statistics
// (simulated below) repeat exactly for a seed but move with it, so they
// are exact checks, not bounded end-to-end metrics. Throughput is in
// calibration units (see calib.go); the raw host-clock figure is a
// per-layer metric.
var endToEnd = []metricDef{
	{"subs_per_cal", "1/cal", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"live_mb", "MB", "lower"},
}

// simulated are the simulated-clock results: every pass of a run must
// reproduce them exactly. Untraced runs print them; traced runs report
// them with the per-layer metrics.
var simulated = []metricDef{
	{"resp_p50_s", "s", "lower"},
	{"resp_p99_s", "s", "lower"},
	{"fail_frac", "ratio", "lower"},
}

// perLayer are reported by traced runs. Every workload prints every
// one; a layer a workload does not exercise reads 0. CPU-profile times
// (*.self_s, *.cum_s, fleet.barrier_s/route_s/advance_s) are CPU seconds
// per pass; span times are host seconds or microseconds per call.
// subs_per_s and host.cal_s are medians over the run's untraced passes.
var perLayer = append(append([]metricDef(nil), simulated...), []metricDef{
	{"subs_per_s", "1/s", "higher"},
	{"host.cal_s", "s", "lower"},

	{"sim.events", "count", "higher"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.self_s", "s", "lower"},

	{"sched.calls", "count", "lower"},
	{"sched.busy_s", "s", "lower"},
	{"sched.call_us_p50", "us", "lower"},
	{"sched.call_us_p99", "us", "lower"},
	{"sched.useful_ratio", "ratio", "higher"},
	{"sched.self_s", "s", "lower"},
	{"sched.schedule_us.nimblock.n16", "us", "lower"},
	{"sched.schedule_us.nimblock.n128", "us", "lower"},
	{"sched.schedule_us.prema.n16", "us", "lower"},
	{"sched.schedule_us.prema.n128", "us", "lower"},
	{"sched.accumulate_us.n16", "us", "lower"},
	{"sched.accumulate_us.n128", "us", "lower"},

	{"hv.self_s", "s", "lower"},
	{"hv.reconfigs", "count", "lower"},
	{"hv.items_started", "count", "lower"},
	{"hv.item_useful_ratio", "ratio", "higher"},
	{"hv.ckpt_saves", "count", "lower"},
	{"hv.restores", "count", "lower"},
	{"hv.submit_us", "us", "lower"},
	{"hv.wasted_s", "s", "lower"},
	{"hv.outstanding_us.n16", "us", "lower"},
	{"hv.outstanding_us.n128", "us", "lower"},

	{"saturate.self_s", "s", "lower"},
	{"saturate.cum_s", "s", "lower"},
	{"bitstream.self_s", "s", "lower"},

	{"workload.gen_s", "s", "lower"},
	{"workload.self_s", "s", "lower"},

	{"fleet.workers", "count", "higher"},
	{"fleet.epochs", "count", "lower"},
	{"fleet.run_s", "s", "lower"},
	{"fleet.barrier_s", "s", "lower"},
	{"fleet.route_s", "s", "lower"},
	{"fleet.advance_s", "s", "lower"},
	{"fleet.self_s", "s", "lower"},
	{"fleet.board_jain", "ratio", "higher"},

	{"cluster.self_s", "s", "lower"},
	{"cluster.submit_us", "us", "lower"},
	{"health.self_s", "s", "lower"},
	{"health.deaths", "count", "lower"},
	{"health.migrated_items", "count", "higher"},

	{"faas.self_s", "s", "lower"},
	{"faas.invoke_us", "us", "lower"},
	{"faas.cold_starts", "count", "lower"},
	{"faas.warm_ratio", "ratio", "higher"},
	{"admit.self_s", "s", "lower"},
	{"admit.offered", "count", "higher"},
	{"admit.shed", "count", "lower"},
	{"admit.peak_queue", "count", "lower"},

	{"runtime.mallocs", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc.self_s", "s", "lower"},
	{"runtime.other.self_s", "s", "lower"},
	{"other.self_s", "s", "lower"},
	{"bench.self_s", "s", "lower"},
	{"profile.samples", "count", "higher"},

	{"trace.subs_per_s", "1/s", "higher"},
	{"trace.overhead", "ratio", "lower"},
}...)

// deterministicLayer are per-layer metrics that depend only on the seed
// and the workload; every traced pass must reproduce them exactly.
var deterministicLayer = []string{
	"sim.events", "sched.calls", "sched.useful_ratio", "hv.reconfigs", "hv.items_started",
	"hv.item_useful_ratio", "hv.ckpt_saves", "hv.restores", "hv.wasted_s", "fleet.epochs",
	"fleet.board_jain", "health.deaths", "health.migrated_items", "faas.cold_starts",
	"faas.warm_ratio", "admit.offered", "admit.shed", "admit.peak_queue",
}
