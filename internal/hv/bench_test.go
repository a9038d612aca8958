package hv_test

import (
	"testing"

	"nimblock/internal/apps"
	"nimblock/internal/core"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
)

// BenchmarkHypervisorRun measures one contended Nimblock run end to end:
// simulated time is fixed, so ns/op is pure harness overhead.
func BenchmarkHypervisorRun(b *testing.B) {
	board := hv.DefaultConfig().Board
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		h, err := hv.New(eng, hv.DefaultConfig(), core.New(core.DefaultOptions(), board))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range mixedWorkloadBench() {
			if err := h.Submit(apps.MustGraph(s.name), s.batch, s.prio, s.at); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := h.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func mixedWorkloadBench() []submission {
	return []submission{
		{apps.ImageCompression, 5, 3, 0},
		{apps.LeNet, 5, 1, 200 * sim.Time(sim.Millisecond)},
		{apps.OpticalFlow, 5, 9, 400 * sim.Time(sim.Millisecond)},
		{apps.Rendering3D, 8, 3, 600 * sim.Time(sim.Millisecond)},
	}
}

// BenchmarkSingleSlotLatency measures the analytic deadline helper.
func BenchmarkSingleSlotLatency(b *testing.B) {
	eng := sim.NewEngine()
	h, err := hv.New(eng, hv.DefaultConfig(), core.New(core.DefaultOptions(), hv.DefaultConfig().Board))
	if err != nil {
		b.Fatal(err)
	}
	g := apps.MustGraph(apps.AlexNet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.SingleSlotLatency(g, 10) <= 0 {
			b.Fatal("bad latency")
		}
	}
}

// BenchmarkCheckpointedRun is BenchmarkHypervisorRun with periodic
// checkpointing every 50 ms, plus a DigitRecognition submission. The
// short items pass a preemption point almost every period; the long
// DigitRecognition items run for seconds, so most of their periods pass
// none.
// allocs/op and events/op do not depend on the host, so they are the
// durable record of what the periodic-save path costs.
func BenchmarkCheckpointedRun(b *testing.B) {
	cfg := hv.DefaultConfig()
	cfg.Checkpoint = hv.CheckpointConfig{Enabled: true, Period: 50 * sim.Millisecond}
	var events, saves int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		h, err := hv.New(eng, cfg, core.New(core.DefaultOptions(), cfg.Board))
		if err != nil {
			b.Fatal(err)
		}
		subs := append(mixedWorkloadBench(), submission{apps.DigitRecognition, 2, 3, 0})
		for _, s := range subs {
			if err := h.Submit(apps.MustGraph(s.name), s.batch, s.prio, s.at); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := h.Run(); err != nil {
			b.Fatal(err)
		}
		events += eng.Fired()
		saves += int64(h.Recovery().CheckpointSaves)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(saves)/float64(b.N), "saves/op")
}
