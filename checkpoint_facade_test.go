package nimblock

import (
	"testing"
	"time"
)

// ckptFacadeSystem builds a system under a slow+hang fault plan with
// the watchdog armed — the scenario where resuming from checkpoints
// (instead of re-executing killed items) pays.
func ckptFacadeSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	cfg.FaultPlan = "seed 7\nslow prob=0.6 factor=4 until=120s\n"
	cfg.WatchdogFactor = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{LeNet, OpticalFlow, ImageCompression, Rendering3D} {
		app, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Submit(app, 6, PriorityMedium, time.Duration(i)*200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestCheckpointFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkpoint = CheckpointConfig{Enabled: true, Period: 50 * time.Millisecond}
	sys := ckptFacadeSystem(t, cfg)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rec := sys.Recovery()
	if rec.WatchdogKills == 0 {
		t.Fatal("plan killed nothing; the scenario tests nothing")
	}
	if rec.ResumedItems == 0 || rec.SavedWork <= 0 || rec.CheckpointSaves == 0 {
		t.Fatalf("checkpointing reported no resumes: %+v", rec)
	}
	if rec.CheckpointOverhead <= 0 {
		t.Fatal("state moved through the configuration port for free")
	}

	// Same seed and workload without checkpointing: strictly more work
	// is wasted, and no checkpoint stats appear.
	plain := ckptFacadeSystem(t, DefaultConfig())
	if _, err := plain.Run(); err != nil {
		t.Fatal(err)
	}
	prec := plain.Recovery()
	if prec.ResumedItems != 0 || prec.SavedWork != 0 || prec.CheckpointOverhead != 0 {
		t.Fatalf("non-checkpointed run reports checkpoint stats: %+v", prec)
	}
	if rec.WastedWork >= prec.WastedWork {
		t.Fatalf("checkpointing did not reduce wasted work: %v with, %v without", rec.WastedWork, prec.WastedWork)
	}
}

func TestCheckpointAlgorithmOnFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = AlgoNimblockCheckpoint
	cfg.Checkpoint = CheckpointConfig{Enabled: true}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Algorithm(); got != "NimblockCheckpoint" {
		t.Fatalf("algorithm %q", got)
	}
	app, err := Benchmark(LeNet)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit(app, 4, PriorityHigh, 0); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Response <= 0 {
		t.Fatalf("unexpected results %+v", res)
	}
}

func TestCheckpointConflictsWithStudyMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkpoint = CheckpointConfig{Enabled: true}
	cfg.CheckpointPreemption = time.Millisecond
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("combining Checkpoint with CheckpointPreemption accepted")
	}
}

// TestCheckpointDurationsBelowResolution: a positive duration below the
// simulator's 1µs resolution used to truncate to zero, silently turning
// periodic saves off or save/restore free. It is an error now, on every
// constructor that shares the config mapping; so is a period too long
// for the engine's tick timer.
func TestCheckpointDurationsBelowResolution(t *testing.T) {
	bad := map[string]func(*Config){
		"sub-µs period": func(c *Config) {
			c.Checkpoint = CheckpointConfig{Enabled: true, Period: 500 * time.Nanosecond}
		},
		"sub-µs preemption cost": func(c *Config) { c.CheckpointPreemption = 999 * time.Nanosecond },
		"period beyond the tick timer": func(c *Config) {
			c.Checkpoint = CheckpointConfig{Enabled: true, Period: 72 * time.Minute}
		},
	}
	for name, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("%s: NewSystem accepted it", name)
		}
		ccfg := DefaultClusterConfig()
		ccfg.Config = cfg
		if _, err := NewCluster(ccfg); err == nil {
			t.Errorf("%s: NewCluster accepted it", name)
		}
		pcfg := DefaultServerlessConfig()
		pcfg.Config = cfg
		if _, err := NewPlatform(pcfg); err == nil {
			t.Errorf("%s: NewPlatform accepted it", name)
		}
	}
	cfg := DefaultConfig()
	cfg.Checkpoint = CheckpointConfig{Enabled: true, Period: time.Microsecond}
	cfg.CheckpointPreemption = 0
	if _, err := NewSystem(cfg); err != nil {
		t.Fatalf("a 1µs period is valid: %v", err)
	}
	cfg = DefaultConfig()
	cfg.CheckpointPreemption = time.Microsecond
	if _, err := NewSystem(cfg); err != nil {
		t.Fatalf("a 1µs preemption cost is valid: %v", err)
	}
}
