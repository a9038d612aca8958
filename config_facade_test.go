package nimblock

import (
	"sync"
	"testing"
	"time"
)

// kindCounter is an Observer tallying events by kind.
type kindCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (k *kindCounter) Observe(e TraceEvent) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.n == nil {
		k.n = map[string]int{}
	}
	k.n[e.Kind]++
}

func (k *kindCounter) total() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for _, c := range k.n {
		n += c
	}
	return n
}

func (k *kindCounter) count(kind string) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.n[kind]
}

// TestClusterBoardSpecsKeepConfig pins that per-board specs do not drop
// the rest of the embedded Config: the observer and the fault plan's
// slot-level injector must reach every board of a heterogeneous
// cluster, not only a homogeneous one.
func TestClusterBoardSpecsKeepConfig(t *testing.T) {
	obs := &kindCounter{}
	cfg := DefaultClusterConfig()
	cfg.BoardSpecs = []*BoardSpec{{Slots: 10}, {Slots: 4, LatencyScale: 2}}
	cfg.Dispatch = DispatchHeteroAware
	cfg.Observer = obs
	cfg.FaultPlan = "seed 3\ncrc prob=0.5\n"
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := Benchmark(LeNet)
	for i := 0; i < 6; i++ {
		if err := cl.Submit(app, 2, PriorityMedium, time.Duration(i)*200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.total() == 0 {
		t.Fatal("observer saw nothing on a cluster with board specs")
	}
	if obs.count("retry") == 0 {
		t.Fatal("fault plan injector never reached the boards")
	}
}

// TestFrontEndsHonourCheckpointConfig pins that the multi-board
// front-ends apply the hypervisor settings System does: with
// Checkpoint enabled, periodic checkpoints are saved on cluster and
// serverless boards alike.
func TestFrontEndsHonourCheckpointConfig(t *testing.T) {
	ckpt := CheckpointConfig{Enabled: true, Period: 50 * time.Millisecond}
	t.Run("cluster", func(t *testing.T) {
		obs := &kindCounter{}
		cfg := DefaultClusterConfig()
		cfg.Checkpoint, cfg.Observer = ckpt, obs
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		app, _ := Benchmark(Rendering3D)
		for i := 0; i < 4; i++ {
			if err := cl.Submit(app, 3, PriorityMedium, time.Duration(i)*100*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.Run(); err != nil {
			t.Fatal(err)
		}
		if obs.count("ckpt-save") == 0 {
			t.Fatal("cluster boards saved no checkpoints with Checkpoint enabled")
		}
	})
	t.Run("platform", func(t *testing.T) {
		obs := &kindCounter{}
		cfg := DefaultServerlessConfig()
		cfg.Checkpoint, cfg.Observer = ckpt, obs
		pl, err := NewPlatform(cfg)
		if err != nil {
			t.Fatal(err)
		}
		app, _ := Benchmark(Rendering3D)
		if err := pl.Register("render", app, PriorityMedium); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := pl.Invoke("render", 3, time.Duration(i)*100*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		if obs.count("ckpt-save") == 0 {
			t.Fatal("platform boards saved no checkpoints with Checkpoint enabled")
		}
	})
}

// TestPlatformFaultPlanCrashesBoard pins that a serverless platform
// routes the fault plan's board events to its health monitor: a board
// that crashes for good completes nothing afterwards, and its work
// fails over to the survivor.
func TestPlatformFaultPlanCrashesBoard(t *testing.T) {
	const crash = 300 * time.Millisecond
	cfg := DefaultServerlessConfig()
	cfg.Boards = 2
	cfg.ScaleUp = 1
	cfg.FaultPlan = "board-crash board=0 at=300ms"
	pl, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := Benchmark(Rendering3D)
	if err := pl.Register("render", app, PriorityMedium); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := pl.Invoke("render", 3, time.Duration(i)*50*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	res, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for i, r := range res {
		if r.Failed {
			t.Fatalf("result %d failed with a live board to fail over to: %+v", i, r)
		}
		if r.Board == 0 && r.InvokedAt+r.Latency > crash {
			t.Fatalf("result %d completed on board 0 after it crashed: %+v", i, r)
		}
		if r.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no invocation failed over off the crashed board")
	}
}
