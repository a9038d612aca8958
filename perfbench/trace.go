package main

// Instruments of the traced run. Every layer is measured from outside
// the program: a timing wrapper around each policy handed to the
// front-ends (plus a counting World around what the policy sees), a
// concurrency-safe observer sink counting trace kinds, and spans around
// the public calls the benchmark makes. Untraced runs pass a nil *instr,
// whose methods hand back their inputs unchanged and record nothing.

import (
	"bufio"
	"encoding/json"
	"math/bits"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"nimblock/internal/hv"
	"nimblock/internal/sched"
	"nimblock/internal/trace"
)

// instr collects one traced run's instruments.
type instr struct {
	origin   time.Time
	sink     *kindSink
	policies []*timedPolicy
	spans    []span
	open     []int // stack of open span indices
}

func newInstr() *instr {
	return &instr{origin: time.Now(), sink: newKindSink()}
}

// hvConfig attaches the trace-kind sink to a board configuration.
func (in *instr) hvConfig(c hv.Config) hv.Config {
	if in != nil {
		c.Observer = in.sink
	}
	return c
}

// policy wraps a scheduling policy in the timing wrapper. Every
// front-end calls its policy factory on the goroutine that builds it or
// runs its engine, never concurrently.
func (in *instr) policy(p sched.Scheduler) sched.Scheduler {
	if in == nil {
		return p
	}
	t := &timedPolicy{inner: p}
	in.policies = append(in.policies, t)
	return t
}

// span is one timed call into the program. Start and End are
// nanoseconds since the run's origin; Parent indexes the enclosing
// span, -1 at top level.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// begin opens a span; end closes it. Spans nest in call order.
func (in *instr) begin(name string) int {
	if in == nil {
		return -1
	}
	parent := -1
	if n := len(in.open); n > 0 {
		parent = in.open[n-1]
	}
	in.spans = append(in.spans, span{Name: name, Parent: parent, Start: int64(time.Since(in.origin))})
	in.open = append(in.open, len(in.spans)-1)
	return len(in.spans) - 1
}

func (in *instr) end(i int) {
	if i < 0 {
		return
	}
	in.spans[i].End = int64(time.Since(in.origin))
	in.open = in.open[:len(in.open)-1]
}

// writeSpans writes every recorded span as JSON lines, once the run
// has ended.
func (in *instr) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range in.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats summarizes the spans of one name: their total duration in
// seconds and their median in microseconds.
func (in *instr) spanStats(name string) (total, p50us float64) {
	var ds []float64
	for _, s := range in.spans {
		if s.Name == name {
			d := float64(s.End - s.Start)
			total += d
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Float64s(ds)
	return total / 1e9, ds[len(ds)/2] / 1e3
}

// ---- policy wrapper -----------------------------------------------------

// timedPolicy times every Schedule call of the policy it wraps and
// counts the calls that issued at least one Reconfigure or
// RequestPreempt. Each board owns its policy and a board's engine runs
// on one goroutine at a time, so the counters need no synchronization;
// they are read after the run.
type timedPolicy struct {
	inner  sched.Scheduler
	world  countingWorld
	calls  int64
	useful int64
	busy   time.Duration
	hist   histogram
}

func (t *timedPolicy) Name() string     { return t.inner.Name() }
func (t *timedPolicy) Pipelining() bool { return t.inner.Pipelining() }

// Schedule implements sched.Scheduler. The hypervisor never re-enters
// Schedule from inside a policy callback (it defers those pokes to a
// zero-delay event), so one countingWorld per policy suffices.
func (t *timedPolicy) Schedule(w sched.World, why sched.Reason) {
	t.world.World, t.world.issued = w, 0
	start := time.Now()
	t.inner.Schedule(&t.world, why)
	d := time.Since(start)
	t.world.World = nil
	t.calls++
	t.busy += d
	t.hist.add(uint64(d))
	if t.world.issued > 0 {
		t.useful++
	}
}

// countingWorld counts the actions a policy issues.
type countingWorld struct {
	sched.World
	issued int
}

func (c *countingWorld) Reconfigure(slot int, a *sched.App, task int) error {
	c.issued++
	return c.World.Reconfigure(slot, a, task)
}

func (c *countingWorld) RequestPreempt(slot int) error {
	c.issued++
	return c.World.RequestPreempt(slot)
}

// ---- trace-kind sink ----------------------------------------------------

// kindSink counts trace events by kind. The fleet shares one board
// configuration, hence one sink, across its shard workers, so the
// counters are atomic.
type kindSink struct{ counts []atomic.Int64 }

func newKindSink() *kindSink { return &kindSink{counts: make([]atomic.Int64, trace.NumKinds())} }

// Observe implements obs.Sink.
func (s *kindSink) Observe(e trace.Event) {
	if k := int(e.Kind); k >= 0 && k < len(s.counts) {
		s.counts[k].Add(1)
	}
}

func (s *kindSink) count(k trace.Kind) float64 { return float64(s.counts[k].Load()) }

// ---- histogram ----------------------------------------------------------

// histogram is a log-linear histogram of nanosecond durations: exact
// below 32 ns, then 32 buckets per power of two (at most ~3% error).
type histogram struct {
	counts []uint64
	n      uint64
}

const histSub = 5 // log2 of the buckets per power of two

func histBucket(v uint64) int {
	if v < 1<<histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSub - 1
	return (e+1)<<histSub + int(v>>e) - 1<<histSub
}

// histLower is the smallest value that falls into bucket i.
func histLower(i int) uint64 {
	if i < 1<<histSub {
		return uint64(i)
	}
	e := i>>histSub - 1
	return uint64(1<<histSub+i&(1<<histSub-1)) << e
}

func (h *histogram) add(v uint64) {
	i := histBucket(v)
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
	}
	h.counts[i]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		if c == 0 {
			continue
		}
		if i >= len(h.counts) {
			h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
		}
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the lower bound of the bucket holding quantile q.
func (h *histogram) quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return histLower(i)
		}
	}
	return histLower(len(h.counts) - 1)
}
