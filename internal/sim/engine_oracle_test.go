package sim

// The determinism oracle: the pre-wheel binary-heap engine, kept here as
// a reference implementation. Randomized interleavings of
// At/AtCancellable/AfterCancellableTick/Cancel/Step/Run/RunUntil are
// driven against both engines and must produce identical firing orders,
// clock advancement, Pending and Fired counts, and Cancel results —
// byte-identical traces are the contract the wheel must honour.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// heapEvent mirrors the old event struct.
type heapEvent struct {
	at      Time
	seq     int64
	id      EventID
	fn      func()
	index   int
	tracked bool
}

type refHeap []*heapEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	e := x.(*heapEvent)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// heapEngine is the old container/heap engine with the same API surface
// as Engine.
type heapEngine struct {
	now     Time
	pq      refHeap
	live    map[EventID]*heapEvent
	nextSeq int64
	nextID  EventID
	stopped bool
	fired   int64
	// alias maps a tick timer's handle to the ID of its chain's
	// currently pending link.
	alias map[EventID]EventID
}

func (e *heapEngine) Now() Time    { return e.now }
func (e *heapEngine) Pending() int { return len(e.pq) }
func (e *heapEngine) Fired() int64 { return e.fired }

func (e *heapEngine) schedule(at Time, fn func(), tracked bool) *heapEvent {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	e.nextSeq++
	ev := &heapEvent{at: at, seq: e.nextSeq, fn: fn, tracked: tracked}
	heap.Push(&e.pq, ev)
	return ev
}

func (e *heapEngine) At(at Time, fn func()) { e.schedule(at, fn, false) }

func (e *heapEngine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

func (e *heapEngine) AtCancellable(at Time, fn func()) EventID {
	ev := e.schedule(at, fn, true)
	e.nextID++
	ev.id = e.nextID
	if e.live == nil {
		e.live = map[EventID]*heapEvent{}
	}
	e.live[ev.id] = ev
	return ev.id
}

func (e *heapEngine) AfterCancellable(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.AtCancellable(e.now.Add(d), fn)
}

// AfterCancellableTick models a tick timer as the poll chain it
// replaces: a callback that re-arms itself with AfterCancellable(d)
// n-1 times and then runs fn. The returned handle follows the chain.
func (e *heapEngine) AfterCancellableTick(d Duration, n int64, fn func()) EventID {
	var handle EventID
	left := n
	var tick func()
	tick = func() {
		left--
		if left == 0 {
			delete(e.alias, handle)
			fn()
			return
		}
		e.alias[handle] = e.AfterCancellable(d, tick)
	}
	handle = e.AfterCancellable(d, tick)
	if e.alias == nil {
		e.alias = map[EventID]EventID{}
	}
	e.alias[handle] = handle
	return handle
}

func (e *heapEngine) Cancel(id EventID) bool {
	handle := id
	if cur, ok := e.alias[handle]; ok {
		id = cur
	}
	ev, ok := e.live[id]
	if !ok {
		return false
	}
	delete(e.alias, handle)
	delete(e.live, id)
	heap.Remove(&e.pq, ev.index)
	return true
}

func (e *heapEngine) Stop() { e.stopped = true }

func (e *heapEngine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(*heapEvent)
	if ev.tracked {
		delete(e.live, ev.id)
	}
	e.now = ev.at
	e.fired++
	ev.fn()
	return true
}

func (e *heapEngine) Run() int {
	e.stopped = false
	n := 0
	for !e.stopped && e.Step() {
		n++
	}
	return n
}

func (e *heapEngine) RunUntil(deadline Time) int {
	e.stopped = false
	n := 0
	for !e.stopped && len(e.pq) > 0 && e.pq[0].at <= deadline {
		e.Step()
		n++
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}

// simEngine is the common surface the oracle drives on both engines.
type simEngine interface {
	Now() Time
	Pending() int
	Fired() int64
	At(Time, func())
	After(Duration, func())
	AtCancellable(Time, func()) EventID
	AfterCancellable(Duration, func()) EventID
	AfterCancellableTick(Duration, int64, func()) EventID
	Cancel(EventID) bool
	Step() bool
	Run() int
	RunUntil(Time) int
	Stop()
}

// oracle ops, encoded as bytes so the fuzzer shares the driver.
const (
	opAt byte = iota
	opAfter
	opAtCancellable
	opAfterCancellable
	opCancel
	opStep
	opRun
	opRunUntil
	opNested // schedule an event whose callback schedules/cancels more
	opTick   // arm a tick timer; its handle joins the cancellable pool
	opCount
)

// driveOps applies one op script to an engine and returns the trace:
// every fired event as (tag, time), plus clock/pending/return-value
// checkpoints after each op. Callbacks may schedule and cancel, so the
// trace also exercises same-instant and in-callback paths.
func driveOps(eng simEngine, data []byte) []int64 {
	var trace []int64
	record := func(tag int, at Time) {
		trace = append(trace, int64(tag), int64(at))
	}
	var ids []EventID
	tag := 0
	i := 0
	next := func() int64 {
		if i >= len(data) {
			return 0
		}
		v := int64(data[i])
		i++
		return v
	}
	for i < len(data) {
		op := data[i] % byte(opCount)
		i++
		switch op {
		case opAt:
			t := tag
			tag++
			eng.At(eng.Now().Add(Duration(next()*3)), func() { record(t, eng.Now()) })
		case opAfter:
			t := tag
			tag++
			eng.After(Duration(next()*5-64), func() { record(t, eng.Now()) })
		case opAtCancellable:
			t := tag
			tag++
			ids = append(ids, eng.AtCancellable(eng.Now().Add(Duration(next()*3)), func() { record(t, eng.Now()) }))
		case opAfterCancellable:
			t := tag
			tag++
			ids = append(ids, eng.AfterCancellable(Duration(next()*5-64), func() { record(t, eng.Now()) }))
		case opCancel:
			if len(ids) > 0 {
				id := ids[int(next())%len(ids)]
				ok := eng.Cancel(id)
				if ok {
					trace = append(trace, -1)
				} else {
					trace = append(trace, -2)
				}
			}
		case opStep:
			if eng.Step() {
				trace = append(trace, -3)
			}
		case opRun:
			trace = append(trace, -4, int64(eng.Run()))
		case opRunUntil:
			trace = append(trace, -5, int64(eng.RunUntil(eng.Now().Add(Duration(next()*7)))))
		case opNested:
			t := tag
			tag++
			d := Duration(next() * 3)
			inner := Duration(next() * 2)
			eng.After(d, func() {
				record(t, eng.Now())
				id := eng.AfterCancellable(inner, func() { record(t+100000, eng.Now()) })
				eng.After(inner, func() { record(t+200000, eng.Now()) })
				if inner%3 == 0 {
					if eng.Cancel(id) {
						trace = append(trace, -6)
					}
				}
				eng.After(0, func() { record(t+300000, eng.Now()) })
				// A chain armed from inside a callback. For some inner
				// values (6: period 2, three ticks) it fires on the
				// instant of the events above.
				eng.AfterCancellableTick(1+inner%5, 1+int64(inner%4), func() { record(t+400000, eng.Now()) })
			})
			tag++ // reserve tag space for nested callbacks
		case opTick:
			t := tag
			tag++
			d := Duration(1 + next()%16)
			n := 1 + next()%8
			ids = append(ids, eng.AfterCancellableTick(d, n, func() { record(t, eng.Now()) }))
		}
		trace = append(trace, -7, int64(eng.Now()), int64(eng.Pending()), eng.Fired())
	}
	trace = append(trace, -8, int64(eng.Run()), int64(eng.Now()), int64(eng.Pending()), eng.Fired())
	return trace
}

func compareEngines(t *testing.T, data []byte) {
	t.Helper()
	got := driveOps(NewEngine(), data)
	want := driveOps(&heapEngine{}, data)
	if len(got) != len(want) {
		t.Fatalf("trace length mismatch: wheel %d heap %d\nops=%v", len(got), len(want), data)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace diverges at %d: wheel %d heap %d\nops=%v\nwheel=%v\nheap=%v",
				i, got[i], want[i], data, got, want)
		}
	}
}

// TestEngineMatchesHeapOracle drives randomized op scripts through the
// wheel engine and the reference heap engine and requires identical
// traces.
func TestEngineMatchesHeapOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		data := make([]byte, n)
		rng.Read(data)
		compareEngines(t, data)
	}
}

// TestEngineOracleFarFuture forces the overflow list and rewind paths:
// events beyond the wheel horizon, then earlier arrivals behind the
// advanced reference.
func TestEngineOracleFarFuture(t *testing.T) {
	run := func(eng simEngine) []int64 {
		var trace []int64
		record := func(tag int) { trace = append(trace, int64(tag), int64(eng.Now())) }
		horizon := Time(1) << 45 // beyond the 64^7-us wheel span
		eng.At(horizon, func() { record(1) })
		eng.At(horizon+1, func() { record(2) })
		id := eng.AtCancellable(horizon+2, func() { record(3) })
		eng.At(5, func() { record(4) })
		trace = append(trace, int64(eng.RunUntil(10)), int64(eng.Now()))
		// The engine has peeked at the far-future minimum; schedule behind it.
		eng.At(20, func() { record(5) })
		eng.Cancel(id)
		trace = append(trace, int64(eng.Run()), int64(eng.Now()), int64(eng.Pending()))
		return trace
	}
	got := run(NewEngine())
	want := run(&heapEngine{})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("far-future trace diverges at %d: wheel=%v heap=%v", i, got, want)
		}
	}
}

// FuzzEngineOracle lets the fuzzer search for op scripts where the wheel
// and the heap reference disagree.
func FuzzEngineOracle(f *testing.F) {
	f.Add([]byte{0, 10, 2, 20, 4, 0, 6})
	f.Add([]byte{8, 3, 3, 8, 0, 0, 6, 5, 5, 5})
	f.Add([]byte{2, 255, 4, 0, 7, 200, 6})
	f.Add([]byte{9, 3, 4, 9, 5, 2, 0, 9, 5, 4, 1, 7, 30, 9, 1, 1, 4, 2, 6})
	rng := rand.New(rand.NewSource(7))
	seed := make([]byte, 64)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		got := driveOps(NewEngine(), data)
		want := driveOps(&heapEngine{}, data)
		if len(got) != len(want) {
			t.Fatalf("trace length mismatch: wheel %d heap %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trace diverges at %d: wheel %d heap %d", i, got[i], want[i])
			}
		}
	})
}

// compareScenario runs one scripted scenario on both engines and
// requires identical traces.
func compareScenario(t *testing.T, name string, run func(eng simEngine, record func(tag int)) []int64) {
	t.Helper()
	drive := func(eng simEngine) []int64 {
		var trace []int64
		record := func(tag int) { trace = append(trace, int64(tag), int64(eng.Now()), eng.Fired()) }
		trace = append(trace, run(eng, record)...)
		return append(trace, -1, int64(eng.Run()), int64(eng.Now()), int64(eng.Pending()), eng.Fired())
	}
	got, want := drive(NewEngine()), drive(&heapEngine{})
	if len(got) != len(want) {
		t.Fatalf("%s: trace length mismatch: wheel=%v heap=%v", name, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: trace diverges at %d: wheel=%v heap=%v", name, i, got, want)
		}
	}
}

// TestTickOracleScenarios pins the tick timer against the self-re-arming
// callback chain it replaces on the cases that reorder events if the
// silent ticks are sequenced wrongly.
func TestTickOracleScenarios(t *testing.T) {
	compareScenario(t, "cancel mid-chain", func(eng simEngine, record func(int)) []int64 {
		id := eng.AfterCancellableTick(10, 5, func() { record(1) })
		eng.At(25, func() { record(2) })
		eng.RunUntil(32)
		snap := []int64{int64(eng.Pending()), eng.Fired()}
		if eng.Cancel(id) {
			snap = append(snap, 1)
		}
		if eng.Cancel(id) {
			snap = append(snap, 2) // a cancelled chain stays cancelled
		}
		return append(snap, int64(eng.Pending()))
	})
	compareScenario(t, "same-instant ties", func(eng simEngine, record func(int)) []int64 {
		// Two chains and one-shots meet at 60: the one-shot scheduled
		// before the chains' last re-arm fires first, the later chain's
		// tick order follows its re-arm order, and a one-shot scheduled
		// at 50 for 60 lands between the chains' links.
		eng.AfterCancellableTick(20, 3, func() { record(1) })
		eng.At(60, func() { record(2) })
		eng.AfterCancellableTick(30, 2, func() { record(3) })
		eng.At(50, func() {
			record(4)
			eng.At(60, func() { record(5) })
		})
		eng.AfterCancellableTick(15, 4, func() { record(6) })
		eng.At(40, func() {
			record(7)
			eng.AfterCancellableTick(10, 2, func() { record(8) })
		})
		return nil
	})
	compareScenario(t, "tick and completion at one instant", func(eng simEngine, record func(int)) []int64 {
		// The completion armed first wins the tie and cancels the chain.
		var tick EventID
		eng.AfterCancellable(30, func() {
			record(1)
			if eng.Cancel(tick) {
				record(2)
			}
		})
		tick = eng.AfterCancellableTick(10, 3, func() { record(3) })
		return nil
	})
	compareScenario(t, "rewind", func(eng simEngine, record func(int)) []int64 {
		horizon := Time(1) << 45
		eng.At(horizon, func() { record(1) })
		eng.AfterCancellableTick(7, 6, func() { record(2) })
		trace := []int64{int64(eng.RunUntil(20)), int64(eng.Now()), eng.Fired()}
		// Scheduling behind the reference rebuilds the wheel with the
		// chain mid-flight.
		eng.At(25, func() { record(3) })
		eng.AfterCancellableTick(3, 4, func() { record(4) })
		trace = append(trace, int64(eng.RunUntil(30)), int64(eng.Now()), eng.Fired())
		eng.At(31, func() { record(5) })
		return trace
	})
	compareScenario(t, "tombstone sweep", func(eng simEngine, record func(int)) []int64 {
		keep := eng.AfterCancellableTick(5, 40, func() { record(1) })
		eng.AfterCancellableTick(9, 11, func() { record(2) })
		var ids []EventID
		for i := 0; i < 300; i++ {
			ids = append(ids, eng.AfterCancellable(Duration(3*i+1), func() { record(3) }))
		}
		eng.RunUntil(40)
		for _, id := range ids {
			eng.Cancel(id) // crosses the sweep threshold on the way
		}
		if w, ok := eng.(*Engine); ok && w.dead >= len(ids)/2 {
			t.Fatalf("tombstone sweep never ran: %d dead", w.dead)
		}
		trace := []int64{int64(eng.Pending()), eng.Fired()}
		eng.RunUntil(100)
		if eng.Cancel(keep) {
			trace = append(trace, 1)
		}
		return append(trace, int64(eng.Pending()), eng.Fired())
	})
}
