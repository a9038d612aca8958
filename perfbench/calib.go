package main

// Host-speed calibration. The shared host this benchmark runs on drifts
// in speed by 10-50% over minutes, far more than the changes the
// benchmark has to resolve. Every pass therefore also times a fixed
// calibration kernel, right before its set-up and right after its run,
// and the end-to-end throughput is expressed in calibration units:
// submissions per unit of time the same host, at the same moment, takes
// for the fixed kernel. The kernel is the benchmark's own code and
// depends on nothing in the program, so a change to the program moves
// only the numerator.

import (
	"container/heap"
	"math/rand"
	"sort"
	"time"
)

// calRoundsPerUnit is how many kernel rounds make one calibration unit
// ("cal"), about 0.12 s on the 2-CPU host the figures in README.md come
// from.
const calRoundsPerUnit = 50

// calNode is one kernel allocation: an event-like record on a linked
// list, a heap and a map, as simulator events are.
type calNode struct {
	key  int64
	next *calNode
	pad  [4]int64
}

type calHeap []*calNode

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calNode)) }
func (h *calHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

// calSink keeps the kernel's result live.
var calSink int64

// calLive is how many records the kernel keeps live, about 8 MB: the
// order of the simulators' live heaps, so the garbage collector marks
// about as much per cycle as it does in a pass.
const calLive = 1 << 17

// calibrate runs the kernel for rounds rounds and returns the host
// seconds per calibration unit. Each round pushes 4,000 fresh records
// through a binary heap and a map, each replacing a random one of the
// live records, pops a third of them, and sorts the rest: allocation,
// garbage collection over a live heap, pointer chasing, hashing and
// branching, the mix the simulator's event loop runs.
func calibrate(rounds int) float64 {
	rng := rand.New(rand.NewSource(1))
	live := make([]*calNode, calLive)
	for i := range live {
		live[i] = &calNode{key: int64(i)}
	}
	t0 := time.Now()
	var acc int64
	for r := 0; r < rounds; r++ {
		h := &calHeap{}
		m := map[int64]*calNode{}
		for i := 0; i < 4000; i++ {
			j := rng.Intn(calLive)
			n := &calNode{key: rng.Int63n(1 << 30), next: live[j]}
			live[j] = n
			n.next.next = nil
			heap.Push(h, n)
			m[n.key%8192] = n
			if i%3 == 2 {
				x := heap.Pop(h).(*calNode)
				acc += x.key
				delete(m, x.key%4096)
			}
		}
		xs := make([]int64, 0, h.Len())
		for _, n := range *h {
			xs = append(xs, n.key)
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		acc += xs[len(xs)/2] + int64(len(m))
	}
	calSink = acc + int64(len(live))
	return time.Since(t0).Seconds() * calRoundsPerUnit / float64(rounds)
}
