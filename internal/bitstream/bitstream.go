// Package bitstream models partial bitstream generation, storage, and
// loading for the Nimblock overlay.
//
// The Nimblock compilation flow generates, for every task of an
// application, one partial bitstream per slot (n slots -> n bitstreams per
// task) so any task can be configured into any slot. Bitstreams carry a
// header with interface information, the application batch size, HLS
// performance estimates, and the priority level. On the ZCU106 they live
// on the SD card and are loaded into DDR by the ARM core before being
// streamed through the configuration access port.
//
// Slots are uniform, so every partial bitstream has the same size as the
// slot region it targets (plus a small header), which is why partial
// reconfiguration takes a near-constant ~80 ms on the evaluation board.
package bitstream

import (
	"fmt"

	"nimblock/internal/hls"
	"nimblock/internal/sim"
	"nimblock/internal/taskgraph"
)

// SlotImageBytes is the size of one slot's partial bitstream. With the
// default CAP bandwidth this yields the paper's ~80 ms reconfiguration.
const SlotImageBytes = 7_500_000

// HeaderBytes is the metadata prefix on each stored bitstream.
const HeaderBytes = 4096

// Header mirrors the metadata the hypervisor parses when an application's
// bitstreams arrive (Section 2.2 of the paper).
type Header struct {
	App       string
	Task      int
	TaskName  string
	Slot      int
	Batch     int
	Priority  int
	Estimate  hls.Estimate
	NumInputs int // memory-mapped data interfaces consumed
}

// Image is one stored partial bitstream.
type Image struct {
	Header Header
	Bytes  int
}

// ID identifies an image within a store.
func (im *Image) ID() string {
	return fmt.Sprintf("%s/t%d/s%d", im.Header.App, im.Header.Task, im.Header.Slot)
}

// appImages indexes one application's images by position: perSlot
// holds [task][slot], reloc holds [task] for relocatable images, and nil
// marks an image never registered. A store hashes the application name
// once per register or lookup; everything below it is slice indexing.
type appImages struct {
	perSlot [][]*Image
	reloc   []*Image
}

// Store models the hypervisor's bitstream filesystem (the SD card).
type Store struct {
	apps  map[string]*appImages
	count int
	bytes int64
}

// NewStore returns an empty bitstream store.
func NewStore() *Store {
	return &Store{apps: map[string]*appImages{}}
}

// RelocatableSlot marks an image as slot-agnostic: with bitstream
// relocation, one image per task serves every slot.
const RelocatableSlot = -1

// Register runs the partial-reconfiguration flow for an application:
// for each task it generates one bitstream per slot, each annotated with
// the HLS estimate, batch size, and priority from the submission.
func (s *Store) Register(g *taskgraph.Graph, report *hls.Report, slots, batch, priority int) error {
	if slots < 1 {
		return fmt.Errorf("bitstream: register %s with %d slots", g.Name(), slots)
	}
	return s.register(g, report, slots, batch, priority, false)
}

// RegisterRelocatable runs the flow with bitstream relocation (Corbetta
// et al.; BITMAN; AutoReloc — cited but out of scope in the paper):
// uniform slots let one partial bitstream per task be patched to any
// slot at load time, dividing SD-card storage by the slot count.
func (s *Store) RegisterRelocatable(g *taskgraph.Graph, report *hls.Report, batch, priority int) error {
	return s.register(g, report, 1, batch, priority, true)
}

// grow extends xs with nil entries to at least n.
func grow[T any](xs []T, n int) []T {
	if len(xs) < n {
		xs = append(xs, make([]T, n-len(xs))...)
	}
	return xs
}

func (s *Store) register(g *taskgraph.Graph, report *hls.Report, slots, batch, priority int, relocatable bool) error {
	if report.NumTasks() != g.NumTasks() {
		return fmt.Errorf("bitstream: HLS report covers %d tasks, graph has %d", report.NumTasks(), g.NumTasks())
	}
	name, n := g.Name(), g.NumTasks()
	ai := s.apps[name]
	if ai == nil {
		ai = &appImages{}
		s.apps[name] = ai
	}
	if relocatable {
		ai.reloc = grow(ai.reloc, n)
	} else {
		ai.perSlot = grow(ai.perSlot, n)
	}
	for task := 0; task < n; task++ {
		var row []*Image
		if relocatable {
			row = ai.reloc[task : task+1]
		} else {
			ai.perSlot[task] = grow(ai.perSlot[task], slots)
			row = ai.perSlot[task][:slots]
		}
		var fresh []Image // one allocation for the images this row gains
		for slot := range row {
			imgSlot := slot
			if relocatable {
				imgSlot = RelocatableSlot
			}
			hdr := Header{
				App:       name,
				Task:      task,
				TaskName:  g.Task(task).Name,
				Slot:      imgSlot,
				Batch:     batch,
				Priority:  priority,
				Estimate:  report.Task(task),
				NumInputs: len(g.Pred(task)),
			}
			if im := row[slot]; im != nil {
				// Re-registration overwrites the stored image in place, as
				// writing the same SD-card path would. The image size never
				// changes (uniform slots), so holders of the pointer see
				// only refreshed metadata.
				im.Header = hdr
				continue
			}
			if len(fresh) == 0 {
				fresh = make([]Image, len(row)-slot)
			}
			im := &fresh[0]
			fresh = fresh[1:]
			*im = Image{Header: hdr, Bytes: SlotImageBytes + HeaderBytes}
			s.bytes += int64(im.Bytes)
			s.count++
			row[slot] = im
		}
	}
	return nil
}

// Lookup fetches the bitstream for (app, task, slot), falling back to
// the task's relocatable image if one was registered.
func (s *Store) Lookup(app string, task, slot int) (*Image, error) {
	if ai := s.apps[app]; ai != nil && task >= 0 {
		if task < len(ai.perSlot) && slot >= 0 && slot < len(ai.perSlot[task]) {
			if im := ai.perSlot[task][slot]; im != nil {
				return im, nil
			}
		}
		if task < len(ai.reloc) && ai.reloc[task] != nil {
			return ai.reloc[task], nil
		}
	}
	return nil, fmt.Errorf("bitstream: no image %s/t%d/s%d", app, task, slot)
}

// Count reports the number of stored images.
func (s *Store) Count() int { return s.count }

// Bytes reports total stored bytes (SD card occupancy).
func (s *Store) Bytes() int64 { return s.bytes }

// LoadTime models reading an image from the SD card into DDR at the given
// bandwidth in bytes per second.
func (im *Image) LoadTime(sdBytesPerSec float64) sim.Duration {
	if sdBytesPerSec <= 0 {
		return 0
	}
	return sim.Seconds(float64(im.Bytes) / sdBytesPerSec)
}
