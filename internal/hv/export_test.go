package hv

import "nimblock/internal/sched"

// InTransit exposes the submissions whose arrival event has not fired
// yet, so external tests can recompute OutstandingEstimate from scratch.
func (h *Hypervisor) InTransit() []*sched.App { return h.transit }
