package nimblock

import (
	"fmt"
	"time"

	"nimblock/internal/faas"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// ServerlessConfig parameterizes a Platform: a function-as-a-service
// front-end over a multi-FPGA Nimblock cluster, with warm-board affinity
// and cold-start modelling (bitstream distribution to a board's storage
// before its first invocation there).
type ServerlessConfig struct {
	// Config applies to every board (algorithm, slots, interval...).
	Config
	// Boards is the cluster size (default 4).
	Boards int
	// BoardSpecs, when non-empty, gives each board its own capability
	// spec (slots, bandwidth, latency scale, power model), making the
	// fleet heterogeneous; its length must equal Boards. Placement
	// scores fold each board's latency scale and width in, so slow or
	// narrow boards attract proportionally less work.
	BoardSpecs []*BoardSpec
	// ColdStart is the bitstream-distribution delay paid the first time
	// a function lands on a board (default 500 ms).
	ColdStart time.Duration
	// ScaleUp is the per-board backlog beyond which the dispatcher pays
	// a cold start to open another board (default 4).
	ScaleUp int
	// Admission, when non-nil, bounds accepted invocations; rejections
	// come back from Run as Rejected results, not errors.
	Admission *AdmissionConfig
}

// DefaultServerlessConfig returns a 4-board platform.
func DefaultServerlessConfig() ServerlessConfig {
	return ServerlessConfig{
		Config:    DefaultConfig(),
		Boards:    4,
		ColdStart: 500 * time.Millisecond,
		ScaleUp:   4,
	}
}

// InvocationResult is one completed function invocation.
type InvocationResult struct {
	Function string
	Board    int
	// Cold reports whether this invocation paid a cold start.
	Cold bool
	// InvokedAt is the client-side invocation instant.
	InvokedAt time.Duration
	// Latency is completion minus invocation, including any cold start.
	Latency time.Duration
	// Items echoes the invocation's input count.
	Items int
	// Rejected marks an invocation turned away at admission: Board is
	// -1, Latency 0, and RejectReason names the outcome.
	Rejected     bool
	RejectReason string
	// Failed marks an invocation lost permanently to board deaths (see
	// Config.FaultPlan): FailReason is "retries-exhausted" or
	// "stranded", Latency is 0 and Board is the last board that held it
	// (or -1).
	Failed     bool
	FailReason string
	// Attempts counts placements: 1 for an invocation that completed
	// where it first landed, more after failover.
	Attempts int
}

// PlatformStats aggregates invocation counters. Invocations counts
// accepted dispatches; Rejections counts admission rejections.
type PlatformStats struct {
	Invocations int
	ColdStarts  int
	WarmStarts  int
	Rejections  int
}

// FunctionOptions carries a function's admission attributes.
type FunctionOptions struct {
	// Tenant attributes the function's invocations for quotas and fair
	// sharing.
	Tenant string
	// SLO is the per-invocation latency budget for deadline admission.
	SLO time.Duration
	// Weight is the tenant's service weight for fairness-aware
	// scheduling (AlgoNimblockEnergy); <= 0 means 1.
	Weight float64
}

// Platform is the serverless front-end: Register functions, Invoke them,
// then Run.
type Platform struct {
	p *faas.Platform
}

// NewPlatform builds a serverless platform.
func NewPlatform(cfg ServerlessConfig) (*Platform, error) {
	if cfg.Boards == 0 {
		cfg.Boards = 4
	}
	if cfg.ColdStart == 0 {
		cfg.ColdStart = 500 * time.Millisecond
	}
	if cfg.ScaleUp == 0 {
		cfg.ScaleUp = 4
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = AlgoNimblock
	}
	hcfg, boardConfigs, boardFaults, err := cfg.hvConfigs(cfg.BoardSpecs, cfg.Boards)
	if err != nil {
		return nil, err
	}
	if _, err := newPolicy(cfg.Config, hcfg); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	p, err := faas.New(eng, faas.Config{
		Boards:       cfg.Boards,
		HV:           hcfg,
		BoardConfigs: boardConfigs,
		ColdStart:    sim.FromStd(cfg.ColdStart),
		ScaleUp:      cfg.ScaleUp,
		Admission:    cfg.Admission.internal(),
		BoardFaults:  boardFaults,
	}, func() sched.Scheduler {
		pol, err := newPolicy(cfg.Config, hcfg)
		if err != nil {
			panic(err) // validated above
		}
		return pol
	})
	if err != nil {
		return nil, err
	}
	return &Platform{p: p}, nil
}

// Register adds a function backed by an application task-graph.
func (pl *Platform) Register(name string, app *Application, priority int) error {
	return pl.RegisterWith(name, app, priority, FunctionOptions{})
}

// RegisterWith is Register with admission attributes (tenant, SLO).
func (pl *Platform) RegisterWith(name string, app *Application, priority int, opts FunctionOptions) error {
	if app == nil {
		return fmt.Errorf("nimblock: nil application for function %q", name)
	}
	return pl.p.Register(name, faas.Function{
		Graph:    app.graph,
		Priority: priority,
		Tenant:   opts.Tenant,
		SLO:      sim.FromStd(opts.SLO),
		Weight:   opts.Weight,
	})
}

// AdmissionStats reports admission counters (zero when admission is
// disabled).
func (pl *Platform) AdmissionStats() AdmissionStats {
	return admissionStats(pl.p.AdmissionStats())
}

// Invoke schedules an invocation with the given number of independent
// inputs at the given time.
func (pl *Platform) Invoke(function string, items int, at time.Duration) error {
	return pl.p.Invoke(function, items, sim.Time(sim.FromStd(at)))
}

// Stats returns invocation counters.
func (pl *Platform) Stats() PlatformStats {
	s := pl.p.Stats()
	return PlatformStats{Invocations: s.Invocations, ColdStarts: s.ColdStarts, WarmStarts: s.WarmStarts, Rejections: s.Rejections}
}

// Energy sums integrated energy across the platform's boards; zero
// unless the board specs carry a power model. Run leaves the clock at
// the makespan (the instant the last event fired), so after Run static
// joules price the time the work actually needed.
func (pl *Platform) Energy() EnergyStats { return EnergyStats(pl.p.Energy()) }

// TenantServices reports the weighted service delivered to each
// function tenant, merged across boards.
func (pl *Platform) TenantServices() map[string]time.Duration {
	return services(pl.p.TenantServices())
}

// Run completes every invocation and returns results in invocation order.
func (pl *Platform) Run() ([]InvocationResult, error) {
	raw, err := pl.p.Run()
	if err != nil {
		return nil, err
	}
	out := make([]InvocationResult, len(raw))
	for i, r := range raw {
		out[i] = InvocationResult{
			Function:     r.Function,
			Board:        r.Board,
			Cold:         r.Cold,
			InvokedAt:    time.Duration(r.InvokedAt) * time.Microsecond,
			Latency:      r.Latency.Std(),
			Items:        r.Items,
			Rejected:     r.Rejected,
			RejectReason: r.RejectReason,
			Failed:       r.Failed,
			FailReason:   r.FailReason,
			Attempts:     r.Attempts,
		}
	}
	return out, nil
}
