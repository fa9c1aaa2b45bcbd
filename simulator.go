package catnap

import (
	"context"
	"fmt"
	"io"

	"github.com/catnap-noc/catnap/internal/congestion"
	"github.com/catnap-noc/catnap/internal/core"
	"github.com/catnap-noc/catnap/internal/cpusim"
	"github.com/catnap-noc/catnap/internal/noc"
	"github.com/catnap-noc/catnap/internal/power"
	"github.com/catnap-noc/catnap/internal/sim"
	"github.com/catnap-noc/catnap/internal/stats"
	"github.com/catnap-noc/catnap/internal/telemetry"
	"github.com/catnap-noc/catnap/internal/trace"
	"github.com/catnap-noc/catnap/internal/traffic"
	"github.com/catnap-noc/catnap/internal/workload"
)

// Simulator assembles a network, its policies, the congestion detector,
// and the power model from one Config, and provides measurement-windowed
// runs. Build with New.
type Simulator struct {
	Cfg Config
	// Net is the underlying network; direct access supports custom
	// experiments beyond the canned runners.
	Net *noc.Network
	// Det is the congestion detector, nil when no policy needs one.
	Det *congestion.Detector
	// Model is the power model at the configuration's operating voltage.
	Model *power.Model

	gen *traffic.Generator
	sys *cpusim.System

	measuring  bool
	winLatency *stats.Latency
	winNetLat  *stats.Latency
	start      measureSnapshot
}

// measureSnapshot captures cumulative counters at measurement start.
type measureSnapshot struct {
	cycle          int64
	events         noc.PowerEvents
	orToggles      int64
	csc            int64
	created        int64
	injected       int64
	ejected        int64
	ejectedFlits   int64
	offered        int64
	flitsPerSubnet []int64
}

// New builds a simulator from cfg (defaults are applied in place of zero
// fields). Like noc.New, it is a thin shell over Reset: a fresh simulator
// and a reset one run identical wiring code, which is what makes pooled
// reuse (SimPool) bit-identical to fresh construction.
func New(cfg Config) (*Simulator, error) {
	s := &Simulator{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rewinds the simulator in place to the state New(cfg) would
// produce: the network and congestion detector are reset in place
// (reusing every shape-compatible allocation), the policies, execution
// mode, power model, and measurement sink are rewired from cfg, and any
// attached traffic generator or system model is detached. Configuration
// errors detectable before mutation leave the simulator unchanged; a
// later wiring error (not reachable with validated configs) leaves it in
// an undefined state and it must be discarded — SimPool.Get does exactly
// that, falling back to New.
func (s *Simulator) Reset(cfg Config) error {
	cfg.ApplyDefaults()
	ncfg := cfg.nocConfig()
	needsDet := cfg.needsDetector()

	// Pre-validate everything that only depends on cfg, so an invalid
	// config cannot leave a half-reset simulator behind.
	if needsDet && !congestion.ValidKind(cfg.Metric) {
		return fmt.Errorf("catnap: unknown congestion metric %d", cfg.Metric)
	}
	switch cfg.Selector {
	case SelectorRR, SelectorRandom:
	case SelectorCatnap:
		if !needsDet {
			return fmt.Errorf("catnap: Catnap selector requires a congestion detector")
		}
	default:
		return fmt.Errorf("catnap: unknown selector kind %d", cfg.Selector)
	}
	switch cfg.Gating {
	case GatingOff, GatingBaseline:
	case GatingCatnap:
		if !needsDet {
			return fmt.Errorf("catnap: Catnap gating requires a congestion detector")
		}
	default:
		return fmt.Errorf("catnap: unknown gating kind %d", cfg.Gating)
	}

	if s.Net == nil {
		net, err := noc.New(ncfg, core.NewRRSelector(ncfg.Nodes()))
		if err != nil {
			return err
		}
		s.Net = net
	} else if err := s.Net.Reset(ncfg, core.NewRRSelector(ncfg.Nodes())); err != nil {
		return err
	}
	s.Cfg = cfg
	s.gen = nil
	s.sys = nil
	s.measuring = false
	s.winLatency = nil
	s.winNetLat = nil
	s.start = measureSnapshot{}

	if needsDet {
		dcfg := congestion.Default(cfg.Metric)
		if cfg.MetricThreshold > 0 {
			dcfg.Threshold = cfg.MetricThreshold
		}
		dcfg.UseRCS = !cfg.LocalOnly
		if s.Det == nil {
			s.Det = congestion.NewDetector(s.Net, dcfg)
		} else {
			s.Det.Reset(s.Net, dcfg)
		}
		s.Net.AddObserver(s.Det)
	} else {
		s.Det = nil
	}

	var selector noc.SubnetSelector
	switch cfg.Selector {
	case SelectorRR:
		selector = core.NewRRSelector(ncfg.Nodes())
	case SelectorRandom:
		selector = core.NewRandomSelector(sim.NewRNG(cfg.Seed ^ 0x5e1ec7))
	case SelectorCatnap:
		selector = core.NewCatnapSelector(s.Det, ncfg.Nodes())
	}
	if cfg.OrderedForward && cfg.Subnets > 1 {
		selector = &core.OrderedSelector{Class: noc.ClassForward, Subnet: 0, Fallback: selector}
	}
	s.Net.SetSelector(selector)

	switch cfg.Gating {
	case GatingOff:
	case GatingBaseline:
		s.Net.SetGatingPolicy(core.BaselineGating{})
	case GatingCatnap:
		s.Net.SetGatingPolicy(core.NewCatnapGating(s.Det))
	}

	// The Simulator owns every packet producer and consumer it wires up
	// (synthetic generators discard the handle; the cpusim models retain
	// only the Payload), so packet structs are recycled through per-NI
	// freelists. Custom sinks added via Net.AddSink must not retain a
	// *Packet past the callback.
	s.Net.SetExecMode(noc.ExecMode{
		PacketRecycling: true,
		IdleSkip:        !cfg.NoIdleSkip,
	})
	s.Model = power.NewModel(cfg.powerParams(), s.Net.Config(), cfg.VoltageV)

	s.Net.AddSink(func(now int64, p *noc.Packet) {
		if s.measuring {
			s.winLatency.Observe(p.Latency())
			s.winNetLat.Observe(p.NetworkLatency())
		}
	})
	return nil
}

// EnableTrace streams a JSONL record for every delivered packet to w
// (see internal/trace for the schema), honoring writer options such as
// trace.WithGzip. Returns the trace writer; call its Flush (or Close)
// after the run.
func (s *Simulator) EnableTrace(w io.Writer, opts ...trace.Option) *trace.Writer {
	tw := trace.NewWriter(w, opts...)
	s.Net.AddSink(tw.Sink())
	return tw
}

// EnableTelemetry attaches a cycle-level telemetry collector (metrics
// registry + structured event log) to this simulator's network and
// congestion detector. label tags every exported metric point and is
// typically the experiment or sweep-point name. Returns the collector;
// read results through the recorder (Metrics, WriteEvents) after the
// run. When rec is never attached the simulator carries zero telemetry
// overhead — the hooks stay nil.
func (s *Simulator) EnableTelemetry(rec *telemetry.Recorder, label string) *telemetry.Collector {
	c := rec.Attach(s.Net, s.Det, label)
	c.SetLeakRate(s.Model.RouterLeakPJ())
	return c
}

// UseSynthetic attaches an open-loop synthetic traffic generator; call
// before Warmup/Measure. seed 0 derives one from the config seed.
func (s *Simulator) UseSynthetic(pattern traffic.Pattern, sched traffic.Schedule, seed uint64) *traffic.Generator {
	if seed == 0 {
		seed = s.Cfg.Seed ^ 0x7ea44ec0de
	}
	s.gen = traffic.NewGenerator(s.Net, pattern, sched, seed)
	return s.gen
}

// UseMix attaches the closed-loop 256-core system model running the named
// Table 3 mix.
func (s *Simulator) UseMix(mixName string) (*cpusim.System, error) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return nil, err
	}
	scfg := cpusim.DefaultConfig()
	scfg.Seed = s.Cfg.Seed
	scfg.RealCoherence = s.Cfg.RealCoherence
	sys, err := cpusim.New(s.Net, scfg, mix)
	if err != nil {
		return nil, err
	}
	s.sys = sys
	return sys, nil
}

// UseSplitMix attaches the closed-loop system model with one Table 3 mix
// on the west half of the chip and another on the east half — the
// spatially non-uniform scenario that motivates regional congestion
// detection (§3.2.1: "applications with different network demands
// concurrently running on different nodes").
func (s *Simulator) UseSplitMix(westMix, eastMix string) (*cpusim.System, error) {
	west, err := workload.MixByName(westMix)
	if err != nil {
		return nil, err
	}
	east, err := workload.MixByName(eastMix)
	if err != nil {
		return nil, err
	}
	mesh := s.Net.Topo()
	assign := make([]*workload.Profile, mesh.Tiles())
	wIdx, eIdx := 0, 0
	for tile := range assign {
		x, _ := mesh.XY(mesh.NodeOfTile(tile))
		if x < mesh.Cols()/2 {
			p, err := workload.ByName(west.Benchmarks[wIdx%len(west.Benchmarks)])
			if err != nil {
				return nil, err
			}
			assign[tile] = p
			wIdx++
		} else {
			p, err := workload.ByName(east.Benchmarks[eIdx%len(east.Benchmarks)])
			if err != nil {
				return nil, err
			}
			assign[tile] = p
			eIdx++
		}
	}
	scfg := cpusim.DefaultConfig()
	scfg.Seed = s.Cfg.Seed
	scfg.RealCoherence = s.Cfg.RealCoherence
	sys, err := cpusim.NewWithAssignment(s.Net, scfg, assign)
	if err != nil {
		return nil, err
	}
	s.sys = sys
	return sys, nil
}

// System returns the attached system model, or nil.
func (s *Simulator) System() *cpusim.System { return s.sys }

// SetExecMode applies an execution mode to this simulator's network and
// keeps the congestion detector's reference-scan setting in sync with the
// network's — the single coherent surface for every execution knob
// (reference scan, packet recycling, idle fast-forward). Mid-run flips
// are supported and results are bit-identical across all modes.
// Stepping is sequential in every mode: policy, tracer, and sink
// callbacks run on the goroutine calling Step.
func (s *Simulator) SetExecMode(m noc.ExecMode) {
	s.Net.SetExecMode(m)
	if s.Det != nil {
		s.Det.SetReferenceScan(m.ReferenceScan)
	}
}

// ExecMode returns the currently applied execution mode.
func (s *Simulator) ExecMode() noc.ExecMode { return s.Net.ExecMode() }

// Step advances one cycle, ticking the synthetic generator if attached.
func (s *Simulator) Step() {
	if s.gen != nil {
		s.gen.Tick(s.Net.Now())
	}
	s.Net.Step()
}

// trySkip attempts idle fast-forward up to the run deadline `end`,
// bounded by the attached synthetic generator's next injection cycle so
// no Tick is ever skipped over (Tick draws no randomness at zero load,
// which is what makes the jump bit-identical). The network itself bounds
// the jump by its next staged event and fans the span out to every
// observer; any observer that cannot summarize a span (the closed-loop
// system model, test probes) vetoes the whole skip.
func (s *Simulator) trySkip(end int64) {
	if !s.Net.IdleSkip() {
		return
	}
	target := end
	if s.gen != nil {
		if at, ok := s.gen.NextArrival(s.Net.Now()); ok && at < target {
			target = at
		}
	}
	s.Net.TrySkipIdle(target)
}

// Run advances n cycles, fast-forwarding through fully-quiescent idle
// spans when the execution mode's IdleSkip is armed (the default).
func (s *Simulator) Run(n int64) {
	end := s.Net.Now() + n
	for s.Net.Now() < end {
		s.trySkip(end)
		if s.Net.Now() >= end {
			break
		}
		s.Step()
	}
}

// ctxCheckCycles is how often RunCtx polls for cancellation. Checking
// every few thousand simulated cycles keeps the overhead unmeasurable
// (one channel poll per ~milliseconds of simulation) while bounding the
// cancellation latency of a sweep point.
const ctxCheckCycles = 4096

// RunCtx advances n cycles with cooperative cancellation: ctx is checked
// every ctxCheckCycles simulated cycles, and the run stops early with
// ctx.Err() when it is cancelled. A nil or Background context behaves
// exactly like Run.
func (s *Simulator) RunCtx(ctx context.Context, n int64) error {
	if ctx == nil || ctx.Done() == nil {
		s.Run(n)
		return nil
	}
	end := s.Net.Now() + n
	for i := int64(0); s.Net.Now() < end; i++ {
		if i%ctxCheckCycles == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		s.trySkip(end)
		if s.Net.Now() >= end {
			break
		}
		s.Step()
	}
	return nil
}

// StartMeasure opens a measurement window: all Results quantities are
// deltas from this point.
func (s *Simulator) StartMeasure() {
	s.winLatency = stats.NewLatency(0)
	s.winNetLat = stats.NewLatency(0)
	s.measuring = true
	s.Net.FlushCSC()
	csc, _ := s.Net.CompensatedSleepCycles()
	created, injected, ejected := s.Net.Counts()
	s.start = measureSnapshot{
		cycle:        s.Net.Now(),
		events:       s.Net.Events(),
		csc:          csc,
		created:      created,
		injected:     injected,
		ejected:      ejected,
		ejectedFlits: s.Net.EjectedFlits(),
	}
	if s.Det != nil {
		s.start.orToggles = s.Det.Energy().Toggles
	}
	if s.gen != nil {
		s.start.offered = s.gen.Offered
	}
	s.start.flitsPerSubnet = append([]int64(nil), s.Net.FlitsPerSubnet()...)
	if s.sys != nil {
		s.sys.StartMeasurement()
	}
}

// StopMeasure closes the window and returns the measured results.
func (s *Simulator) StopMeasure() Results {
	s.measuring = false
	now := s.Net.Now()
	cycles := now - s.start.cycle
	nodes := int64(s.Net.Topo().Nodes())

	events := s.Net.Events()
	events.Sub(&s.start.events)

	s.Net.FlushCSC()
	csc, _ := s.Net.CompensatedSleepCycles()
	cscDelta := csc - s.start.csc
	routerCycles := cycles * nodes * int64(s.Net.Subnets())

	var orToggles int64
	if s.Det != nil {
		orToggles = s.Det.Energy().Toggles - s.start.orToggles
	}

	created, injected, ejected := s.Net.Counts()
	r := Results{
		Config:           s.Cfg.Name,
		Cycles:           cycles,
		PacketsCreated:   created - s.start.created,
		PacketsInjected:  injected - s.start.injected,
		PacketsDelivered: ejected - s.start.ejected,
		FlitsDelivered:   s.Net.EjectedFlits() - s.start.ejectedFlits,
		AvgLatency:       s.winLatency.Mean(),
		P50Latency:       float64(s.winLatency.Percentile(50)),
		P99Latency:       float64(s.winLatency.Percentile(99)),
		AvgNetLatency:    s.winNetLat.Mean(),
		Power:            s.Model.Measure(events, cycles, s.Cfg.TBreakeven, orToggles),
		CSCPercent:       pct(cscDelta, routerCycles),
	}
	if cycles > 0 {
		r.AcceptedThroughput = float64(r.PacketsDelivered) / float64(cycles) / float64(nodes)
		r.ActiveRouterFraction = float64(events.ActiveRouterCycles) / float64(routerCycles)
	}
	if s.gen != nil {
		r.OfferedThroughput = float64(s.gen.Offered-s.start.offered) / float64(cycles) / float64(nodes)
	}
	r.SubnetShare = make([]float64, s.Net.Subnets())
	var totalFlits int64
	per := append([]int64(nil), s.Net.FlitsPerSubnet()...)
	for sub := range per {
		per[sub] -= s.start.flitsPerSubnet[sub]
		totalFlits += per[sub]
	}
	if totalFlits > 0 {
		for sub := range per {
			r.SubnetShare[sub] = float64(per[sub]) / float64(totalFlits)
		}
	}
	if s.sys != nil {
		r.SystemIPC = s.sys.SystemIPC()
	}
	return r
}

// RunSynthetic is the common open-loop experiment shape: attach pattern +
// schedule, warm up, measure. It is RunSyntheticCtx with a background
// context (which never cancels, so no error can occur).
func (s *Simulator) RunSynthetic(pattern traffic.Pattern, sched traffic.Schedule, warmup, measure int64) Results {
	res, _ := s.RunSyntheticCtx(context.Background(), pattern, sched, warmup, measure)
	return res
}

// RunSyntheticCtx is RunSynthetic with cooperative cancellation: the run
// stops between cycles (see RunCtx) when ctx is cancelled, returning
// ctx's error and zero Results.
func (s *Simulator) RunSyntheticCtx(ctx context.Context, pattern traffic.Pattern, sched traffic.Schedule, warmup, measure int64) (Results, error) {
	s.UseSynthetic(pattern, sched, 0)
	if err := s.RunCtx(ctx, warmup); err != nil {
		return Results{}, err
	}
	s.StartMeasure()
	if err := s.RunCtx(ctx, measure); err != nil {
		return Results{}, err
	}
	return s.StopMeasure(), nil
}

// RunApp is the common closed-loop experiment shape: attach the named
// Table 3 mix, warm up, measure. Cancellation follows RunCtx.
func (s *Simulator) RunApp(ctx context.Context, mixName string, warmup, measure int64) (Results, error) {
	if _, err := s.UseMix(mixName); err != nil {
		return Results{}, err
	}
	if err := s.RunCtx(ctx, warmup); err != nil {
		return Results{}, err
	}
	s.StartMeasure()
	if err := s.RunCtx(ctx, measure); err != nil {
		return Results{}, err
	}
	return s.StopMeasure(), nil
}

// pct returns 100*a/b, or 0 when b is 0.
func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Results is one measurement window's outcome.
type Results struct {
	// Config is the configuration name that produced the results.
	Config string
	// Cycles is the measurement window length.
	Cycles int64

	PacketsCreated   int64
	PacketsInjected  int64
	PacketsDelivered int64
	FlitsDelivered   int64

	// OfferedThroughput and AcceptedThroughput are in packets/node/cycle
	// (the paper's Figure 6/10/12 units). Offered is 0 without a synthetic
	// generator.
	OfferedThroughput  float64
	AcceptedThroughput float64

	// Latencies are in cycles, measured from packet creation to tail
	// ejection (AvgNetLatency excludes source queueing).
	AvgLatency    float64
	P50Latency    float64
	P99Latency    float64
	AvgNetLatency float64

	// Power is the measured network power breakdown.
	Power power.Breakdown
	// CSCPercent is the compensated-sleep-cycle percentage over all
	// routers (Figure 9/10/11/14).
	CSCPercent float64
	// ActiveRouterFraction is the mean fraction of router-cycles spent
	// active or waking.
	ActiveRouterFraction float64
	// SubnetShare is the fraction of injected flits per subnet during the
	// window (Figure 12(b)).
	SubnetShare []float64

	// SystemIPC is the summed core IPC when a system model is attached
	// (Figures 2 and 8); 0 otherwise.
	SystemIPC float64
}

// String gives a one-line summary.
func (r Results) String() string {
	return fmt.Sprintf("%s: %d cyc, accepted %.4f pkt/node/cyc, lat %.1f (p99 %.0f), power %.1fW, CSC %.1f%%",
		r.Config, r.Cycles, r.AcceptedThroughput, r.AvgLatency, r.P99Latency, r.Power.Total, r.CSCPercent)
}
