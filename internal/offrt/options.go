package offrt

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// LoadSignal is the dispatcher-side load view a server fleet exposes to
// sessions: the estimated queueing delay an offload dispatched at instant
// now would face, given its predicted server-side execution time. The
// dynamic gate charges it on top of Equation 1's communication cost, so a
// busy fleet flips marginal tasks back to local execution.
// fleet.Pool implements it.
type LoadSignal interface {
	EstQueueDelay(now simtime.PS, exec simtime.PS) simtime.PS
}

// config collects NewSession's functional options.
type config struct {
	pol        Policy
	tasks      []TaskSpec
	tracer     *obs.Tracer
	metrics    *obs.Metrics
	ratio      float64
	injector   *faults.Injector
	rec        *Recovery
	load       LoadSignal
	start      simtime.PS
	serverPlan *faults.ServerPlan
	mig        *Migration
	topo       *tiers.Topology
}

// Option configures a Session at construction.
type Option func(*config)

// WithPolicy sets the runtime policy (gate behaviour, compression,
// prefetch, output batching).
func WithPolicy(p Policy) Option { return func(c *config) { c.pol = p } }

// WithTasks registers the offload targets the dynamic estimator knows
// about; repeated uses accumulate.
func WithTasks(tasks ...TaskSpec) Option {
	return func(c *config) { c.tasks = append(c.tasks, tasks...) }
}

// WithTracer attaches a structured event tracer to the whole pipeline:
// session lifecycle, wire messages, page faults, remote I/O, radio states
// and the interpreter's task enter/exit all record into it. A nil tracer
// disables tracing at zero cost.
func WithTracer(tr *obs.Tracer) Option { return func(c *config) { c.tracer = tr } }

// WithMetrics attaches a metrics registry; Shutdown publishes the link and
// session statistics (and per-task numbers) into it.
func WithMetrics(m *obs.Metrics) Option { return func(c *config) { c.metrics = m } }

// WithEstimatorRatio overrides the server/mobile performance ratio R of
// Equation 1; 0 (the default) derives it from the two machines' cycle
// times. It is the only ratio override.
func WithEstimatorRatio(r float64) Option { return func(c *config) { c.ratio = r } }

// WithFaults installs a deterministic link fault injector: every wire
// transfer consults it and may be dropped, corrupted or delayed, and the
// session's recovery layer (deadlines, retries, local fallback) takes
// over from there. A nil injector leaves the link perfectly reliable.
func WithFaults(in *faults.Injector) Option { return func(c *config) { c.injector = in } }

// WithRecovery replaces the failure-recovery policy (see DefaultRecovery
// for what sessions use otherwise).
func WithRecovery(r Recovery) Option { return func(c *config) { c.rec = &r } }

// WithFleet constructs the session against a shared server fleet instead
// of a dedicated peer: the dynamic gate consults the fleet's live load
// signal and declines offloads whose queueing delay would erase the gain.
// A nil signal leaves the session in its dedicated-server shape. Like every
// session knob this is a NewSession option — NewSession is the single
// session constructor, and a fleet dispatcher passes WithFleet alongside
// WithStartTime when admitting a client.
func WithFleet(load LoadSignal) Option { return func(c *config) { c.load = load } }

// WithServerFaults installs a deterministic *server*-fault schedule:
// slowdowns, stalls, crashes and scheduled drains injected on the simtime
// clock at remote-service boundaries (which double as the health
// monitor's heartbeats). Hosts are indexed by the plan's Server field;
// the session's offload starts on host 0 and each migration or
// crash-retry moves it to the next spare. A nil plan leaves every host
// perfectly healthy.
func WithServerFaults(p *faults.ServerPlan) Option { return func(c *config) { c.serverPlan = p } }

// WithMigration enables mid-flight offload migration: on a scheduled
// drain, a health-detected degradation, or a crash with a spare host
// standing by, the runtime checkpoints the in-flight task (dirty private
// pages only), ships it over the backhaul and resumes on the next host.
// Without this option the session keeps the paper's behavior — any server
// failure degrades to local fallback.
func WithMigration(m Migration) Option { return func(c *config) { c.mig = &m } }

// WithTiers places a hierarchical topology behind the session's gate:
// instead of the binary Equation-1 question, every decision scores
// {local, edge over the access link, cloud over access + WAN backhaul}
// with estimate.Placement and offloads whenever either remote tier beats
// local execution. The session's wire simulation still runs over its one
// link and server — the topology informs the decision layer (placement
// choice, per-tier accounting, tier.place traces); full per-tier
// execution timing is the fleet simulator's job. A nil topology keeps
// the binary gate, whose decisions Placement reproduces exactly when the
// cloud option is absent.
func WithTiers(topo *tiers.Topology) Option { return func(c *config) { c.topo = topo } }

// WithStartTime places the session at instant t on the shared simulated
// timeline instead of 0: both machines' clocks, the energy recorder, and
// the initial link-phase resolution all start there. A fleet dispatcher
// admitting a queued client mid-run passes this to NewSession (typically
// with WithFleet), so every time-varying quantity (link phases above all)
// is evaluated against the regime actually in effect.
func WithStartTime(t simtime.PS) Option { return func(c *config) { c.start = t } }

// NewSession builds a session over the given machines and link. The server
// machine must not be started yet; Session runs it. The link's phase
// schedule is validated here — a misordered schedule would silently
// resolve the wrong bandwidth regime at every gate decision.
func NewSession(mobile, server *interp.Machine, link *netsim.Link, opts ...Option) (*Session, error) {
	if mobile == nil || server == nil {
		return nil, fmt.Errorf("offrt: both a mobile and a server machine are required")
	}
	if link == nil {
		return nil, fmt.Errorf("offrt: a link is required")
	}
	if err := link.ValidatePhases(); err != nil {
		return nil, fmt.Errorf("offrt: invalid link: %w", err)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.ratio < 0 {
		return nil, fmt.Errorf("offrt: estimator ratio must be non-negative, got %g", cfg.ratio)
	}
	if cfg.start < 0 {
		return nil, fmt.Errorf("offrt: start time must be non-negative, got %v", cfg.start)
	}
	rec := DefaultRecovery()
	if cfg.rec != nil {
		rec = *cfg.rec
		if err := rec.Validate(); err != nil {
			return nil, err
		}
	}
	if err := cfg.serverPlan.Validate(); err != nil {
		return nil, fmt.Errorf("offrt: invalid server-fault plan: %w", err)
	}
	if err := cfg.topo.Validate(); err != nil {
		return nil, fmt.Errorf("offrt: invalid tier topology: %w", err)
	}
	mig := DefaultMigration()
	migOn := false
	if cfg.mig != nil {
		mig = *cfg.mig
		if err := mig.Validate(); err != nil {
			return nil, err
		}
		migOn = mig.Spares > 0
	} else {
		mig.Spares = 0 // no WithMigration: single host, fallback-only recovery
	}
	if mig.Backhaul == nil {
		mig.Backhaul = netsim.Backhaul()
	}

	s := &Session{
		Mobile:   mobile,
		Server:   server,
		Link:     link,
		Policy:   cfg.pol,
		PerTask:  make(map[int]*TaskStats),
		Tracer:   cfg.tracer,
		Metrics:  cfg.metrics,
		tasks:    make(map[int32]TaskSpec),
		reqCh:    make(chan request),
		repCh:    make(chan reply),
		doneCh:   make(chan error, 1),
		Recorder: energy.NewRecorder(cfg.start, energy.Compute),
		rec:      rec,
		load:     cfg.load,
		topo:     cfg.topo,

		serverPlan: cfg.serverPlan,
		mig:        mig,
		migOn:      migOn,
		hosts:      1 + mig.Spares,
		backhaul:   mig.Backhaul,
	}
	// Latency histograms live in the metrics registry so Summary() renders
	// them next to the counters; Histogram is nil-safe on a nil registry.
	s.hFault = cfg.metrics.Histogram("lat.page_fault_ps")
	s.hRPC = cfg.metrics.Histogram("lat.rpc_ps")
	s.hBackoff = cfg.metrics.Histogram("lat.rpc_backoff_ps")
	s.hWriteBack = cfg.metrics.Histogram("lat.write_back_ps")
	s.hE2E = cfg.metrics.Histogram("lat.offload.e2e_ps")
	s.hMigrate = cfg.metrics.Histogram("lat.migration_ps")
	// Sessions joining a shared timeline mid-run (fleet clients) begin at
	// their admission instant, not 0.
	mobile.Clock = simtime.Max(mobile.Clock, cfg.start)
	server.Clock = simtime.Max(server.Clock, cfg.start)
	for _, t := range cfg.tasks {
		s.tasks[int32(t.TaskID)] = t
		s.PerTask[t.TaskID] = &TaskStats{}
	}
	r := cfg.ratio
	if r == 0 {
		r = float64(mobile.Spec.CyclePS) / float64(server.Spec.CyclePS)
	}
	s.est = estimate.Params{
		R:            r,
		BandwidthBps: link.BandwidthBps,
		RTT:          2 * (link.Latency + link.PerMessage),
	}

	// Thread the tracer through every layer: wire accounting, the radio
	// power timeline, and the interpreter's task enter/exit events.
	s.LinkStats.Tracer = cfg.tracer
	s.LinkStats.Injector = cfg.injector
	s.Recorder.Tracer = cfg.tracer
	mobile.Tracer, mobile.TraceTrack = cfg.tracer, obs.TrackMobile
	server.Tracer, server.TraceTrack = cfg.tracer, obs.TrackServer

	// Resolve the initial link phase at the session's start instant: a
	// session admitted at t > 0 must not trace (or estimate against) the
	// phase-0 regime.
	idx, bw := link.PhaseAt(cfg.start)
	s.lastPhase = idx
	s.Tracer.Emit(obs.Event{Time: cfg.start, Kind: obs.KLinkPhase, Track: obs.TrackLink,
		A0: bw, A1: int64(idx)})

	mobile.Sys = s
	server.Sys = s

	// Copy-on-demand: a server page fault fetches the page from the
	// mobile device over the link (request + page reply), stalling the
	// server and pulsing the mobile radio.
	server.Mem.Fault = s.servePageFault

	// Function pointers: translate any address either linker assigned to
	// the local function of the same name; mapped call sites charge the
	// translation cost in the interpreter.
	server.ResolveFptr = s.resolver(server, mobile)
	mobile.ResolveFptr = s.resolver(mobile, server)
	return s, nil
}
