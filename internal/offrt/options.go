package offrt

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tiers"
)

// config collects NewSession's functional options.
type config struct {
	pol        Policy
	tasks      []TaskSpec
	tracer     *obs.Tracer
	injector   *faults.Injector
	serverPlan *faults.ServerPlan
	migrate    bool
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

// WithFaults installs a deterministic link fault injector: every wire
// transfer consults it and may be dropped, corrupted or delayed, and the
// session's recovery layer (deadlines, retries, local fallback) takes
// over from there. A nil injector leaves the link perfectly reliable.
func WithFaults(in *faults.Injector) Option { return func(c *config) { c.injector = in } }

// WithServerFaults installs a deterministic *server*-fault schedule:
// slowdowns, stalls, crashes and scheduled drains injected on the simtime
// clock at remote-service boundaries (which double as the health
// monitor's heartbeats). Hosts are indexed by the plan's Server field;
// the session's offload starts on host 0 and each migration or
// crash-retry moves it to the next spare. A session has host 0 alone, or
// hosts 0 and 1 under WithMigration, and NewSession rejects a plan naming
// any other. A nil plan leaves every host perfectly healthy.
func WithServerFaults(p *faults.ServerPlan) Option { return func(c *config) { c.serverPlan = p } }

// WithMigration enables mid-flight offload migration: on a scheduled
// drain, a health-detected degradation, or a crash with a spare host
// standing by, the runtime checkpoints the in-flight task (dirty private
// pages only), ships it over the backhaul and resumes on the next host.
// Without this option the session keeps the paper's behavior — any server
// failure degrades to local fallback.
func WithMigration() Option { return func(c *config) { c.migrate = true } }

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
	hosts := 1 // no WithMigration: single host, fallback-only recovery
	if cfg.migrate {
		hosts += spareHosts
	}
	if err := cfg.serverPlan.ValidatePool(hosts); err != nil {
		return nil, fmt.Errorf("offrt: invalid server-fault plan for this session's hosts: %w", err)
	}
	if err := cfg.topo.Validate(); err != nil {
		return nil, fmt.Errorf("offrt: invalid tier topology: %w", err)
	}

	s := &Session{
		Mobile:   mobile,
		Server:   server,
		Link:     link,
		Policy:   cfg.pol,
		PerTask:  make(map[int]*TaskStats),
		Tracer:   cfg.tracer,
		tasks:    make(map[int32]TaskSpec),
		reqCh:    make(chan request),
		repCh:    make(chan reply),
		doneCh:   make(chan error, 1),
		Recorder: energy.NewRecorder(0, energy.Compute),
		cooldown: quarantineCooldown,
		topo:     cfg.topo,

		serverPlan: cfg.serverPlan,
		migOn:      cfg.migrate,
		hosts:      hosts,
		backhaul:   netsim.Backhaul(),
	}
	for _, t := range cfg.tasks {
		s.tasks[int32(t.TaskID)] = t
		s.PerTask[t.TaskID] = &TaskStats{}
	}
	s.est = estimate.Params{
		R:            float64(mobile.Spec.CyclePS) / float64(server.Spec.CyclePS),
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

	idx, bw := link.PhaseAt(0)
	s.lastPhase = idx
	s.Tracer.Emit(obs.Event{Time: 0, Kind: obs.KLinkPhase, Track: obs.TrackLink,
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
