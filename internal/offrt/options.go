package offrt

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/energy"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// config collects NewSession's functional options.
type config struct {
	pol        Policy
	tasks      []TaskSpec
	tracer     *obs.Tracer
	injector   *faults.Injector
	serverPlan *faults.ServerPlan
	migrate    bool
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

// Hosts is the number of server hosts a session runs on: host 0 alone, the
// paper's fallback-only recovery, or host 0 and spareHosts spares under
// WithMigration. NewSession validates a server-fault plan against it.
func Hosts(migrate bool) int {
	if migrate {
		return 1 + spareHosts
	}
	return 1
}

// EstimateParams is Equation 1's environment for a mobile/server pair on
// link: arch.PerformanceRatio's R, the link's bandwidth and round trip. The
// compiler selects targets and the session's gate prices them with it.
func EstimateParams(mobile, server *arch.Spec, link *netsim.Link) estimate.Params {
	return estimate.Params{
		R:            arch.PerformanceRatio(mobile, server),
		BandwidthBps: link.BandwidthBps,
		RTT:          link.RTT(),
	}
}

// NewSession builds a session over the given machines and link. The server
// machine must not be started yet, and must run on the fast engine; Session
// runs it. The link's phase schedule is validated here — a misordered
// schedule would silently resolve the wrong bandwidth regime at every gate
// decision.
func NewSession(mobile, server *interp.Machine, link *netsim.Link, opts ...Option) (*Session, error) {
	if mobile == nil || server == nil {
		return nil, fmt.Errorf("offrt: both a mobile and a server machine are required")
	}
	if server.Engine == interp.EngineRef {
		return nil, fmt.Errorf("offrt: the server machine needs the fast engine: its listen loop suspends at accept, which the reference engine cannot")
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
	hosts := Hosts(cfg.migrate)
	if err := cfg.serverPlan.ValidatePool(hosts); err != nil {
		return nil, fmt.Errorf("offrt: invalid server-fault plan for this session's hosts: %w", err)
	}

	s := &Session{
		Mobile:   mobile,
		Link:     link,
		Policy:   cfg.pol,
		PerTask:  make(map[int]*TaskStats),
		Tracer:   cfg.tracer,
		tasks:    make(map[int32]TaskSpec),
		Recorder: energy.NewRecorder(0, energy.Compute),
		cooldown: quarantineCooldown,
		ep:       endpoint{m: server},

		serverPlan: cfg.serverPlan,
		hosts:      hosts,
		backhaul:   netsim.Backhaul(),
	}
	for _, t := range cfg.tasks {
		s.tasks[int32(t.TaskID)] = t
		s.PerTask[t.TaskID] = &TaskStats{}
	}
	s.est = EstimateParams(mobile.Spec, server.Spec, link)

	// Thread the tracer through wire accounting and the radio power
	// timeline; the session emits the task enter/exit events itself.
	s.LinkStats.Tracer = cfg.tracer
	s.LinkStats.Injector = cfg.injector
	s.Recorder.Tracer = cfg.tracer

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
