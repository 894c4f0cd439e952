package fleet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simtime"
	"repro/internal/tiers"
)

// TestLoadIndexMatchesReference: the index stays the walk's equal while
// the pool changes under it. randomPool shapes (uniform and mixed speeds,
// 1-8 slots, any share down, forced ties and near-ties) under the
// candidate sets the machine indexes are driven through random sequences
// of the server mutators, with the clock advancing between them the way
// the event loop advances it — never past a running job's finish: reserve,
// arrive (release, then start or enqueue), finish (dropRunning, then pop
// and start), crash and drain. After the steps that are checked (three in four, so
// marks also pile up across steps) pick returns pickAmongRef's server and
// wait, est-aware and least-loaded.
func TestLoadIndexMatchesReference(t *testing.T) {
	const pools, steps = 600, 80
	r := entityStream(23, 1)
	type flight struct {
		s    *server
		exec simtime.PS
	}
	var ties, viaTree, viaOpen, nobody int
	for p := 0; p < pools; p++ {
		now := r.rangePS(0, 30*simtime.Second)
		servers := randomPool(&r, now)
		sets := candidateSets(&r, len(servers))
		cand := sets[r.intn(len(sets))]
		ix := newLoadIndex(servers, cand)
		var inflight []flight
		var seq int64
		newJob := func(exec simtime.PS) *job {
			seq++
			return &job{id: seq, exec: exec}
		}
		// earliest is the running job that finishes first, pool-wide.
		earliest := func() (*server, *job) {
			var es *server
			var ej *job
			for _, s := range servers {
				for _, j := range s.running {
					if ej == nil || j.finish < ej.finish {
						es, ej = s, j
					}
				}
			}
			return es, ej
		}
		for step := 0; step < steps; step++ {
			s := servers[r.intn(len(servers))]
			op := "tick"
			switch k := r.intn(14); {
			case k < 4:
				op = "reserve"
				exec := r.rangePS(50*simtime.Millisecond, simtime.Second)
				s.reserve(exec)
				inflight = append(inflight, flight{s, exec})
			case k < 8 && len(inflight) > 0:
				op = "arrive"
				i := r.intn(len(inflight))
				f := inflight[i]
				inflight = append(inflight[:i], inflight[i+1:]...)
				f.s.release(f.exec)
				switch j := newJob(f.exec); {
				case f.s.down: // the machine relocates it: nothing lands here
				case len(f.s.running) < f.s.spec.Slots:
					j.finish = now + f.exec*simtime.PS(1+r.intn(3)) // at times slowed down
					f.s.start(j)
				default:
					f.s.enqueue(j)
				}
			case k < 11:
				op = "finish"
				if fs, j := earliest(); j != nil {
					now = j.finish
					fs.dropRunning(j)
					if len(fs.queue) > 0 && r.intn(8) > 0 {
						next := fs.pop()
						next.finish = now + next.exec
						fs.start(next)
					}
				}
			case k < 12 && r.intn(4) == 0:
				op = "crash"
				s.takeDown(true)
			case k < 13 && r.intn(4) == 0:
				op = "drain"
				s.takeDown(false)
			default:
				now += r.rangePS(0, 50*simtime.Millisecond)
				if _, j := earliest(); j != nil {
					now = min(now, j.finish)
				}
			}
			if r.intn(4) == 0 {
				continue
			}
			tm := r.rangePS(200*simtime.Millisecond, 2*simtime.Second)
			up := r.rangePS(0, 400*simtime.Millisecond)
			down := r.rangePS(0, 400*simtime.Millisecond)
			for _, pol := range []Policy{EstAware, LeastLoaded} {
				d := dispatcher{policy: pol}
				gi, gw := d.pickAmong(ix, now, tm, up, down)
				wi, ww := pickAmongRef(&d, servers, cand, now, tm, up, down)
				if gi != wi || gw != ww {
					t.Fatalf("pool %d step %d (%s) %s over %d candidates: got server %d wait %d, reference %d wait %d",
						p, step, op, pol, len(cand), gi, gw, wi, ww)
				}
				if pol != EstAware {
					continue
				}
				if gi < 0 {
					nobody++
					continue
				}
				if w := servers[gi]; len(w.running) == w.spec.Slots {
					viaTree++
				} else {
					viaOpen++
				}
				for _, i := range cand {
					s := servers[i]
					if i != gi && !s.down && s.estWait(now)+s.execTime(tm) == gw+servers[gi].execTime(tm) {
						ties++
						break
					}
				}
			}
		}
		// The sequence stayed inside the machine's invariants, or the walk
		// and the index were compared on states no run reaches.
		for i, s := range servers {
			if s.reserved < 0 {
				t.Fatalf("pool %d: server %d ends with reserved %d", p, i, s.reserved)
			}
			for _, j := range s.running {
				if j.finish < now {
					t.Fatalf("pool %d: server %d runs a job finishing at %d, before now %d", p, i, j.finish, now)
				}
			}
		}
	}
	if ties == 0 || viaTree == 0 || viaOpen == 0 || nobody == 0 {
		t.Errorf("vacuous: %d picks won a tie, %d went to a saturated server, %d to an open one, %d found nobody up",
			ties, viaTree, viaOpen, nobody)
	}
}

// TestReplaceBoundIsExact: asking the index first never changes what
// replace answers. Over random cloud tiers of mixed specs and random
// (remTm, at, bar) — arrival instants past some running jobs' finishes,
// bars drawn wide and on the race's exact boundary — replace picks
// replaceRef's target or, like it, nobody; a win forwards exactly one
// continuation to that target and reserves on it, so later calls on the
// same pool see marks the index has yet to re-file. All three outcomes are
// counted: pruned by the bound, walked and lost, walked and won.
func TestReplaceBoundIsExact(t *testing.T) {
	const pools, calls = 400, 10
	r := entityStream(23, 2)
	var pruned, lost, won int
	for p := 0; p < pools; p++ {
		now := r.rangePS(0, 30*simtime.Second)
		servers := randomPool(&r, now)
		if len(servers) < 2 {
			continue
		}
		nEdge := 1 + r.intn(len(servers)-1)
		cfg := TieredConfig(8, &tiers.Topology{
			Edge:  tiers.Pool{Servers: nEdge, R: 3, Slots: 1},
			Cloud: tiers.Pool{Servers: len(servers) - nEdge, R: 8, Slots: 1},
		})
		rm := new(runMem)
		m := newMachine(&cfg, nil, newResult(0, rm), rm)
		m.servers = servers
		m.cloudLoad = newLoadIndex(servers, m.cloudIdx)
		sent := -1
		m.sched = func(_ simtime.PS, _ uint8, si int32, _ *job) { sent = int(si) }
		for k := 0; k < calls; k++ {
			j := &job{id: int64(k), tm: r.rangePS(200*simtime.Millisecond, 2*simtime.Second),
				mem: r.rangeI64(64<<10, 4<<20), adown: r.rangePS(simtime.Millisecond, 40*simtime.Millisecond)}
			remTm := r.rangePS(0, j.tm)
			at := now + r.rangePS(0, 3*simtime.Second)
			bar := at + r.rangePS(0, 8*simtime.Second)
			if r.intn(3) == 0 {
				// On the boundary: the walk's best completes exactly at bar
				// (loses) or a picosecond before it (wins).
				if ti := replaceRef(m, j, m.cloudIdx, remTm, at, math.MaxInt64); ti >= 0 {
					down, _ := m.replyLeg(j, ti)
					bar = at + servers[ti].estWaitAt(at) + servers[ti].execTime(remTm) + down + simtime.PS(r.intn(2))
				}
			}
			want := replaceRef(m, j, m.cloudIdx, remTm, at, bar)
			down, _ := m.replyLeg(j, m.cloudIdx[0])
			walked := m.cloudLoad.mayBeat(at, remTm, bar-at-down)
			var before simtime.PS
			if want >= 0 {
				before = servers[want].reserved
			}
			sent = -1
			got := m.replace(j, m.cloudLoad, remTm, at, bar, segWanShip, 0)
			if got != want || sent != want {
				t.Fatalf("pool %d call %d: replace chose %d and forwarded to %d, the walk alone chooses %d", p, k, got, sent, want)
			}
			switch {
			case !walked:
				pruned++
			case want < 0:
				lost++
			default:
				won++
				if exec := servers[want].execTime(remTm); servers[want].reserved != before+exec {
					t.Fatalf("pool %d call %d: target %d holds %d reserved, want %d", p, k, want, servers[want].reserved, before+exec)
				}
			}
		}
	}
	if pruned == 0 || lost == 0 || won == 0 {
		t.Errorf("vacuous: %d calls pruned by the bound, %d walked and lost, %d won", pruned, lost, won)
	}
}

// TestLoadFieldsWrittenOnlyByServerMethods: a write to one of the five
// fields loadIndex files a server by, made anywhere but in a method of
// server, would skip mark and leave the index answering for a state the
// server has left. So no shipped file assigns a field of those names
// outside such a method (by name alone: job.down is caught too, and is
// only ever set in a literal), and no server literal sets one.
func TestLoadFieldsWrittenOnlyByServerMethods(t *testing.T) {
	load := map[string]bool{"down": true, "running": true, "reserved": true, "queExec": true, "finSum": true}
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	inMethods := 0
	check := func(fn *ast.FuncDecl) {
		method := false
		if fn.Recv != nil {
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				id, ok := star.X.(*ast.Ident)
				method = ok && id.Name == "server"
			}
		}
		written := func(e ast.Expr) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || !load[sel.Sel.Name] {
				return
			}
			if method {
				inMethods++
				return
			}
			t.Errorf("%s: %s writes .%s outside a server method", fset.Position(e.Pos()), fn.Name.Name, sel.Sel.Name)
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					written(lhs)
				}
			case *ast.IncDecStmt:
				written(n.X)
			case *ast.CompositeLit:
				if id, ok := n.Type.(*ast.Ident); !ok || id.Name != "server" {
					break
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						t.Errorf("%s: positional server literal", fset.Position(el.Pos()))
					} else if key, ok := kv.Key.(*ast.Ident); ok && load[key.Name] {
						t.Errorf("%s: server literal sets %s", fset.Position(kv.Pos()), key.Name)
					}
				}
			}
			return true
		})
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				check(fn)
			}
		}
	}
	// reserve, release, enqueue, pop, start (2), dropRunning (2), takeDown
	// (4).
	if inMethods != 12 {
		t.Errorf("found %d writes inside server methods, want 12: the guard no longer sees them all", inMethods)
	}
}

// TestServerRemovalsOfAbsentJobsPanic: removing a job a server does not
// hold is a bookkeeping bug, and dropRunning panics on it, like release,
// instead of returning with finSum and the load index still counting a job
// that is gone — or never counted one that is elsewhere. It is tried with
// the job in the server's queue, and on an empty server.
func TestServerRemovalsOfAbsentJobsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	s := &server{spec: ServerSpec{R: 3, Slots: 1}, id: 4}
	running := &job{id: 1, exec: simtime.Second, finish: 2 * simtime.Second}
	queued := &job{id: 2, exec: 3 * simtime.Second}
	s.start(running)
	s.enqueue(queued)
	mustPanic("dropRunning of a queued job", func() { s.dropRunning(queued) })
	if s.finSum != running.finish || s.queExec != queued.exec {
		t.Errorf("a refused removal moved the load: finSum %v queExec %v, want %v and %v", s.finSum, s.queExec, running.finish, queued.exec)
	}
	empty := &server{spec: ServerSpec{R: 3, Slots: 1}}
	mustPanic("dropRunning on an empty server", func() { empty.dropRunning(running) })
}
