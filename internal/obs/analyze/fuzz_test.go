package analyze

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// The fuzzer's event vocabulary: the kinds and names the analyzers branch
// on, plus the ones the seed traces carry. An encoded event is fuzzRecord
// bytes: kind, track, name and job indices, task id, then time, duration
// and A1 as big-endian milliseconds.
var (
	fuzzKinds = []obs.Kind{obs.KPrefetch, obs.KMessage, obs.KPageFault, obs.KRemoteIO,
		obs.KWriteBack, obs.KOffload, obs.KFallback, obs.KRetry, obs.KFault, obs.KMigrateShip,
		obs.KJob, obs.KJobSeg, obs.KGate, obs.KTaskEnter, obs.KTaskExit, obs.KAbort,
		obs.KServerFault, obs.KRadio}
	fuzzTracks = []obs.Track{obs.TrackMobile, obs.TrackServer, obs.TrackLink, obs.TrackRadio,
		obs.TrackFleet, obs.TrackEdge, obs.TrackCloud}
	fuzzNames = []string{"", "to_server", "to_mobile", "remote", "zero-fill", "drop", "corrupt",
		"delay", "outage", "offload.restart", "offload.request", "printf", "crunch", "crash",
		"remote.printf", "page.request", "compute", "tx", "wait", "rx", "ioserve", "uplink",
		"queue", "run", "offload"}
)

const (
	fuzzRecord    = 11
	fuzzMaxEvents = 64
)

// decodeEvents turns fuzz bytes into at most fuzzMaxEvents events; a
// trailing partial record is ignored.
func decodeEvents(data []byte) []obs.Event {
	ms := simtime.Millisecond
	var evs []obs.Event
	for len(data) >= fuzzRecord && len(evs) < fuzzMaxEvents {
		r := data[:fuzzRecord]
		data = data[fuzzRecord:]
		evs = append(evs, obs.Event{
			Kind:  fuzzKinds[int(r[0])%len(fuzzKinds)],
			Track: fuzzTracks[int(r[1])%len(fuzzTracks)],
			Name:  fuzzNames[int(r[2])%len(fuzzNames)],
			Job:   int64(r[3] % 4),
			A0:    int64(r[4]),
			Time:  simtime.PS(binary.BigEndian.Uint16(r[5:])) * ms,
			Dur:   simtime.PS(binary.BigEndian.Uint16(r[7:])) * ms,
			A1:    int64(binary.BigEndian.Uint16(r[9:])) * int64(ms),
		})
	}
	return evs
}

// encodeEvents is decodeEvents' inverse for a seed trace: every kind,
// track and name must be in the vocabulary, every instant a whole number
// of milliseconds. A0 keeps its low byte (the analyzers read it only as a
// task id) and A1 is kept only for a KRetry, whose backoff it is.
func encodeEvents(t testing.TB, evs []obs.Event) []byte {
	ms := simtime.Millisecond
	var out []byte
	for _, ev := range evs {
		k, tr, n := slices.Index(fuzzKinds, ev.Kind), slices.Index(fuzzTracks, ev.Track), slices.Index(fuzzNames, ev.Name)
		var a1 int64
		if ev.Kind == obs.KRetry {
			a1 = ev.A1
		}
		if k < 0 || tr < 0 || n < 0 || ev.Time%ms != 0 || ev.Dur%ms != 0 || a1%int64(ms) != 0 || ev.Job > 3 {
			t.Fatalf("seed event %+v is outside the fuzz vocabulary", ev)
		}
		out = append(out, byte(k), byte(tr), byte(n), byte(ev.Job), byte(ev.A0))
		out = binary.BigEndian.AppendUint16(out, uint16(ev.Time/ms))
		out = binary.BigEndian.AppendUint16(out, uint16(ev.Dur/ms))
		out = binary.BigEndian.AppendUint16(out, uint16(a1/int64(ms)))
	}
	return out
}

// FuzzAnalyze runs span assembly, the critical-path and time breakdowns and
// the latency replay over arbitrary event streams. None may panic; every
// reconstructed offload's components partition its total; and no latency
// population outnumbers the events it is replayed from.
func FuzzAnalyze(f *testing.F) {
	for _, tr := range []*obs.Tracer{sessionTrace(), crashRetryTrace()} {
		evs := tr.Events()
		if len(evs) > fuzzMaxEvents {
			f.Fatalf("seed trace has %d events, the fuzzer decodes %d", len(evs), fuzzMaxEvents)
		}
		f.Add(encodeEvents(f, evs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeEvents(data)
		obs.AssembleSpans(evs)
		Crit(evs)
		for _, o := range Breakdown(evs).Offloads {
			if o.Init+o.Compute+o.Fault+o.IO+o.WriteBack != o.Total {
				t.Fatalf("components of %+v do not sum to its total", o)
			}
		}
		kinds := make(map[obs.Kind]int)
		for _, ev := range evs {
			kinds[ev.Kind]++
		}
		l := ReplayLatencies(evs)
		for _, p := range []struct {
			name string
			n    int
			max  int
		}{
			{"page fault", len(l.PageFault), kinds[obs.KPageFault]},
			{"rpc", len(l.RPC), kinds[obs.KMessage]},
			{"backoff", len(l.Backoff), kinds[obs.KRetry]},
			{"write-back", len(l.WriteBack), kinds[obs.KWriteBack]},
			{"e2e", len(l.E2E), kinds[obs.KOffload] + kinds[obs.KFallback]},
			{"migration", len(l.Migration), kinds[obs.KMigrateShip]},
		} {
			if p.n > p.max {
				t.Fatalf("%d %s latencies from %d events", p.n, p.name, p.max)
			}
		}
		LatencyTable(l)
	})
}
