package analyze

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// Latencies is every latency population of a session trace, one value per
// occurrence in emission order. Each is replayed from the events the
// runtime emits anyway, so a traced session needs no second copy of its
// durations.
type Latencies struct {
	// PageFault is each remote page-fault service (request + page reply).
	PageFault []simtime.PS
	// RPC is each delivered wire transfer, from its first attempt's start
	// to its delivered attempt's end: retransmissions, expired deadlines
	// and backoff waits included.
	RPC []simtime.PS
	// Backoff is each retry backoff wait before a retransmission.
	Backoff []simtime.PS
	// WriteBack is each finalization write-back transfer.
	WriteBack []simtime.PS
	// E2E is each offload's end-to-end latency: from its first request to
	// the result in hand, a local fallback's re-execution included — the
	// values SessionStats.E2ELatency sums.
	E2E []simtime.PS
	// Migration is each checkpoint ship plus resume handoff.
	Migration []simtime.PS
}

// ReplayLatencies collects the latency populations of a session event
// stream:
//
//   - a page fault is a KPageFault named "remote", a write-back a
//     KWriteBack, a migration a KMigrateShip: each its span's duration;
//   - a backoff is the A1 of a link-track KRetry (a mobile-track
//     "offload.restart" re-sends a whole offload and waits no backoff);
//   - an RPC is a chain of link-track KMessage attempts joined wherever a
//     link KRetry sits between two of them. It counts once delivered: its
//     last attempt shares no instant with a drop, corrupt or outage KFault;
//   - an offload opens at the first KPrefetch after the previous one
//     closed — a crash retry's second KPrefetch does not reopen it — and
//     closes at the end of its KOffload or KFallback.
func ReplayLatencies(events []obs.Event) *Latencies {
	l := &Latencies{}
	var (
		offloadOpen  bool
		offloadStart simtime.PS
		retrying     bool // a link KRetry since the last wire attempt
		rpcStart     simtime.PS
		failAt       = simtime.PS(-1) // the latest lossy fault's instant
	)
	for _, ev := range events {
		link := ev.Track == obs.TrackLink
		switch {
		case ev.Kind == obs.KPageFault && ev.Name == "remote":
			l.PageFault = append(l.PageFault, ev.Dur)
		case ev.Kind == obs.KWriteBack:
			l.WriteBack = append(l.WriteBack, ev.Dur)
		case ev.Kind == obs.KMigrateShip:
			l.Migration = append(l.Migration, ev.Dur)
		case ev.Kind == obs.KRetry && link:
			l.Backoff = append(l.Backoff, simtime.PS(ev.A1))
			retrying = true
		case ev.Kind == obs.KFault && link && lossy(ev.Name):
			failAt = ev.Time
		case ev.Kind == obs.KMessage && link:
			if !retrying {
				rpcStart = ev.Time
			}
			retrying = false
			if failAt != ev.Time {
				l.RPC = append(l.RPC, ev.Time+ev.Dur-rpcStart)
			}
		case ev.Kind == obs.KPrefetch && !offloadOpen:
			offloadOpen, offloadStart = true, ev.Time
		case (ev.Kind == obs.KOffload || ev.Kind == obs.KFallback) && offloadOpen:
			l.E2E = append(l.E2E, ev.Time+ev.Dur-offloadStart)
			offloadOpen = false
		}
	}
	return l
}

// lossy reports whether a KFault of that name kept its message from
// arriving intact (a "delay" fault only slows it).
func lossy(fault string) bool {
	return fault == "drop" || fault == "corrupt" || fault == "outage"
}

// population is one latency population under its latency-table row name.
type population struct {
	name string
	vals []simtime.PS
}

// populations lists the populations in the table's (alphabetical) order.
func (l *Latencies) populations() []population {
	return []population{
		{"lat.migration_ps", l.Migration},
		{"lat.offload.e2e_ps", l.E2E},
		{"lat.page_fault_ps", l.PageFault},
		{"lat.rpc_backoff_ps", l.Backoff},
		{"lat.rpc_ps", l.RPC},
		{"lat.write_back_ps", l.WriteBack},
	}
}

// LatencyTable renders every population's count, nearest-rank quantiles,
// maximum and mean with aligned columns: what an obs.Histogram fed the same
// values snapshots to (obs.SnapshotSorted), one row per population, empty
// ones included.
func LatencyTable(l *Latencies) string {
	rows := [][]string{{"histogram", "count", "p50", "p90", "p99", "max", "mean"}}
	for _, p := range l.populations() {
		sorted := slices.Clone(p.vals)
		slices.Sort(sorted)
		s := obs.SnapshotSorted(sorted)
		rows = append(rows, []string{p.name,
			fmt.Sprint(s.Count), fmt.Sprint(s.P50), fmt.Sprint(s.P90),
			fmt.Sprint(s.P99), fmt.Sprint(s.Max), fmt.Sprint(s.Mean())})
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
		}
	}
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-*s", widths[0], r[0])
		for i := 1; i < len(r); i++ {
			fmt.Fprintf(&sb, "  %*s", widths[i], r[i])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
