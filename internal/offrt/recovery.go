package offrt

import (
	"repro/internal/estimate"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// The failure-recovery policy: how loss is detected (deadlines, the
// estimator's prediction scaled by estimate.DeadlineSlack), how hard the
// runtime retries (bounded exponential backoff) and how long the gate is
// quarantined after an abandoned offload.
//
// The wire RPCs are all idempotent — page fetches and remote reads return
// the same bytes on retransmission, remote output is journaled and only
// committed once at finalization — so blind retransmission is safe.
const (
	// maxRetries bounds retransmissions per RPC beyond the first attempt.
	maxRetries = 3
	// backoffBase is the wait before the first retry; retry i waits
	// backoffBase << i (exponential).
	backoffBase = 2 * simtime.Millisecond
	// deadlineFloor is the minimum deadline, covering RTT jitter on links
	// fast enough that the predicted transfer time alone is tiny.
	deadlineFloor = 5 * simtime.Millisecond
	// quarantineCooldown quarantines the gate after an abandoned offload:
	// every gate decision inside the window declines, so a flapping link
	// does not trap the program in repeated offload-abort-fallback cycles.
	quarantineCooldown = 2 * simtime.Second
)

// deadline turns a predicted duration into how long its sender waits for
// evidence before giving up: the prediction scaled by
// estimate.DeadlineSlack and floored. A wire RPC predicts its transfer time
// over the current link regime (the wait before retransmitting); a whole
// offloaded task predicts server execution plus communication (see
// offloadDeadline).
func deadline(predicted simtime.PS) simtime.PS {
	return max(simtime.PS(estimate.DeadlineSlack*float64(predicted)), deadlineFloor)
}

// sendReliable pushes one wire message with deadline-based loss detection
// and bounded retransmission with exponential backoff. It returns the
// total elapsed simulated time — transfer attempts, expired deadlines and
// backoff waits — and whether the message was delivered; false is terminal:
// the retry budget is spent and the link is down as far as op can tell.
// Without a fault injector it reduces to exactly one delivered transfer.
func (s *Session) sendReliable(toServer bool, size int64, at simtime.PS, op string) (simtime.PS, bool) {
	var elapsed simtime.PS
	for attempt := 0; ; attempt++ {
		now := at + elapsed
		link := s.linkAt(now)
		d, verdict := s.LinkStats.TrySend(link, toServer, size, now)
		switch verdict {
		case netsim.Delivered:
			return elapsed + d, true
		case netsim.Dropped:
			// Nothing arrives; the sender learns only from the deadline.
			elapsed += deadline(link.TransferTime(size))
		case netsim.Corrupted:
			// The frame crosses the wire, then fails its CRC32 check at
			// the receiver, which requests retransmission.
			elapsed += d
		}
		if attempt >= maxRetries {
			return elapsed, false
		}
		backoff := backoffBase << attempt
		elapsed += backoff
		s.Stats.Retries++
		s.emit(obs.Event{Time: at + elapsed, Kind: obs.KRetry, Track: obs.TrackLink,
			Name: op, A0: int64(attempt + 1), A1: int64(backoff)})
	}
}
