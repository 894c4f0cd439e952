package offrt

import (
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Recovery tunes the failure-recovery layer: how loss is detected
// (deadlines), how hard the runtime retries (bounded exponential backoff)
// and how long the gate is quarantined after an abandoned offload.
//
// The wire RPCs are all idempotent — page fetches and remote reads return
// the same bytes on retransmission, remote output is journaled and only
// committed once at finalization — so blind retransmission is safe.
type Recovery struct {
	// MaxRetries bounds retransmissions per RPC beyond the first attempt.
	MaxRetries int
	// BackoffBase is the wait before the first retry; retry i waits
	// BackoffBase << i (exponential).
	BackoffBase simtime.PS
	// DeadlineSlack multiplies the predicted transfer time into the
	// per-RPC loss-detection deadline (Section 5.1's estimator already
	// predicts transfer time from live bandwidth; the deadline reuses it).
	DeadlineSlack float64
	// DeadlineFloor is the minimum deadline, covering RTT jitter on links
	// fast enough that the predicted transfer time alone is tiny.
	DeadlineFloor simtime.PS
	// Cooldown quarantines the gate after an abandoned offload: every
	// gate decision inside the window declines, so a flapping link does
	// not trap the program in repeated offload-abort-fallback cycles.
	Cooldown simtime.PS
}

// DefaultRecovery is the recovery policy sessions start from.
func DefaultRecovery() Recovery {
	return Recovery{
		MaxRetries:    3,
		BackoffBase:   2 * simtime.Millisecond,
		DeadlineSlack: 3,
		DeadlineFloor: 5 * simtime.Millisecond,
		Cooldown:      2 * simtime.Second,
	}
}

// deadline turns a predicted duration into how long its sender waits for
// evidence before giving up: the prediction scaled by DeadlineSlack and
// floored. A wire RPC predicts its transfer time over the current link
// regime (the wait before retransmitting); a whole offloaded task predicts
// server execution plus communication (see offloadDeadline).
func (s *Session) deadline(predicted simtime.PS) simtime.PS {
	d := simtime.PS(s.rec.DeadlineSlack * float64(predicted))
	if d < s.rec.DeadlineFloor {
		d = s.rec.DeadlineFloor
	}
	return d
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
			s.hRPC.Record(int64(elapsed + d))
			return elapsed + d, true
		case netsim.Dropped:
			// Nothing arrives; the sender learns only from the deadline.
			elapsed += s.deadline(link.TransferTime(size))
		case netsim.Corrupted:
			// The frame crosses the wire, then fails its CRC32 check at
			// the receiver, which requests retransmission.
			elapsed += d
		}
		if attempt >= s.rec.MaxRetries {
			return elapsed, false
		}
		backoff := s.rec.BackoffBase << attempt
		elapsed += backoff
		s.hBackoff.Record(int64(backoff))
		s.Stats.Retries++
		s.emit(obs.Event{Time: at + elapsed, Kind: obs.KRetry, Track: obs.TrackLink,
			Name: op, A0: int64(attempt + 1), A1: int64(backoff)})
	}
}
