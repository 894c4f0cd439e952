package netsim

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simtime"
)

func TestTransferTimeScalesWithSize(t *testing.T) {
	l := Slow80211N()
	small := l.TransferTime(1000)
	big := l.TransferTime(1_000_000)
	if big <= small {
		t.Error("larger transfers should take longer")
	}
	// 1 MB at 110 Mbps is ~72.7 ms of wire time plus fixed costs.
	wire := big - l.Latency - l.PerMessage
	wantSec := 8.0 * 1e6 / 110e6
	if got := wire.Seconds(); got < wantSec*0.99 || got > wantSec*1.01 {
		t.Errorf("wire time = %.4fs, want ~%.4fs", got, wantSec)
	}
}

func TestFastLinkBeatsSlowLink(t *testing.T) {
	size := int64(10 << 20)
	if Fast80211AC().TransferTime(size) >= Slow80211N().TransferTime(size) {
		t.Error("802.11ac should transfer faster than 802.11n")
	}
}

func TestIdealLinkIsFree(t *testing.T) {
	if Ideal().TransferTime(1<<30) != 0 {
		t.Error("ideal link must cost nothing")
	}
}

func TestScaledPreservesRatios(t *testing.T) {
	l := Slow80211N()
	s := l.Scaled(64)
	// size/64 over bandwidth/64 == size over bandwidth (up to fixed costs).
	full := l.TransferTime(64<<20) - l.Latency - l.PerMessage
	scaled := s.TransferTime(1<<20) - s.Latency - s.PerMessage
	diff := full - scaled
	if diff < 0 {
		diff = -diff
	}
	if diff > simtime.Microsecond {
		t.Errorf("scaling broke time equivalence: %v vs %v", full, scaled)
	}
	if l.BandwidthBps != 110_000_000 {
		t.Error("Scaled mutated the original link")
	}
}

func TestStatsAccounting(t *testing.T) {
	var st LinkStats
	l := Fast80211AC()
	d1, v1 := st.TrySend(l, true, 5000, 0)
	d2, v2 := st.TrySend(l, false, 7000, d1)
	if v1 != Delivered || v2 != Delivered {
		t.Errorf("verdicts without an injector = %v/%v, want delivered", v1, v2)
	}
	if st.MsgsToServer != 1 || st.MsgsToMobile != 1 {
		t.Errorf("message counts = %d/%d, want 1/1", st.MsgsToServer, st.MsgsToMobile)
	}
	if st.BytesToServer != 5000 || st.BytesToMobile != 7000 {
		t.Errorf("byte counts = %d/%d", st.BytesToServer, st.BytesToMobile)
	}
	if st.TotalBytes() != 12000 {
		t.Errorf("TotalBytes = %d, want 12000", st.TotalBytes())
	}
	if st.CommTimeMobile != d1+d2 {
		t.Error("CommTimeMobile should accumulate both transfers")
	}
}

func TestSimtimeUnits(t *testing.T) {
	if simtime.FromSeconds(1.5) != simtime.PS(1500)*simtime.Millisecond {
		t.Error("FromSeconds inconsistent")
	}
	if simtime.Max(3, 5) != 5 || simtime.Max(5, 3) != 5 {
		t.Error("Max wrong")
	}
	if (2 * simtime.Second).String() != "2.000s" {
		t.Errorf("String() = %q", (2 * simtime.Second).String())
	}
}

func TestTimeVaryingLink(t *testing.T) {
	l := Fast80211AC()
	if err := l.SetPhases(
		Phase{Until: simtime.Second, BandwidthBps: 650_000_000},
		Phase{Until: 2 * simtime.Second, BandwidthBps: 1_000_000},
		Phase{Until: 1 << 62, BandwidthBps: 650_000_000},
	); err != nil {
		t.Fatal(err)
	}
	if got := l.At(0).BandwidthBps; got != 650_000_000 {
		t.Errorf("phase 1 bandwidth = %d", got)
	}
	if got := l.At(1500 * simtime.Millisecond).BandwidthBps; got != 1_000_000 {
		t.Errorf("phase 2 bandwidth = %d", got)
	}
	if got := l.At(5 * simtime.Second).BandwidthBps; got != 650_000_000 {
		t.Errorf("phase 3 bandwidth = %d", got)
	}
	// Latency and per-message costs carry over; the resolved link is flat.
	eff := l.At(1500 * simtime.Millisecond)
	if eff.Latency != l.Latency || eff.PerMessage != l.PerMessage || len(eff.Phases) != 0 {
		t.Error("resolved link should inherit fixed costs and be phase-free")
	}
	// A phase-free link resolves to itself.
	flat := Slow80211N()
	if flat.At(simtime.Second) != flat {
		t.Error("flat link should resolve to itself")
	}
}

func TestSetPhasesRejectsUnsortedSchedule(t *testing.T) {
	l := Fast80211AC()
	err := l.SetPhases(
		Phase{Until: 2 * simtime.Second, BandwidthBps: 1_000_000},
		Phase{Until: simtime.Second, BandwidthBps: 650_000_000},
	)
	if err == nil {
		t.Fatal("unsorted phases must be rejected at construction")
	}
	if verr := l.ValidatePhases(); verr == nil {
		t.Error("ValidatePhases should agree with SetPhases")
	}

	dup := Fast80211AC()
	if err := dup.SetPhases(
		Phase{Until: simtime.Second, BandwidthBps: 1},
		Phase{Until: simtime.Second, BandwidthBps: 2},
	); err == nil {
		t.Error("duplicate Until instants must be rejected")
	}

	neg := Fast80211AC()
	if err := neg.SetPhases(Phase{Until: simtime.Second, BandwidthBps: -5}); err == nil {
		t.Error("negative bandwidth must be rejected")
	}

	ok := Fast80211AC()
	if err := ok.SetPhases(
		Phase{Until: simtime.Second, BandwidthBps: 1_000_000},
		Phase{Until: 2 * simtime.Second, BandwidthBps: 2_000_000},
	); err != nil {
		t.Errorf("sorted phases rejected: %v", err)
	}
}

func TestPhaseAt(t *testing.T) {
	flat := Slow80211N()
	if idx, bw := flat.PhaseAt(simtime.Second); idx != -1 || bw != flat.BandwidthBps {
		t.Errorf("flat link PhaseAt = (%d, %d)", idx, bw)
	}
	l := Fast80211AC()
	if err := l.SetPhases(
		Phase{Until: simtime.Second, BandwidthBps: 100},
		Phase{Until: 2 * simtime.Second, BandwidthBps: 200},
	); err != nil {
		t.Fatal(err)
	}
	if idx, bw := l.PhaseAt(0); idx != 0 || bw != 100 {
		t.Errorf("PhaseAt(0) = (%d, %d), want (0, 100)", idx, bw)
	}
	if idx, bw := l.PhaseAt(3 * simtime.Second); idx != 1 || bw != 200 {
		t.Errorf("PhaseAt(3s) = (%d, %d), want (1, 200) — last phase applies forever", idx, bw)
	}
}

func TestTrySendFaults(t *testing.T) {
	l := Fast80211AC()
	tr := obs.NewTracer(0)

	// No injector: verdict always Delivered, behavior identical to Send.
	clean := &LinkStats{Tracer: tr}
	d1, v := clean.TrySend(l, true, 4096, 0)
	if v != Delivered || d1 != l.TransferTime(4096) {
		t.Fatalf("injector-free TrySend = (%v, %v)", d1, v)
	}

	// Outage window: deterministic drops, still accounted as traffic.
	st := &LinkStats{Tracer: obs.NewTracer(0), Injector: faults.MustInjector(faults.Plan{
		Outages: []faults.Window{{Start: 0, End: simtime.Second}},
	})}
	_, v = st.TrySend(l, true, 4096, simtime.Millisecond)
	if v != Dropped {
		t.Fatalf("in-outage verdict = %v, want Dropped", v)
	}
	if st.MsgsToServer != 1 || st.BytesToServer != 4096 {
		t.Fatalf("lost message not accounted: %+v", st)
	}
	if _, v = st.TrySend(l, false, 64, 2*simtime.Second); v != Delivered {
		t.Fatalf("post-outage verdict = %v, want Delivered", v)
	}
	var faultEvents int
	for _, ev := range st.Tracer.Events() {
		if ev.Kind == obs.KFault {
			faultEvents++
			if ev.Name != "outage" {
				t.Fatalf("fault event name = %q", ev.Name)
			}
		}
	}
	if faultEvents != 1 {
		t.Fatalf("fault events = %d, want 1", faultEvents)
	}

	// Latency spike: delivered, slower than the clean transfer.
	sp := &LinkStats{Injector: faults.MustInjector(faults.Plan{Seed: 9, DelayRate: 1, MaxDelay: simtime.Millisecond})}
	d2, v := sp.TrySend(l, true, 4096, 0)
	if v != Delivered || d2 <= l.TransferTime(4096) {
		t.Fatalf("spiked TrySend = (%v, %v), want Delivered and > %v", d2, v, l.TransferTime(4096))
	}

	// Corruption: delivered-but-bad, full transfer time consumed.
	co := &LinkStats{Injector: faults.MustInjector(faults.Plan{CorruptRate: 1})}
	d3, v := co.TrySend(l, true, 4096, 0)
	if v != Corrupted || d3 != l.TransferTime(4096) {
		t.Fatalf("corrupted TrySend = (%v, %v)", d3, v)
	}
}

func TestProfilePresets(t *testing.T) {
	cases := []struct {
		name    string
		wantBps int64
		wantLat simtime.PS
		wantMsg simtime.PS
	}{
		{"slow", 110_000_000, 2 * simtime.Millisecond, 120 * simtime.Microsecond},
		{"fast", 650_000_000, 1 * simtime.Millisecond, 60 * simtime.Microsecond},
		{"lte", 35_000_000, 25 * simtime.Millisecond, 300 * simtime.Microsecond},
		{"ideal", 0, 0, 0},
		{"backhaul", 10_000_000_000, 50 * simtime.Microsecond, 5 * simtime.Microsecond},
		{"edge-wifi", 500_000_000, 500 * simtime.Microsecond, 40 * simtime.Microsecond},
		{"cloud-wan", 1_000_000_000, 40 * simtime.Millisecond, 20 * simtime.Microsecond},
	}
	if got, want := len(cases), len(Profiles()); got != want {
		t.Errorf("preset table covers %d profiles, registry has %d (%v)", got, want, Profiles())
	}
	for _, c := range cases {
		l, err := Profile(c.name)
		if err != nil {
			t.Fatalf("Profile(%q): %v", c.name, err)
		}
		if l.BandwidthBps != c.wantBps || l.Latency != c.wantLat || l.PerMessage != c.wantMsg {
			t.Errorf("Profile(%q) = {bw %d, lat %v, msg %v}, want {bw %d, lat %v, msg %v}",
				c.name, l.BandwidthBps, l.Latency, l.PerMessage, c.wantBps, c.wantLat, c.wantMsg)
		}
		// Each call must hand out an independent link.
		l.BandwidthBps = 1
		again, _ := Profile(c.name)
		if c.name != "ideal" && again.BandwidthBps == 1 {
			t.Errorf("Profile(%q) returns a shared link", c.name)
		}
	}
	if _, err := Profile("carrier-pigeon"); err == nil {
		t.Error("unknown profile accepted")
	} else {
		// The resolver's error must enumerate every known profile, so a
		// typo'd CLI flag tells the user what is actually available.
		for _, name := range Profiles() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("Profile error %q does not mention preset %q", err, name)
			}
		}
	}
}
