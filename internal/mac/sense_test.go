package mac

import (
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// senseBed is one station under test plus a plain radio that puts
// frames on the air at chosen instants, and a listener that records
// when the station's frames start.
type senseBed struct {
	k      *sim.Kernel
	med    *radio.Medium
	mac    *MAC
	sta    *Station
	other  *radio.Radio
	starts []sim.Time // start instants of the station's frames
}

// t0 is where the tests start countdowns: off the 20 µs grid from zero,
// so boundaries are only ever relative to the wait's own origin.
const t0 = 103 * sim.Microsecond

func newSenseBed(t *testing.T) *senseBed {
	t.Helper()
	k := sim.New(1)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 500, 100)))
	med := radio.NewMedium(k, e)
	b := &senseBed{k: k, med: med, mac: New(med, Config{})}
	b.sta = b.mac.AddStation(med.NewRadio("sta", geo.Pt(0, 0), 6, 15))
	b.other = med.NewRadio("other", geo.Pt(5, 0), 6, 15)
	listener := med.NewRadio("listener", geo.Pt(0, 5), 6, 15)
	listener.OnReceive = func(rc radio.Receipt) {
		if rc.Tx.Src == b.sta.Radio() {
			b.starts = append(b.starts, rc.Tx.Start)
		}
	}
	return b
}

// countdown puts a broadcast frame straight into a backoff countdown of
// n slots at the current instant.
func (b *senseBed) countdown(n int) *txJob {
	job := &txJob{owner: b.sta, frame: Frame{Kind: Data, Src: b.sta.addr, Dst: Broadcast, Bits: 800}, cw: CWMin}
	b.sta.current = job
	b.sta.countdown(job, n)
	return job
}

// airAt puts a long frame (~7 ms) on the air from the plain radio at at.
func (b *senseBed) airAt(at sim.Time) {
	b.k.Schedule(at-b.k.Now(), "test.air", func() {
		if _, err := b.med.Transmit(b.other, 7000, radio.Rates[0], nil); err != nil {
			panic(err)
		}
	})
}

// expectFreeze runs to just before and to at, checking the countdown
// freezes exactly at the boundary at into a deferral whose grid starts
// there, after exactly one check.
func (b *senseBed) expectFreeze(t *testing.T, job *txJob, at sim.Time) {
	t.Helper()
	b.k.RunUntil(at - 1)
	if job.wait != waitCountdown {
		t.Fatalf("countdown left early: wait=%d at %v", job.wait, b.k.Now())
	}
	b.k.RunUntil(at)
	if job.wait != waitIdle || job.origin != at {
		t.Fatalf("at %v: wait=%d origin=%v, want a deferral from %v", at, job.wait, job.origin, at)
	}
	if job.backoffDone.Pending() {
		t.Fatal("frozen countdown left its backoffDone pending")
	}
	if b.mac.CSChecks != 1 || b.mac.CSChecksBusy != 1 {
		t.Fatalf("checks=%d busy=%d, want one busy check", b.mac.CSChecks, b.mac.CSChecksBusy)
	}
}

func TestCountdownTransmitsAtEndWhenIdle(t *testing.T) {
	b := newSenseBed(t)
	b.k.RunUntil(t0)
	steps := b.k.Steps()
	b.countdown(7)
	b.k.Run()
	if len(b.starts) != 1 || b.starts[0] != t0+7*SlotTime {
		t.Fatalf("frame starts %v, want [%v]", b.starts, t0+7*SlotTime)
	}
	if b.mac.CSChecks != 0 {
		t.Fatalf("idle medium cost %d carrier-sense checks", b.mac.CSChecks)
	}
	// backoffDone, the frame's end, and broadcast completion: no
	// per-slot events.
	if n := b.k.Steps() - steps; n != 3 {
		t.Fatalf("countdown of 7 slots ran %d events, want 3", n)
	}
}

func TestCountdownFreezesAtFirstBoundaryAfterDetect(t *testing.T) {
	for _, tc := range []struct {
		name   string
		start  sim.Time // frame start, relative to t0
		freeze sim.Time // expected freeze boundary, relative to t0
	}{
		{"between boundaries", 47 * sim.Microsecond, 80 * sim.Microsecond},
		{"detectable on a boundary", 45 * sim.Microsecond, 60 * sim.Microsecond},
		{"started under 15 µs before the countdown", -5 * sim.Microsecond, 20 * sim.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newSenseBed(t)
			b.airAt(t0 + tc.start)
			b.k.RunUntil(t0)
			if b.med.Busy(b.sta.Radio()) {
				t.Fatal("medium busy at countdown start")
			}
			job := b.countdown(20)
			b.expectFreeze(t, job, t0+tc.freeze)
		})
	}
}

func TestCountdownFreezesOnMove(t *testing.T) {
	for _, mover := range []string{"station", "sender"} {
		t.Run(mover, func(t *testing.T) {
			b := newSenseBed(t)
			b.other.SetPos(geo.Pt(450, 0)) // on the air but far below the CS threshold
			b.airAt(t0 - 100*sim.Microsecond)
			b.k.RunUntil(t0)
			if b.med.Busy(b.sta.Radio()) {
				t.Fatal("far frame already busy")
			}
			job := b.countdown(30)
			b.k.Schedule(33*sim.Microsecond, "test.move", func() {
				if mover == "station" {
					b.sta.Radio().SetPos(geo.Pt(445, 0))
				} else {
					b.other.SetPos(geo.Pt(5, 0))
				}
			})
			b.expectFreeze(t, job, t0+40*sim.Microsecond)
		})
	}
}

func TestCountdownFreezesWhenJamCloses(t *testing.T) {
	b := newSenseBed(t)
	b.med.AddJamDB(80)
	b.airAt(t0 - 100*sim.Microsecond)
	b.k.RunUntil(t0)
	if b.med.Busy(b.sta.Radio()) {
		t.Fatal("jammed frame already busy")
	}
	job := b.countdown(30)
	b.k.Schedule(33*sim.Microsecond, "test.unjam", func() { b.med.AddJamDB(-80) })
	b.expectFreeze(t, job, t0+40*sim.Microsecond)
}

func TestDeferralReleasedByFrameEnd(t *testing.T) {
	b := newSenseBed(t)
	var end sim.Time
	b.k.Schedule(t0-100*sim.Microsecond, "test.air", func() {
		tx, err := b.med.Transmit(b.other, 7000, radio.Rates[0], nil)
		if err != nil {
			panic(err)
		}
		end = tx.End
	})
	b.k.RunUntil(t0)
	job := &txJob{owner: b.sta, frame: Frame{Kind: Data, Src: b.sta.addr, Dst: Broadcast, Bits: 800}, cw: CWMin}
	b.sta.current = job
	b.sta.defer_(job)
	if job.wait != waitIdle || job.origin != t0 {
		t.Fatalf("busy medium: wait=%d origin=%v, want a deferral from %v", job.wait, job.origin, t0)
	}
	release := t0 + (end-t0+SlotTime-1)/SlotTime*SlotTime
	b.k.RunUntil(release - 1)
	if job.wait != waitIdle {
		t.Fatalf("deferral ended before the first idle boundary: wait=%d", job.wait)
	}
	b.k.RunUntil(release)
	if job.wait != waitNone {
		t.Fatalf("deferral still waiting at the first boundary after the frame end (%v)", release)
	}
	// One check for a ~7 ms wait, where slot polling made ~350.
	if b.mac.CSChecks != 1 || b.mac.CSChecksBusy != 0 {
		t.Fatalf("checks=%d busy=%d, want one idle check", b.mac.CSChecks, b.mac.CSChecksBusy)
	}
	b.k.Run()
	if len(b.starts) != 1 || b.starts[0] < release+DIFS {
		t.Fatalf("frame starts %v, want one no earlier than %v", b.starts, release+DIFS)
	}
}

func TestStaleCheckFromEarlierCountdownIgnored(t *testing.T) {
	b := newSenseBed(t)
	b.k.RunUntil(t0)
	job := b.countdown(30)
	// Detectable at t0+17 µs: the first countdown schedules its check
	// for the boundary t0+20 µs.
	b.airAt(t0 + 2*sim.Microsecond)
	b.k.RunUntil(t0 + 5*sim.Microsecond)
	b.sta.stopWait(job)
	b.k.RunUntil(t0 + 10*sim.Microsecond)
	b.sta.countdown(job, 30) // a new grid: t0+30 µs, t0+50 µs, ...
	b.k.RunUntil(t0 + 20*sim.Microsecond)
	if job.wait != waitCountdown || b.mac.CSChecks != 0 {
		t.Fatalf("stale check acted: wait=%d checks=%d", job.wait, b.mac.CSChecks)
	}
	b.expectFreeze(t, job, t0+30*sim.Microsecond)
}
