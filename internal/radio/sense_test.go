package radio

import (
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/sim"
)

// wakeLog records the instants a carrier-sense watcher is woken for.
type wakeLog struct{ ats []sim.Time }

func logWake(a any, at sim.Time) {
	l := a.(*wakeLog)
	l.ats = append(l.ats, at)
}

// take checks the wakes recorded since the last call and resets the log.
func (l *wakeLog) take(t *testing.T, step string, want ...sim.Time) {
	t.Helper()
	if len(l.ats) != len(want) {
		t.Fatalf("%s: wakes %v, want %v", step, l.ats, want)
	}
	for i := range want {
		if l.ats[i] != want[i] {
			t.Fatalf("%s: wakes %v, want %v", step, l.ats, want)
		}
	}
	l.ats = l.ats[:0]
}

// TestSenseRiseEdges covers every rising-edge source a backoff
// countdown relies on: detectability of a hearer's frame, registration
// while a frame is not yet detectable, a move or retune of the watcher
// or of the sender, and a fault window.
func TestSenseRiseEdges(t *testing.T) {
	k, m := newMedium(1)
	w := m.NewRadio("w", geo.Pt(0, 0), 6, 15)
	src := m.NewRadio("src", geo.Pt(5, 0), 6, 15)
	deaf := m.NewRadio("deaf", geo.Pt(5, 5), 1, 15) // 5 channels away: no overlap
	log := &wakeLog{}

	k.RunUntil(100 * sim.Microsecond)
	tx, err := m.Transmit(src, 8000, Rates[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit(deaf, 8000, Rates[3], nil); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(105 * sim.Microsecond)
	m.WatchSense(w, SenseRise, logWake, log)
	log.take(t, "registration with a frame 5 µs old", tx.Start+SensingDelay)

	k.RunUntil(200 * sim.Microsecond)
	tx2, err := m.Transmit(src, 8000, Rates[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	log.take(t, "hearer's frame starts", tx2.Start+SensingDelay)
	if _, err := m.Transmit(deaf, 8000, Rates[3], nil); err != nil {
		t.Fatal(err)
	}
	log.take(t, "non-overlapping channel")

	now := k.Now()
	w.SetPos(geo.Pt(1, 0))
	log.take(t, "watcher moves", now, tx2.Start+SensingDelay)
	src.SetPos(geo.Pt(4, 0))
	// src has two frames in flight; a rising watcher is woken for each
	// from the new position: the first is detectable now, the second
	// not yet.
	log.take(t, "sender moves", now, tx2.Start+SensingDelay)
	w.SetChannel(7)
	log.take(t, "watcher retunes", now, tx2.Start+SensingDelay)
	m.AddJamDB(20)
	log.take(t, "jam opens", now)
	m.AddJamDB(-20)
	log.take(t, "jam closes", now)
	m.AddPartition(1)
	log.take(t, "partition opens", now)

	k.Run()
	log.take(t, "frames end: not a rise")
	m.UnwatchSense(w)
	if _, err := m.Transmit(src, 8000, Rates[3], nil); err != nil {
		t.Fatal(err)
	}
	log.take(t, "after unwatch")
	if m.watching != 0 {
		t.Fatalf("watching = %d after unwatch", m.watching)
	}
}

// TestSenseFallEdges covers the deferral's falling edges: a hearer's
// frame ending, and a detach, after which the radio senses only noise.
func TestSenseFallEdges(t *testing.T) {
	k, m := newMedium(1)
	w := m.NewRadio("w", geo.Pt(0, 0), 6, 15)
	src := m.NewRadio("src", geo.Pt(5, 0), 6, 15)
	far := m.NewRadio("far", geo.Pt(90, 90), 6, 15)
	m.cutoffDBm = -60 // far's frames cannot reach w at all
	log := &wakeLog{}

	tx, err := m.Transmit(src, 8000, Rates[3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit(far, 80, Rates[3], nil); err != nil {
		t.Fatal(err)
	}
	m.WatchSense(w, SenseFall, logWake, log)
	log.take(t, "fall registration is not told about pending rises")
	k.RunUntil(tx.Start + SensingDelay)
	if !m.Busy(w) {
		t.Fatal("medium idle under a 5 m co-channel frame")
	}
	k.RunUntil(tx.End - 1)
	log.take(t, "out-of-range frame ends")
	k.RunUntil(tx.End)
	log.take(t, "hearer's frame ends", tx.End)

	if _, err := m.Transmit(src, 8000, Rates[3], nil); err != nil {
		t.Fatal(err)
	}
	log.take(t, "a new frame is not a fall")
	k.RunFor(SensingDelay)
	if !m.Busy(w) {
		t.Fatal("medium idle under a 5 m co-channel frame")
	}
	m.Detach(w)
	log.take(t, "detach", k.Now())
	if m.Busy(w) || m.EnergyAtDBm(w) != m.env.NoiseFloorDBm() {
		t.Fatalf("detached radio senses %v dBm", m.EnergyAtDBm(w))
	}
}

// TestSenseSkippedPollsReadTheSame is the property the edges rest on.
// The watcher alternates as a MAC does: while its last slot poll read
// idle it watches rises, while it read busy it watches falls. A poll
// may only read differently from the last one if the watcher was woken
// for an instant at or before it. Radios transmit at random from random
// spots, move and retune, and so does the watcher, at random instants; every 20 µs the test polls the watcher's carrier sense.
func TestSenseSkippedPollsReadTheSame(t *testing.T) {
	k := sim.New(7)
	// A receive cutoff gives frames a finite hearing range, so who
	// hears a frame depends on position as well as channel.
	m := NewMedium(k, env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100))), WithRxCutoffDBm(-70))
	rng := k.Rand()
	w := m.NewRadio("w", geo.Pt(50, 50), 6, 15)
	var radios []*Radio
	for i := 0; i < 12; i++ {
		radios = append(radios, m.NewRadio("r", geo.Pt(rng.Float64()*100, rng.Float64()*100), 3+rng.Intn(7), 15))
	}
	log := &wakeLog{}
	busy := m.Busy(w)
	watch := func() {
		edges := SenseRise
		if busy {
			edges = SenseFall
		}
		m.WatchSense(w, edges, logWake, log)
	}
	watch()
	var pending []sim.Time // wakes not yet covered by a poll
	flips := [2]int{}
	const poll = 20 * sim.Microsecond
	for step := 1; step <= 20000; step++ {
		now := sim.Time(step) * poll
		// Mutate at a random instant inside the window, so moves land
		// within the sensing delay of a frame start too.
		k.RunUntil(now - poll + sim.Time(rng.Int63n(int64(poll))))
		switch r := radios[rng.Intn(len(radios))]; rng.Intn(8) {
		case 0:
			_, _ = m.Transmit(r, 200+rng.Intn(4000), Rates[rng.Intn(len(Rates))], nil)
		case 1, 2:
			r.SetPos(geo.Pt(rng.Float64()*100, rng.Float64()*100))
		case 3:
			r.SetChannel(1 + rng.Intn(11))
		case 4, 5:
			w.SetPos(geo.Pt(rng.Float64()*100, rng.Float64()*100))
		case 6:
			w.SetChannel(4 + rng.Intn(5))
		}
		k.RunUntil(now)
		pending = append(pending, log.ats...)
		log.ats = log.ats[:0]
		covered := false
		kept := pending[:0]
		for _, at := range pending {
			if at <= now {
				covered = true
			} else {
				kept = append(kept, at)
			}
		}
		pending = kept
		if b := m.Busy(w); b != busy {
			if !covered {
				t.Fatalf("poll at %v reads busy=%v with no wake at or before it", now, b)
			}
			busy = b
			if b {
				flips[0]++
			} else {
				flips[1]++
			}
			pending = pending[:0]
			watch()
		}
	}
	if flips[0] < 20 || flips[1] < 20 {
		t.Fatalf("workload flipped carrier sense %v times (to busy, to idle); the check is too weak", flips)
	}
}
