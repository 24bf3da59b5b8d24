package radio

import "aroma/internal/sim"

// Carrier-sense edges.
//
// The energy a radio senses (energyAtMW) is a fixed Seq-ordered sum of
// non-negative terms, one per detectable in-flight transmission, plus
// the noise floor. Between the mutations listed below that sum cannot
// change at all except by losing terms, and dropping non-negative terms
// from a fixed-order float64 sum never increases it. So a MAC that last
// saw the medium idle cannot see it busy before the next *rising* edge,
// and one that last saw it busy cannot see it idle before the next
// *falling* edge. The medium pushes those edges to registered watchers,
// which lets the MAC sleep through a backoff countdown or a deferral
// instead of re-summing the energy once per slot.
//
// Edges, and which watchers they reach:
//
//   - a transmission becomes detectable at Start+SensingDelay: rising,
//     for every watcher within its hearing range and channel overlap;
//     reported from Transmit with that future instant;
//   - a transmission ends (finish): falling, for the same hearers;
//   - the watcher moves or retunes: both, at once, and rising watchers
//     are re-told about frames that are not yet detectable;
//   - the sender of an in-flight frame moves or retunes: falling for
//     the hearers at the old position or channel, rising for those at
//     the new one;
//   - a jam or partition window opens or closes, or the watcher's radio
//     is detached: both, for every watcher.
//
// Inputs the medium cannot observe are outside the contract: the
// environment's ambient noise, a radio's CSThresholdDBm, and the
// TxPowerDBm of a radio with a frame in flight are read live by Busy
// but are build-time constants for every MAC-driven world. Change them
// only while no watcher is registered.

// SenseEdges selects which carrier-sense edges a watcher is woken for.
type SenseEdges uint8

// Edge kinds.
const (
	// SenseRise wakes the watcher when its sensed energy can rise: a
	// backoff countdown, which must freeze on the first busy slot.
	SenseRise SenseEdges = 1 << iota
	// SenseFall wakes the watcher when its sensed energy can fall: a
	// deferral, which waits for the first idle slot.
	SenseFall
)

// senseWatch is one radio's carrier-sense registration.
type senseWatch struct {
	edges SenseEdges
	fn    func(arg any, at sim.Time)
	arg   any
}

// WatchSense registers fn to be told about r's carrier-sense edges of
// the given kinds, replacing any earlier registration on r. fn(arg, at)
// says that r's sensed energy may change from instant at on (never
// earlier than the current time for edges that have already happened;
// a transmission that is not yet detectable reports the future instant
// at which it becomes so). fn runs synchronously inside the mutating
// call and must only schedule kernel events: it must not transmit,
// move, retune, or (un)register watchers. Like ScheduleFn, fn should be
// a package-level function with a pointer arg so registration allocates
// nothing.
//
// A SenseRise registration is immediately told about every in-flight
// transmission r can hear that is not detectable yet: those are the
// rises a caller that just saw the medium idle cannot have seen.
func (m *Medium) WatchSense(r *Radio, edges SenseEdges, fn func(arg any, at sim.Time), arg any) {
	if r.sense.edges == 0 {
		m.watching++
	}
	r.sense = senseWatch{edges: edges, fn: fn, arg: arg}
	if edges&SenseRise != 0 {
		m.wakePendingRises(r)
	}
}

// UnwatchSense drops r's carrier-sense registration, if any.
func (m *Medium) UnwatchSense(r *Radio) {
	if r.sense.edges != 0 {
		m.watching--
	}
	r.sense = senseWatch{}
}

// wakeHearers wakes every watcher in hearers (a candidate set of src)
// that is registered for one of edges and can hear src: spectrally
// overlapping and within range2 — the exact filter energyAtMW applies.
// hearers is ID-ascending, so wakes fire in a deterministic order.
func (m *Medium) wakeHearers(src *Radio, hearers []*Radio, range2 float64, edges SenseEdges, at sim.Time) {
	for _, rx := range hearers {
		if rx.sense.edges&edges == 0 || ChannelOverlap(src.Channel, rx.Channel) == 0 || distSq(src.Pos, rx.Pos) > range2 {
			continue
		}
		rx.sense.fn(rx.sense.arg, at)
	}
}

// wakeAirborne wakes the watchers registered for edges that hear src's
// in-flight frames from its current position and channel. A moving or
// retuning sender calls it for falls before the change — every watcher
// whose energy can drop heard the frame there — and for rises after it.
// A frame that is not detectable yet reports the instant it becomes so.
func (m *Medium) wakeAirborne(src *Radio, edges SenseEdges) {
	now := m.kernel.Now()
	hearers := m.candidatesFor(src)
	for _, tx := range m.active {
		if tx.Src != src {
			continue
		}
		at := tx.Start + SensingDelay
		if at < now {
			at = now
		}
		m.wakeHearers(src, hearers, tx.range2, edges, at)
	}
}

// wakeWatcher wakes r's own watcher after r moved or retuned: its whole
// energy sum may differ now, and a rising watcher must be re-told about
// frames that were out of its reach at the old position or channel.
func (m *Medium) wakeWatcher(r *Radio) {
	if r.sense.edges == 0 {
		return
	}
	r.sense.fn(r.sense.arg, m.kernel.Now())
	if r.sense.edges&SenseRise != 0 {
		m.wakePendingRises(r)
	}
}

// wakePendingRises tells r's watcher about every in-flight frame it can
// hear that is not detectable yet.
func (m *Medium) wakePendingRises(r *Radio) {
	now := m.kernel.Now()
	for _, tx := range m.active {
		if tx.Src == r || now-tx.Start >= SensingDelay {
			continue
		}
		if ChannelOverlap(tx.Src.Channel, r.Channel) == 0 || distSq(tx.Src.Pos, r.Pos) > tx.range2 {
			continue
		}
		r.sense.fn(r.sense.arg, tx.Start+SensingDelay)
	}
}

// wakeAll wakes every attached watcher, in ID order: a fault window
// changed every link gain at once.
func (m *Medium) wakeAll() {
	if m.watching == 0 {
		return
	}
	now := m.kernel.Now()
	for _, r := range m.ordered {
		if r.sense.edges != 0 {
			r.sense.fn(r.sense.arg, now)
		}
	}
}
