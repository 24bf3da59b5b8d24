// Space-parallel ("sharded") execution of the medium's per-event
// fan-out.
//
// # The conservative-lookahead contract
//
// The arena is partitioned once into rectangular regions
// (geo.RegionMap) whose tile edge is at least the maximum hearing range
// env.MaxRangeForCutoff(maxTxPower, rxCutoff). With that sizing, a
// receive cutoff bounds cross-region influence: an emission inside one
// region is below the cutoff everywhere beyond its own tile and the
// one-ring of neighbours, so region-local state (members, border sets,
// ledger pools, the kernel lane carrying the region's txEnd events)
// captures everything a region's worker needs, and radios whose
// hearing circle crosses their tile boundary form the region's
// explicit border set. Without a cutoff the hearing radius is
// unbounded: every radio is border, the arena collapses to a single
// region, and SetShards falls back to sequential execution (documented,
// never an error).
//
// # Why digests are bit-identical
//
// The parallel mode splits every delivery and interference fan-out into
// two halves:
//
//   - evaluate (parallel): workers compute, for the receivers of the
//     regions they own, the exact values the sequential code would
//     compute — per-pair link gains, SINR, decode outcomes, per-receiver
//     interference accumulation. Each receiver is owned by exactly one
//     worker (its region, modulo the worker count), every shared-growth
//     site (gain-cache rows, ledger cells, the outcome buffer) is
//     pre-sized by the coordinator before the phase, and per-cell
//     floating-point accumulation order is the sequential order (the
//     in-flight transmission list is walked in ascending Seq by the one
//     worker that owns the cell's receiver).
//   - commit (sequential): the coordinator walks receivers in ascending
//     radio-ID order — the exact order of the sequential kernel — and
//     fires receipts, bumps Delivered/Lost, and consumes RNG/trace
//     exactly as the sequential code path does. Cross-region deliveries
//     therefore merge in ascending radio-ID/Seq order at the
//     phase barrier by construction.
//
// A callback fired during a commit can mutate the world (move a radio,
// retune it, detach it); the coordinator detects that through the
// medium's physGen mutation counter and recomputes the remaining
// receivers inline — sequential semantics, always. Shadow fading
// (env.ShadowSigmaDB > 0) draws from the kernel RNG lazily inside the
// gain computation, which cannot run concurrently without reordering
// the stream, so those worlds always evaluate sequentially too.
//
// # Checkpoint state
//
// Shard configuration and region/worker layout are deliberately absent
// from Medium.ExportState: sharding is a pure execution strategy, like
// the kernel's heap shape or the free-list order, and a sharded world
// must export byte-identical state to the sequential world it mirrors
// (the PR 6 restore proof depends on it). ShardLayout exposes the
// layout for diagnostics and tests instead.
package radio

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"aroma/internal/geo"
)

// shardMinFanout is the smallest receiver fan-out worth a phase
// barrier: below it the dispatch overhead dominates the parallel win
// and the coordinator just runs the sequential loop.
const shardMinFanout = 16

// WithShards enables the conservative sharded execution mode with n
// workers at construction time. n < 2, an arena too small to hold two
// regions at the cutoff-derived minimum tile edge, or a disabled
// receive cutoff all fall back to sequential execution — documented
// behavior, never a mid-run error. Equivalent to calling SetShards(n)
// on the built medium.
func WithShards(n int) MediumOption {
	return func(m *Medium) { m.pendingShards = n }
}

// rxOutcome is one receiver's precomputed delivery outcome from the
// parallel evaluate phase. eval is false when the sequential code would
// have skipped the receiver before the SINR computation (zero spectral
// overlap).
type rxOutcome struct {
	rssi float64
	sinr float64
	ok   bool
	eval bool
}

// mediumRegion is the region-local slice of medium state: the radios
// whose position falls in the region's tile (members, ID-ascending),
// the subset whose hearing circle crosses the tile boundary (border,
// ID-ascending), and the region's interference-ledger pool.
// Transmissions sourced in the region draw ledgers from — and return
// them to — the region's own pool, so a region's PHY bookkeeping stays
// in memory its worker owns.
type mediumRegion struct {
	id         int
	members    []*Radio
	border     []*Radio
	ledgerFree []*ledger
}

// shardState is the medium's sharded-execution configuration. It is
// runtime-only: none of it appears in ExportState (see the package
// comment on checkpoint state).
type shardState struct {
	want        int  // requested worker count (>= 2)
	layoutPower float64
	layoutStale bool // a louder radio attached: partition must be resized
	rm          *geo.RegionMap
	regions     []*mediumRegion
	runner      *shardRunner

	// outcomes and cands are coordinator-owned phase scratch, reused
	// across events so the steady-state hot path allocates nothing.
	outcomes []rxOutcome
	cands    [][]*Radio

	// scramble reverses the sequential commit order. Test-only fault
	// injection: it exists so the determinism suite can prove it
	// detects a broken merge order (see ScrambleShardCommit).
	scramble bool
}

// phase is one parallel evaluation, described by the coordinator and
// read by every worker between a start signal and the barrier. The
// coordinator clears it after the barrier so idle workers never pin
// the world.
type phase struct {
	kind      int8
	m         *Medium
	tx        *Transmission
	receivers []*Radio
	outcomes  []rxOutcome
	noiseMW   float64
	active    []*Transmission
	hearers   []*Radio
	cands     [][]*Radio
}

const (
	phaseNone int8 = iota
	phaseDeliver
	phaseInterfere
)

// shardRunner owns the worker pool. Workers hold only the runner —
// never the Medium — so a world that becomes unreachable is collected
// normally and its finalizer stops the pool; StopShards stops it
// eagerly. Worker 0 is the coordinator itself: dispatch signals the
// n-1 spawned workers, executes the coordinator's own share, then
// waits on the barrier.
type shardRunner struct {
	workers int
	start   []chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
	ph      phase
	stopped bool
}

func newShardRunner(workers int) *shardRunner {
	sr := &shardRunner{
		workers: workers,
		start:   make([]chan struct{}, workers-1),
		quit:    make(chan struct{}),
	}
	for i := range sr.start {
		sr.start[i] = make(chan struct{}, 1)
	}
	sr.startWorkers()
	return sr
}

// startWorkers is the audited worker-pool spawn site (goroutineguard
// allowlist). The goroutines it spawns are phase executors: they sleep
// on their start channel, run one evaluate phase against the shared
// phase descriptor, and hit the barrier. Between phases they reference
// no simulator state, and the world's single-threaded contract holds
// because the coordinator blocks on the barrier for the whole lifetime
// of every phase: at no instant do two goroutines touch the medium
// without a happens-before edge between them.
func (sr *shardRunner) startWorkers() {
	for i := range sr.start {
		go sr.loop(i + 1)
	}
}

// loop is one worker: wait, evaluate, barrier, repeat until quit.
func (sr *shardRunner) loop(w int) {
	for {
		select {
		case <-sr.quit:
			return
		case <-sr.start[w-1]:
			sr.ph.exec(w, sr.workers)
			sr.wg.Done()
		}
	}
}

// dispatch runs the prepared phase across every worker and blocks
// until all of them (including the coordinator's own share) are done.
func (sr *shardRunner) dispatch() {
	sr.wg.Add(len(sr.start))
	for _, c := range sr.start {
		c <- struct{}{}
	}
	sr.ph.exec(0, sr.workers)
	sr.wg.Wait()
}

// stop terminates the worker pool. Idempotent.
func (sr *shardRunner) stop() {
	if !sr.stopped {
		sr.stopped = true
		close(sr.quit)
	}
}

// exec runs worker w's share of the phase: the receivers of every
// region r with r mod workers == w.
func (ph *phase) exec(w, workers int) {
	switch ph.kind {
	case phaseDeliver:
		ph.evalDeliver(w, workers)
	case phaseInterfere:
		ph.evalInterfere(w, workers)
	}
}

// evalDeliver computes delivery outcomes for worker w's receivers —
// exactly the values the sequential loop in finish computes, in the
// same per-receiver operation order.
func (ph *phase) evalDeliver(w, workers int) {
	m, tx := ph.m, ph.tx
	for i, rx := range ph.receivers {
		if int(rx.region)%workers != w {
			continue
		}
		o := &ph.outcomes[i]
		ov := ChannelOverlap(tx.Src.Channel, rx.Channel)
		if ov == 0 {
			o.eval = false
			continue
		}
		mw, rssi := m.linkGain(tx.Src, rx)
		sigMW := mw * ov
		sinr := 10 * math.Log10(sigMW/(ph.noiseMW+tx.led.at(rx.ID)))
		o.rssi, o.sinr, o.ok, o.eval = rssi, sinr, sinr >= tx.Rate.MinSINRdB, true
	}
}

// evalInterfere records mutual interference between the new
// transmission and every in-flight one, partitioned by receiver
// region. For a fixed receiver every contribution is accumulated by
// the one worker owning its region, walking the active list in
// ascending Seq — the sequential accumulation order — so each ledger
// cell's floating-point sum is bit-identical to the sequential pass.
func (ph *phase) evalInterfere(w, workers int) {
	m, tx := ph.m, ph.tx
	for oi, other := range ph.active {
		// other interferes with tx's receivers.
		for _, rx := range ph.cands[oi] {
			if int(rx.region)%workers != w {
				continue
			}
			if rx.ID == tx.Src.ID {
				continue
			}
			ov := ChannelOverlap(other.Src.Channel, rx.Channel)
			if ov == 0 {
				continue
			}
			if distSq(other.Src.Pos, rx.Pos) > other.range2 {
				continue
			}
			mw, _ := m.linkGain(other.Src, rx)
			tx.led.add(rx.ID, mw*ov)
		}
		// tx interferes with other's receivers.
		for _, rx := range ph.hearers {
			if int(rx.region)%workers != w {
				continue
			}
			if rx.ID == other.Src.ID {
				continue
			}
			ov := ChannelOverlap(tx.Src.Channel, rx.Channel)
			if ov == 0 {
				continue
			}
			if distSq(tx.Src.Pos, rx.Pos) > tx.range2 {
				continue
			}
			mw, _ := m.linkGain(tx.Src, rx)
			other.led.add(rx.ID, mw*ov)
		}
	}
}

// SetShards configures the conservative sharded execution mode with n
// workers, replacing any previous configuration. It returns the
// effective worker count: n when sharding engaged, or 1 for the
// documented sequential fallbacks — n < 2, no receive cutoff (the
// hearing radius is unbounded, so no finite tile satisfies the
// lookahead contract), or an arena too small to hold at least two
// tiles of the minimum edge. The fallback is a configuration-time
// decision; a sharded run never degrades into an error mid-run.
func (m *Medium) SetShards(n int) int {
	m.StopShards()
	if n < 2 {
		m.shardFallbackReason = "shards < 2"
		return 1
	}
	if !m.cutoffEnabled() {
		m.shardFallbackReason = "no receive cutoff"
		return 1
	}
	m.shard = &shardState{want: n}
	m.rebuildShardLayout()
	if m.shard.rm.Regions() < 2 {
		m.shard = nil
		m.shardFallbackReason = "arena smaller than two regions"
		return 1
	}
	m.shardFallbackReason = ""
	m.shard.runner = newShardRunner(n)
	// Backstop for worlds dropped without StopShards (the sweep engine
	// builds thousands): when the medium becomes unreachable the
	// workers must not leak. Workers reference only the runner, so the
	// finalizer is reachable.
	runtime.SetFinalizer(m, func(mm *Medium) { mm.StopShards() })
	return n
}

// StopShards tears down the sharded execution mode, stopping the
// worker pool and reverting the medium to sequential execution.
// Idempotent; safe on a never-sharded medium.
func (m *Medium) StopShards() {
	if m.shard == nil {
		return
	}
	if m.shard.runner != nil {
		m.shard.runner.stop()
	}
	m.shard = nil
	runtime.SetFinalizer(m, nil)
}

// Shards returns the effective worker count: 1 when sequential.
func (m *Medium) Shards() int {
	if m.shard == nil {
		return 1
	}
	return m.shard.want
}

// ScrambleShardCommit reverses the sequential commit order of sharded
// deliveries. Test-only fault injection: a scrambled commit violates
// the ascending radio-ID merge order the digest guarantee rests on,
// and the determinism regression suite pins that it catches exactly
// this class of bug. A no-op on sequential media.
func (m *Medium) ScrambleShardCommit(on bool) {
	if m.shard != nil {
		m.shard.scramble = on
	}
}

// ShardLayout describes the current region partition for diagnostics
// and tests. Deliberately not part of ExportState (see the package
// comment on checkpoint state).
type ShardLayout struct {
	Workers int   // configured worker count
	Regions int   // region (tile) count
	NX, NY  int   // tiles per axis
	Members []int // per-region member counts, region-index order
	Border  []int // per-region border-set sizes, region-index order
}

// ShardLayout reports the active partition, or ok=false when the
// medium executes sequentially.
func (m *Medium) ShardLayout() (ShardLayout, bool) {
	sh := m.shard
	if sh == nil || sh.rm == nil {
		return ShardLayout{}, false
	}
	nx, ny := sh.rm.Grid()
	out := ShardLayout{
		Workers: sh.want,
		Regions: sh.rm.Regions(),
		NX:      nx,
		NY:      ny,
		Members: make([]int, len(sh.regions)),
		Border:  make([]int, len(sh.regions)),
	}
	for i, reg := range sh.regions {
		out.Members[i] = len(reg.members)
		out.Border[i] = len(reg.border)
	}
	return out, true
}

// rebuildShardLayout (re)computes the region partition from the arena
// bounds and the loudest attached radio, then classifies every
// attached radio into its region and border set. Deterministic: it
// depends only on the arena, the cutoff, and the attached set in ID
// order. Called at SetShards and again lazily when a radio louder than
// the partition's sizing power attaches (layoutStale), since the
// minimum tile edge must cover the loudest hearing circle.
func (m *Medium) rebuildShardLayout() {
	sh := m.shard
	maxPower := math.Inf(-1)
	for _, r := range m.ordered {
		if r.TxPowerDBm > maxPower {
			maxPower = r.TxPowerDBm
		}
	}
	minTile := 0.0
	if !math.IsInf(maxPower, -1) {
		minTile = m.env.MaxRangeForCutoff(maxPower, m.cutoffDBm)
	}
	sh.layoutPower = maxPower
	sh.layoutStale = false
	sh.rm = geo.PartitionRect(m.env.Plan().Bounds, minTile, sh.want)
	sh.regions = make([]*mediumRegion, sh.rm.Regions())
	for i := range sh.regions {
		sh.regions[i] = &mediumRegion{id: i}
	}
	for _, r := range m.ordered {
		m.shardClassify(r)
	}
	// One kernel lane per region (lane 0 stays the default store), so a
	// region's txEnd events live in region-local kernel memory.
	m.kernel.ConfigureLanes(sh.rm.Regions() + 1)
}

// cachedHearingRange memoizes hearingRange per radio, keyed by its
// transmit power (the cutoff is fixed per medium), so per-move border
// reclassification performs no transcendentals.
func (m *Medium) cachedHearingRange(r *Radio) float64 {
	if r.hearRange != 0 && r.hearPower == r.TxPowerDBm {
		return r.hearRange
	}
	r.hearRange = m.hearingRange(r)
	r.hearPower = r.TxPowerDBm
	return r.hearRange
}

// insertByID inserts r into an ID-ascending radio slice.
func insertByID(s []*Radio, r *Radio) []*Radio {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= r.ID })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = r
	return s
}

// removeByID removes r from an ID-ascending radio slice, if present.
func removeByID(s []*Radio, r *Radio) []*Radio {
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= r.ID })
	if i < len(s) && s[i] == r {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// shardClassify assigns r to the region owning its position and, when
// its hearing circle crosses the tile boundary, to the region's border
// set. Attach path: also flags the layout stale when r is louder than
// the partition's sizing power.
func (m *Medium) shardClassify(r *Radio) {
	sh := m.shard
	r.region = int32(sh.rm.RegionOf(r.Pos))
	reg := sh.regions[r.region]
	reg.members = insertByID(reg.members, r)
	if sh.rm.CrossesBoundary(r.Pos, m.cachedHearingRange(r)) {
		reg.border = insertByID(reg.border, r)
	}
	if r.TxPowerDBm > sh.layoutPower {
		sh.layoutStale = true
	}
}

// shardRemove detaches r from its region's member and border sets.
func (m *Medium) shardRemove(r *Radio) {
	reg := m.shard.regions[r.region]
	reg.members = removeByID(reg.members, r)
	reg.border = removeByID(reg.border, r)
}

// shardMove reclassifies a moved radio: cheap border-flag refresh when
// the move stays inside its tile, full member transfer when it crosses
// a region boundary.
func (m *Medium) shardMove(r *Radio) {
	sh := m.shard
	newRegion := int32(sh.rm.RegionOf(r.Pos))
	crosses := sh.rm.CrossesBoundary(r.Pos, m.cachedHearingRange(r))
	if newRegion != r.region {
		m.shardRemove(r)
		r.region = newRegion
		reg := sh.regions[newRegion]
		reg.members = insertByID(reg.members, r)
		if crosses {
			reg.border = insertByID(reg.border, r)
		}
		return
	}
	reg := sh.regions[r.region]
	i := sort.Search(len(reg.border), func(i int) bool { return reg.border[i].ID >= r.ID })
	inBorder := i < len(reg.border) && reg.border[i] == r
	if crosses && !inBorder {
		reg.border = insertByID(reg.border, r)
	} else if !crosses && inBorder {
		reg.border = append(reg.border[:i], reg.border[i+1:]...)
	}
}

// shardReady reports whether the parallel evaluate path may engage for
// this event: sharding configured, layout current, at least two
// regions, and no shadow fading (whose lazy RNG draws inside the gain
// computation are inherently sequential).
func (m *Medium) shardReady() bool {
	sh := m.shard
	if sh == nil || sh.runner == nil {
		return false
	}
	if sh.layoutStale {
		m.rebuildShardLayout()
	}
	return sh.rm.Regions() >= 2 && m.env.ShadowSigmaDB == 0
}

// presizeGainRow grows src's pairwise gain-cache row to the full radio
// count on the coordinator, so workers calling linkGain never trigger
// the row growth themselves (a shared-slice reallocation would race).
// The growth is exactly the one linkGain would perform.
func (m *Medium) presizeGainRow(src *Radio) {
	src.syncGainPower() // workers never write src's linkGen
	if m.nextID >= len(src.gainTo) {
		grown := make([]pairGain, m.nextID+1)
		copy(grown, src.gainTo)
		src.gainTo = grown
	}
}

// presizeLedger grows l's cell array to cover every current radio ID
// on the coordinator, so parallel led.add calls never grow the shared
// slice.
func (m *Medium) presizeLedger(l *ledger) {
	if m.nextID >= len(l.cells) {
		grown := make([]ledgerCell, m.nextID+1)
		copy(grown, l.cells)
		l.cells = grown
	}
}

// finishSharded is the parallel delivery fan-out: evaluate in parallel
// across regions, then commit receipts sequentially in ascending
// radio-ID order (receivers is ID-ascending). The commit watches the
// medium's physGen mutation counter and the sender's transmit power;
// the moment a callback perturbs either, the remaining receivers are
// recomputed inline — the literal sequential code — so callbacks that
// move, retune, or detach radios observe sequential semantics exactly.
func (m *Medium) finishSharded(tx *Transmission, receivers []*Radio, noiseMW float64) {
	sh := m.shard
	if cap(sh.outcomes) < len(receivers) {
		sh.outcomes = make([]rxOutcome, len(receivers))
	}
	out := sh.outcomes[:len(receivers)]
	m.presizeGainRow(tx.Src)
	gen, power := m.physGen, tx.Src.TxPowerDBm

	sr := sh.runner
	sr.ph = phase{kind: phaseDeliver, m: m, tx: tx, receivers: receivers, outcomes: out, noiseMW: noiseMW}
	m.runPhase(sr)

	var commitStart time.Time
	if m.commitTimer != nil {
		commitStart = time.Now() //aroma:realtime host-plane commit-duration stat, never enters sim state
	}
	stale := false
	commit := func(i int) {
		rx := receivers[i]
		if !stale && (m.physGen != gen || tx.Src.TxPowerDBm != power) {
			stale = true
			m.FallbackMidCommit++
		}
		if rx.OnReceive == nil || rx.down > 0 || !m.attached(rx) {
			return
		}
		var rssi, sinr float64
		var ok bool
		if stale {
			ov := ChannelOverlap(tx.Src.Channel, rx.Channel)
			if ov == 0 {
				return
			}
			mw, rs := m.linkGain(tx.Src, rx)
			sigMW := mw * ov
			rssi = rs
			sinr = 10 * math.Log10(sigMW/(noiseMW+tx.led.at(rx.ID)))
			ok = sinr >= tx.Rate.MinSINRdB
		} else {
			o := &out[i]
			if !o.eval {
				return
			}
			rssi, sinr, ok = o.rssi, o.sinr, o.ok
		}
		m.countOutcome(ok, tx.led.at(rx.ID) > 0)
		rx.OnReceive(Receipt{Tx: tx, RSSIdBm: rssi, SINRdB: sinr, OK: ok})
	}
	if sh.scramble {
		for i := len(receivers) - 1; i >= 0; i-- {
			commit(i)
		}
	} else {
		for i := range receivers {
			commit(i)
		}
	}
	if m.commitTimer != nil {
		m.commitTimer.Observe(time.Since(commitStart)) //aroma:realtime host-plane commit-duration stat, never enters sim state
	}
}

// runPhase dispatches the prepared phase through the worker pool with
// the parallel-phase flag raised (suppressing the racy-to-count
// sequential cache stats) and, when bound, the host-plane evaluate
// timer observing the dispatch wall time. The channel send and
// WaitGroup wait inside dispatch give the flag writes their
// happens-before edges.
func (m *Medium) runPhase(sr *shardRunner) {
	var start time.Time
	if m.evalTimer != nil {
		start = time.Now() //aroma:realtime host-plane eval-duration stat, never enters sim state
	}
	m.parallelPhase = true
	sr.dispatch()
	m.parallelPhase = false
	if m.evalTimer != nil {
		m.evalTimer.Observe(time.Since(start)) //aroma:realtime host-plane eval-duration stat, never enters sim state
	}
	sr.ph = phase{}
}

// transmitSharded is the parallel interference fan-out for a new
// transmission: candidate snapshots and every shared-growth site are
// prepared sequentially on the coordinator (in the exact order the
// sequential pass would prepare them), then workers record mutual
// interference for the receivers of the regions they own. There is no
// separate commit: ledger cells are receiver-owned during the phase
// and the accumulation order per cell is the sequential order.
func (m *Medium) transmitSharded(tx *Transmission, hearers []*Radio) {
	sh := m.shard
	cands := sh.cands[:0]
	for _, other := range m.active {
		cands = append(cands, m.candidatesFor(other.Src))
		m.presizeGainRow(other.Src)
		m.presizeLedger(other.led)
	}
	sh.cands = cands
	m.presizeGainRow(tx.Src)
	m.presizeLedger(tx.led)

	sr := sh.runner
	sr.ph = phase{kind: phaseInterfere, m: m, tx: tx, hearers: hearers, active: m.active, cands: sh.cands}
	m.runPhase(sr)
	// Drop the candidate snapshots so the scratch does not pin caches
	// that a rebuild has already replaced.
	for i := range sh.cands {
		sh.cands[i] = nil
	}
	sh.cands = sh.cands[:0]
}
