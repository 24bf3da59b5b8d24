package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units; the self-check
// test holds the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the figures a user of the system sees. Every workload
// reports all of them (README.md defines each per workload).
var endToEnd = []metricDef{
	{"sim_rate", "sim_s/s"},
	{"allocs_per_sim_s", "allocs/sim_s"},
	{"alloc_mb_per_sim_s", "MB/sim_s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"fork_p50_ms", "ms"},
	{"poll_p90_ms", "ms"},
}

// selfShareLayers are the packages whose share of CPU samples a traced
// run reports as <layer>.self_share.
var selfShareLayers = []string{
	"sim", "radio", "env", "mac", "netsim", "discovery", "lease",
	"session", "projector", "rfb", "geo", "mobility", "runtime",
}

// daemonRoutes are the client calls whose median latency a traced
// daemon-mixed run reports as daemon.<route>_p50_ms.
var daemonRoutes = []string{"create", "run", "snapshot", "fork", "result", "info", "metrics", "delete"}

// perLayer are the figures of single layers, reported by traced runs.
// A layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.ns_per_event", "ns"},
		{"sim.events_per_sim_s", "events/sim_s"},
		{"sim.cancel_ratio", "ratio"},
		{"radio.receipts_per_frame", "receipts/frame"},
		{"radio.gain_cache_hit_ratio", "ratio"},
		{"radio.delivery_ratio", "ratio"},
		{"mac.backoffs_per_frame", "backoffs/frame"},
		{"mac.retries_per_frame", "retries/frame"},
		{"netsim.datagrams_per_sim_s", "dgrams/sim_s"},
		{"netsim.call_timeout_ratio", "ratio"},
		{"discovery.lookups_per_sim_s", "lookups/sim_s"},
		{"lease.renewed_per_sim_s", "renewals/sim_s"},
		{"runtime.gc_per_sim_s", "gcs/sim_s"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"scenario.build_ms", "ms"},
		{"scenario.result_ms", "ms"},
		{"checkpoint.snapshot_ms", "ms"},
		{"checkpoint.snapshot_kb", "KB"},
		{"checkpoint.fork_ms", "ms"},
		{"sweep.worker_busy_ratio", "ratio"},
		{"sweep.speedup", "x"},
	}
	for _, route := range daemonRoutes {
		defs = append(defs, metricDef{"daemon." + route + "_p50_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"daemon.http_overhead_ms", "ms"},
		metricDef{"daemon.info_wait_ms", "ms"},
	)
	for _, layer := range selfShareLayers {
		defs = append(defs, metricDef{layer + ".self_share", "ratio"})
	}
	return append(defs, metricDef{"trace.overhead", "x"})
}()

// phase is one timed stretch of a run: the plain phase the end-to-end
// metrics come from, or the traced phase of a traced run. Timings are
// held raw until the next calibration (see calib.go), then kept in
// milliseconds at reference speed. Campaign workers and the daemon's
// observer add to one phase, so it sits behind a mutex.
type phase struct {
	traced bool
	cal    calibrator
	run    *run
	// setup, when set, makes the workload ready once (a world build, a
	// daemon start); the plain phase times it at every calibration as
	// "setup", so the set-up samples spread over the whole run.
	setup func() error
	// setupAllocs and setupBytes are what those set-ups allocated; the
	// phase's allocation figures leave them out.
	setupAllocs, setupBytes uint64

	mu      sync.Mutex
	pending samples  // raw timings since the last calibration, ms
	samples samples  // calibrated timings, ms
	simS    float64  // simulated seconds completed
	steps   uint64   // kernel steps advanced by timed RunUntil calls
	tel     counters // summed telemetry counters (traced phase)
	telSimS float64  // simulated seconds the counters cover
	snapKB  []float64

	lastRef time.Duration // reference time at the last calibration
	lastCal time.Time

	t0    time.Time
	ms0   runtime.MemStats
	ms1   runtime.MemStats
	cpu0  cpuSplit
	cpu1  cpuSplit
	rssMB float64
}

// samples holds timings in milliseconds, by name.
type samples map[string][]float64

// counters holds summed instrument values, by instrument name.
type counters map[string]float64

// newPhase returns a phase whose reference runs on parallel goroutines.
func (r *run) newPhase(traced bool, parallel int) *phase {
	return &phase{
		traced: traced, cal: calibrator{parallel}, run: r,
		pending: make(samples), samples: make(samples), tel: make(counters),
	}
}

// begin times the reference and snapshots the allocation and CPU
// counters; end calibrates the last job and takes the difference.
// Everything between them counts toward the phase.
func (p *phase) begin() {
	if p.setup != nil {
		p.run.op("setup", catch(p.setup)) // untimed warm-up
	}
	runtime.GC()
	p.lastRef = p.cal.measure()
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = readCPU()
	p.t0 = time.Now()
	p.lastCal = p.t0
}

func (p *phase) end() {
	if p.setup != nil {
		p.timeSetup()
	}
	p.calibrate()
	runtime.ReadMemStats(&p.ms1)
	p.cpu1 = readCPU()
	p.rssMB = peakRSSMB()
}

// tick calibrates once a window has passed since the last calibration,
// timing one set-up first. The goroutine driving the workload calls it
// between jobs.
func (p *phase) tick() {
	if time.Since(p.lastCal) < window {
		return
	}
	if p.setup != nil {
		p.timeSetup()
	}
	p.calibrate()
}

// timeSetup runs the set-up once from a collected heap, so the garbage
// of the jobs before it does not land in it.
func (p *phase) timeSetup() {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := catch(p.setup)
	p.add("setup", time.Since(start))
	runtime.ReadMemStats(&m1)
	p.setupAllocs += m1.Mallocs - m0.Mallocs
	p.setupBytes += m1.TotalAlloc - m0.TotalAlloc
	p.run.op("setup", err)
}

// calibrate times the reference and moves the timings taken since the
// last calibration into the phase, scaled to reference speed by the
// mean of the two reference times around them.
func (p *phase) calibrate() {
	ref := p.cal.measure()
	scale := float64(refNominal) / (float64(p.lastRef+ref) / 2)
	p.run.noteReference(ref)
	p.mu.Lock()
	for name, xs := range p.pending {
		for _, x := range xs {
			p.samples[name] = append(p.samples[name], x*scale)
		}
		delete(p.pending, name)
	}
	p.mu.Unlock()
	p.lastRef = ref
	p.lastCal = time.Now()
}

// add records one timing.
func (p *phase) add(name string, d time.Duration) {
	p.mu.Lock()
	p.pending[name] = append(p.pending[name], ms(d))
	p.mu.Unlock()
}

// addWork records simulated seconds completed and the host time that
// completed them ("work").
func (p *phase) addWork(simS float64, host time.Duration) {
	p.add("work", host)
	p.mu.Lock()
	p.simS += simS
	p.mu.Unlock()
}

// addSteps records kernel steps advanced in d of host time ("step").
func (p *phase) addSteps(steps uint64, d time.Duration) {
	p.add("step", d)
	p.mu.Lock()
	p.steps += steps
	p.mu.Unlock()
}

// addTelemetry sums one world's final instrument values, covering
// simS simulated seconds.
func (p *phase) addTelemetry(values map[string]float64, simS float64) {
	p.mu.Lock()
	for k, v := range values {
		p.tel[k] += v
	}
	p.telSimS += simS
	p.mu.Unlock()
}

// sum is the total of the named timings, in ms.
func (p *phase) sum(name string) float64 {
	var t float64
	for _, x := range p.samples[name] {
		t += x
	}
	return t
}

func (p *phase) simRate() float64 { return ratio(p.simS, p.sum("work")/1e3) }

func (p *phase) pct(name string, q float64) float64 { return percentile(p.samples[name], q) }

// reportEndToEnd sets the figures every workload shares but sim_rate;
// forkCall names the call fork_p50_ms times.
func (p *phase) reportEndToEnd(r *run, forkCall string) {
	allocs := p.ms1.Mallocs - p.ms0.Mallocs - p.setupAllocs
	bytes := p.ms1.TotalAlloc - p.ms0.TotalAlloc - p.setupBytes
	r.set("allocs_per_sim_s", ratio(float64(allocs), p.simS))
	r.set("alloc_mb_per_sim_s", ratio(float64(bytes)/1e6, p.simS))
	r.set("peak_rss_mb", p.rssMB)
	r.set("setup_s", p.pct("setup", 50)/1e3)
	r.set("job_p50_ms", p.pct("job", 50))
	r.set("job_p90_ms", p.pct("job", 90))
	r.set("fork_p50_ms", p.pct(forkCall, 50))
	r.set("poll_p90_ms", p.pct("poll", 90))
}

// reportLayers sets the per-layer figures the traced phase can give for
// any workload: counter ratios, runtime cost, per-call latencies. The
// workload sets the rest (sweep, daemon) and zero-fills what it lacks.
func (p *phase) reportLayers(r *run) {
	t := p.tel
	r.mu.Lock()
	r.telemetry = t
	r.mu.Unlock()
	r.set("sim.ns_per_event", ratio(p.sum("step")*1e6, float64(p.steps)))
	r.set("sim.events_per_sim_s", ratio(t["kernel.steps_total"], p.telSimS))
	r.set("sim.cancel_ratio", ratio(t["kernel.events_cancelled_total"], t["kernel.events_scheduled_total"]))
	receipts := t["radio.frames_delivered_total"] + t["radio.frames_lost_total"]
	r.set("radio.receipts_per_frame", ratio(receipts, t["radio.frames_sent_total"]))
	r.set("radio.gain_cache_hit_ratio", ratio(t["radio.gain_cache_hits_total"],
		t["radio.gain_cache_hits_total"]+t["radio.gain_cache_misses_total"]))
	r.set("radio.delivery_ratio", ratio(t["radio.frames_delivered_total"], receipts))
	r.set("mac.backoffs_per_frame", ratio(t["mac.backoffs_total"], t["mac.frames_sent_total"]))
	r.set("mac.retries_per_frame", ratio(t["mac.retries_total"], t["mac.frames_sent_total"]))
	r.set("netsim.datagrams_per_sim_s", ratio(t["net.datagrams_sent_total"], p.telSimS))
	r.set("netsim.call_timeout_ratio", ratio(t["net.calls_timed_out_total"], t["net.calls_started_total"]))
	r.set("discovery.lookups_per_sim_s", ratio(t["discovery.lookups_served_total"], p.telSimS))
	r.set("lease.renewed_per_sim_s", ratio(t["lease.renewed_total"], p.telSimS))
	r.set("runtime.gc_per_sim_s", ratio(float64(p.ms1.NumGC-p.ms0.NumGC), p.simS))
	r.set("runtime.gc_cpu_fraction", ratio(p.cpu1.gc-p.cpu0.gc, p.cpu1.total-p.cpu0.total))
	r.set("scenario.build_ms", p.pct("build", 50))
	r.set("scenario.result_ms", p.pct("result", 50))
	r.set("checkpoint.snapshot_ms", p.pct("snapshot", 50))
	r.set("checkpoint.snapshot_kb", percentile(p.snapKB, 50))
	r.set("checkpoint.fork_ms", p.pct("fork", 50))
}

// zeroFill sets every catalogued per-layer metric the workload left
// unset to 0: the workload does not exercise that layer.
func (r *run) zeroFill() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range perLayer {
		if _, ok := r.metrics[m.Name]; !ok {
			r.metrics[m.Name] = 0
		}
	}
}

// cpuSplit is cumulative process CPU time, total and spent in GC.
type cpuSplit struct{ total, gc float64 }

func readCPU() cpuSplit {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSplit{total: s[0].Value.Float64(), gc: s[1].Value.Float64()}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the q-th percentile of xs by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
