package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"aroma/internal/sim"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/scenario"
)

// pollPeriod is the open-loop rate at which an observer reads the info
// of the world being run: 10 reads a second.
const pollPeriod = 100 * time.Millisecond

// call times one public call, counts it as an operation (a panic is a
// failure, not a crash) and, in a traced phase, records its span.
func (r *run) call(ph *phase, parent int64, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := catch(fn)
	d := time.Since(start)
	r.op(name, err)
	ph.add(name, d)
	if ph.traced {
		r.addSpan(r.spanID(), parent, name, start, d)
	}
	return d, err
}

func catch(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// job runs one whole job on an in-process world, the same job the
// daemon-mixed client runs over HTTP: build, run to mid-horizon,
// snapshot, run to the horizon, result, fork the snapshot with a new
// seed, run the fork to the horizon, result. Between two calls the
// job answers pending info reads from pl, as a daemon's per-world
// command loop does. It returns the original world's result.
func (r *run) job(ph *phase, scen string, cfg scenario.Config, pl *poller) (*scenario.Result, error) {
	jobStart := time.Now()
	id := r.spanID()
	defer func() {
		d := time.Since(jobStart)
		ph.add("job", d)
		if ph.traced {
			r.addSpan(id, 0, "job", jobStart, d)
		}
	}()

	var b *scenario.Built
	if _, err := r.call(ph, id, "build", func() (err error) {
		b, err = scenario.Build(scen, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	defer b.World.Close()
	horizon := b.Horizon
	mid := horizon / 2
	var host time.Duration // time in RunUntil and Result calls
	advance := func(w *aroma.World, until sim.Time) error {
		var steps uint64
		d, err := r.call(ph, id, "run", func() error {
			steps = w.RunUntil(until)
			return nil
		})
		ph.addSteps(steps, d)
		host += d
		pl.serve(w)
		return err
	}
	finish := func(b *scenario.Built, key string) (*scenario.Result, error) {
		var res *scenario.Result
		d, err := r.call(ph, id, "result", func() error {
			res = b.Result()
			return nil
		})
		host += d
		if err != nil {
			return nil, err
		}
		r.checkDigest(key, res.Digest)
		return res, nil
	}

	pl.serve(b.World)
	if err := advance(b.World, mid); err != nil {
		return nil, err
	}
	var snap []byte
	if _, err := r.call(ph, id, "snapshot", func() (err error) {
		snap, err = checkpoint.Snapshot(b.World)
		return err
	}); err != nil {
		return nil, err
	}
	ph.addSnapshot(len(snap))
	pl.serve(b.World)
	if err := advance(b.World, horizon); err != nil {
		return nil, err
	}
	key := digestKey(cfg)
	res, err := finish(b, key)
	if err != nil {
		return nil, err
	}
	if res.Telemetry != nil {
		ph.addTelemetry(instrumentTotals(res.Telemetry.Instruments), horizon.Seconds())
	}
	pl.serve(b.World)

	fs := forkSeed(cfg.Seed)
	var f *scenario.Built
	if _, err := r.call(ph, id, "fork", func() (err error) {
		f, err = checkpoint.ForkBuilt(snap, fs)
		return err
	}); err != nil {
		return nil, err
	}
	defer f.World.Close()
	pl.serve(f.World)
	if err := advance(f.World, horizon); err != nil {
		return nil, err
	}
	if _, err := finish(f, fmt.Sprintf("%s/fork%d", key, fs)); err != nil {
		return nil, err
	}
	ph.addWork((horizon + horizon - mid).Seconds(), host)
	return res, nil
}

// digestKey names a world's recipe: its seed, and its parameters when
// it has any.
func digestKey(cfg scenario.Config) string {
	if len(cfg.Params) == 0 {
		return fmt.Sprint(cfg.Seed)
	}
	parts := make([]string, 0, len(cfg.Params))
	for k, v := range cfg.Params {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ") + " seed=" + fmt.Sprint(cfg.Seed)
}

// worldPhase runs in-process jobs on scen back to back for seconds,
// cycling through the run's cycle seeds, with an open-loop observer
// polling the world being run.
func (r *run) worldPhase(ph *phase, scen string, seconds float64) {
	pl := startPoller(r, ph)
	ph.begin()
	deadline := ph.t0.Add(time.Duration(seconds * float64(time.Second)))
	seeds := r.cycleSeeds()
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		cfg := scenario.Config{Seed: seeds[i%len(seeds)], Metrics: ph.traced}
		r.job(ph, scen, cfg, pl) // failures are counted by the calls
		ph.tick()
	}
	pl.stop()
	ph.end()
}

// worldWorkload is phy-dense and app-stream: back-to-back in-process
// jobs on one scenario. setup_s is the median scenario.Build.
func (r *run) worldWorkload(scen string) error {
	if !r.trace {
		ph := r.newPhase(false, 1)
		ph.setup = func() error {
			b, err := scenario.Build(scen, scenario.Config{Seed: r.cycleSeeds()[0]})
			if err == nil {
				b.World.Close()
			}
			return err
		}
		r.worldPhase(ph, scen, r.seconds)
		r.set("sim_rate", ph.simRate())
		ph.reportEndToEnd(r, "fork")
		return nil
	}
	plain := r.newPhase(false, 1)
	r.worldPhase(plain, scen, r.seconds/2)
	traced := r.newPhase(true, 1)
	if err := r.profiled(func() { r.worldPhase(traced, scen, r.seconds/2) }); err != nil {
		return err
	}
	traced.reportLayers(r)
	r.set("trace.overhead", ratio(plain.simRate(), traced.simRate()))
	r.zeroFill()
	return nil
}

func runPhyDense(r *run) error  { return r.worldWorkload("densitysweep") }
func runAppStream(r *run) error { return r.worldWorkload("lab") }

// profiled runs fn under the CPU profiler and folds the profile into
// per-layer self shares.
func (r *run) profiled(fn func()) error {
	path := r.outDir + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	shares, err := foldProfile(path)
	if err != nil {
		return fmt.Errorf("fold cpu profile: %w", err)
	}
	r.mu.Lock()
	r.layers = shares
	r.mu.Unlock()
	for _, layer := range selfShareLayers {
		r.set(layer+".self_share", shares[layer])
	}
	return nil
}

// poller is an open-loop observer of the worlds being run. Every
// pollPeriod it queues a read of the current world's progress; a
// goroutine driving a world answers every queued read between two
// calls, as a daemon's command loop runs the info requests queued
// behind a long command. Each read is timed from when it was due.
type poller struct {
	r    *run
	ph   *phase
	due  chan time.Time
	quit chan struct{}
	done chan struct{}
	seen atomic.Uint64 // steps observed, so the reads are not dead code
}

// pollBacklog is how many reads may queue behind one call: 64 reads
// are 6.4 s of calls, beyond any call the workloads make on a normal
// host. Past it the observer waits for room; a read is still timed
// from when it was due, so the wait counts.
const pollBacklog = 64

func startPoller(r *run, ph *phase) *poller {
	pl := &poller{
		r:    r,
		ph:   ph,
		due:  make(chan time.Time, pollBacklog),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go pl.observe()
	return pl
}

func (pl *poller) observe() {
	defer close(pl.done)
	start := time.Now()
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * pollPeriod)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-timer.C:
		case <-pl.quit:
			timer.Stop()
			return
		}
		select {
		case pl.due <- due:
		case <-pl.quit:
			return
		}
	}
}

// serve answers every queued read with w's progress.
func (pl *poller) serve(w *aroma.World) {
	for {
		select {
		case due := <-pl.due:
			pl.seen.Store(w.Kernel().Steps())
			pl.r.op("poll", nil)
			pl.ph.add("poll", time.Since(due))
		default:
			return
		}
	}
}

// stop ends the observer and waits for it. Reads still queued were due
// after the last call began and are dropped.
func (pl *poller) stop() {
	close(pl.quit)
	<-pl.done
}
