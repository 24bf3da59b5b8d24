package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
	"aroma/pkg/aroma/sweep"
)

// The campaign grid: mobiledense radios × speed, campaignReps
// replications per cell, each replication one in-process job run to
// campaignHorizon.
var campaignAxes = []sweep.Axis{
	sweep.Ints("radios", 150, 200),
	sweep.Floats("speed", 1.4, 5),
}

const (
	campaignReps    = 4
	campaignRows    = 2 * 2 * campaignReps
	campaignHorizon = 2 * aroma.Second
)

// design is the campaign's sweep design; job runs each replication.
func design(baseSeed int64, telemetry bool, job scenario.Func) sweep.Design {
	return sweep.Design{
		Scenario:  "mobiledense",
		Func:      job,
		Axes:      campaignAxes,
		Reps:      campaignReps,
		BaseSeed:  baseSeed,
		Horizon:   campaignHorizon,
		Telemetry: telemetry,
	}
}

// campaign runs the grid once through the sweep engine with workers
// MRIP workers. Each replication is a job (see run.job), so its row
// carries the job's digest. The campaign's wall time is recorded as
// "campaign", the sum of its rows' wall times as "busy".
func (r *run) campaign(ph *phase, pl *poller, baseSeed int64, workers int) {
	start := time.Now()
	s, err := sweep.New(design(baseSeed, ph.traced, func(cfg scenario.Config) (*scenario.Result, error) {
		return r.job(ph, "mobiledense", cfg, pl)
	}), sweep.WithWorkers(workers))
	r.op("sweep.new", err)
	if err != nil {
		return
	}
	rep, err := s.Run(context.Background())
	ph.add("campaign", time.Since(start))
	if err == nil && (rep.FailedCount() != 0 || len(rep.Rows) != campaignRows) {
		err = fmt.Errorf("%d of %d rows failed, want %d rows", rep.FailedCount(), len(rep.Rows), campaignRows)
	}
	r.op("sweep.run", err)
	if rep != nil {
		var busy time.Duration
		for _, row := range rep.Rows {
			busy += row.Wall()
		}
		ph.add("busy", busy)
	}
}

// campaignPhase runs campaigns back to back for seconds.
func (r *run) campaignPhase(ph *phase, seconds float64, workers int) {
	pl := startPoller(r, ph)
	ph.begin()
	deadline := ph.t0.Add(time.Duration(seconds * float64(time.Second)))
	seeds := r.cycleSeeds()
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		r.campaign(ph, pl, seeds[i%len(seeds)]*10, workers)
		ph.tick()
	}
	pl.stop()
	ph.end()
}

// throughput is the campaign's sim_rate: simulated seconds completed
// per second of campaign wall time.
func (p *phase) throughput() float64 { return ratio(p.simS, p.sum("campaign")/1e3) }

// runCampaign is the campaign workload. setup_s is the median of
// sweep.New plus the build of the first cell's world.
func runCampaign(r *run) error {
	workers := runtime.NumCPU()
	if !r.trace {
		base := r.cycleSeeds()[0] * 10
		ph := r.newPhase(false, workers)
		ph.setup = func() error {
			if _, err := sweep.New(design(base, false, nil), sweep.WithWorkers(workers)); err != nil {
				return err
			}
			b, err := scenario.Build("mobiledense", scenario.Config{
				Seed:    base,
				Horizon: campaignHorizon,
				Params:  map[string]string{"radios": "150", "speed": "1.4"},
			})
			if err == nil {
				b.World.Close()
			}
			return err
		}
		r.campaignPhase(ph, r.seconds, workers)
		r.set("sim_rate", ph.throughput())
		ph.reportEndToEnd(r, "fork")
		return nil
	}
	plain := r.newPhase(false, workers)
	r.campaignPhase(plain, r.seconds/2, workers)
	traced := r.newPhase(true, workers)
	if err := r.profiled(func() { r.campaignPhase(traced, r.seconds/2, workers) }); err != nil {
		return err
	}
	traced.reportLayers(r)
	r.set("sweep.worker_busy_ratio", ratio(traced.sum("busy"), float64(workers)*traced.sum("campaign")))
	r.set("trace.overhead", ratio(plain.throughput(), traced.throughput()))

	// The same grid on one worker and on all of them.
	one, all := r.newPhase(false, 1), r.newPhase(false, workers)
	r.campaignPhase(one, 0, 1)
	r.campaignPhase(all, 0, workers)
	r.set("sweep.speedup", ratio(one.sum("campaign"), all.sum("campaign")))
	r.zeroFill()
	return nil
}
