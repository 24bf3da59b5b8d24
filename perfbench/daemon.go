package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"aroma/internal/daemon"
	"aroma/internal/sim"
	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/client"
	"aroma/pkg/aroma/scenario"
)

const (
	// daemonScenario is the world every daemon-mixed job hosts, run to
	// daemonHorizon instead of its classic 2 minutes. The storm still
	// breaks in the first 95 s; the longer tail makes each run command
	// mostly simulation, and on a 2-vCPU guest it halved the job times'
	// spread from process to process: at 2 minutes the jobs were mostly
	// HTTP, JSON and garbage collection, the work that the host's memory
	// contention slows most.
	daemonScenario = "faultstorm"
	daemonHorizon  = 10 * sim.Minute
	// callTimeout bounds every daemon call; a call over it fails.
	callTimeout = 30 * time.Second
)

// daemonServer is an in-process aromad serving on a loopback listener.
type daemonServer struct {
	srv  *daemon.Server
	hs   *http.Server
	done chan struct{}
	url  string
}

func startDaemon() (*daemonServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemonServer{srv: daemon.New(), done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	d.hs = &http.Server{Handler: d.srv}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

// stop closes the listener and connections, waits for Serve to return,
// then stops every hosted world.
func (d *daemonServer) stop() {
	d.hs.Close()
	<-d.done
	d.srv.Close()
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(url string) error {
	hc := &http.Client{Timeout: callTimeout}
	deadline := time.Now().Add(callTimeout)
	for {
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// startHealthy starts a daemon and waits for its first healthy
// /healthz.
func startHealthy() (*daemonServer, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(d.url); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// current is the world client A is working on; client B reads its
// info. A deletes a world only under the write lock, so B never reads
// a world that is gone.
type current struct {
	mu sync.RWMutex
	id string
}

func (c *current) set(id string) {
	c.mu.Lock()
	c.id = id
	c.mu.Unlock()
}

// httpCall is run.call for one client call with its own timeout.
func (r *run) httpCall(ph *phase, parent int64, route string, fn func(ctx context.Context) error) (time.Duration, error) {
	return r.call(ph, parent, "http."+route, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		defer cancel()
		return fn(ctx)
	})
}

// daemonJob is client A's job: create → run to mid-horizon → snapshot →
// run to horizon → result → fork with a new seed → run the fork to
// horizon → result → delete both worlds and the snapshot. A traced
// phase also reads the world's telemetry, forks the downloaded
// snapshot in-process, and replays the first run in-process to split
// out the HTTP overhead.
func (r *run) daemonJob(ph *phase, c *client.Client, cur *current, seed int64) error {
	jobStart := time.Now()
	id := r.spanID()
	defer func() {
		d := time.Since(jobStart)
		ph.add("job", d)
		if ph.traced {
			r.addSpan(id, 0, "job", jobStart, d)
		}
	}()
	var host time.Duration // time in run and result calls
	var w *client.WorldInfo
	if _, err := r.httpCall(ph, id, "create", func(ctx context.Context) (err error) {
		w, err = c.CreateWorld(ctx, client.CreateWorldRequest{Scenario: daemonScenario, Seed: seed, Horizon: daemonHorizon})
		return err
	}); err != nil {
		return err
	}
	cur.set(w.ID)
	mid, horizon := w.Horizon/2, w.Horizon
	advance := func(wid string, req client.RunRequest) (*client.WorldInfo, time.Duration, error) {
		var info *client.WorldInfo
		d, err := r.httpCall(ph, id, "run", func(ctx context.Context) (err error) {
			info, err = c.Run(ctx, wid, req)
			return err
		})
		host += d
		return info, d, err
	}
	finish := func(wid, key string) error {
		var res *client.ResultInfo
		d, err := r.httpCall(ph, id, "result", func(ctx context.Context) (err error) {
			res, err = c.Result(ctx, wid)
			return err
		})
		host += d
		if err == nil {
			r.checkDigest(key, res.Digest)
		}
		return err
	}

	atMid, midD, err := advance(w.ID, client.RunRequest{Until: mid})
	if err != nil {
		return err
	}
	r.checkDigest(fmt.Sprintf("%d@%v", seed, mid), atMid.Digest)
	var snap *client.SnapshotInfo
	if _, err := r.httpCall(ph, id, "snapshot", func(ctx context.Context) (err error) {
		snap, err = c.Snapshot(ctx, w.ID, "")
		return err
	}); err != nil {
		return err
	}
	ph.addSnapshot(snap.Bytes)
	if _, _, err := advance(w.ID, client.RunRequest{ToHorizon: true}); err != nil {
		return err
	}
	if ph.traced {
		r.httpCall(ph, id, "world_metrics", func(ctx context.Context) error {
			tel, err := c.WorldMetrics(ctx, w.ID)
			if err == nil {
				ph.addTelemetry(instrumentTotals(tel.Instruments), horizon.Seconds())
			}
			return err
		})
	}
	if err := finish(w.ID, fmt.Sprint(seed)); err != nil {
		return err
	}
	fs := forkSeed(seed)
	var f *client.WorldInfo
	if _, err := r.httpCall(ph, id, "fork", func(ctx context.Context) (err error) {
		f, err = c.Fork(ctx, snap.Name, "", fs)
		return err
	}); err != nil {
		return err
	}
	cur.set(f.ID)
	if _, _, err := advance(f.ID, client.RunRequest{ToHorizon: true}); err != nil {
		return err
	}
	if err := finish(f.ID, fmt.Sprintf("%d/fork%d", seed, fs)); err != nil {
		return err
	}
	ph.addWork((horizon + horizon - mid).Seconds(), host)
	if ph.traced {
		r.localReplay(ph, c, id, seed, snap.Name, mid, midD)
	}

	cur.mu.Lock()
	cur.id = ""
	cur.mu.Unlock()
	for _, wid := range []string{w.ID, f.ID} {
		if _, err := r.httpCall(ph, id, "delete", func(ctx context.Context) error { return c.DeleteWorld(ctx, wid) }); err != nil {
			return err
		}
	}
	_, err = r.httpCall(ph, id, "delete", func(ctx context.Context) error { return c.DeleteSnapshot(ctx, snap.Name) })
	return err
}

// localReplay repeats a daemon job's work in-process: it forks the
// downloaded snapshot (checkpoint.fork_ms) and rebuilds the recipe and
// runs it to mid-horizon, whose time is subtracted from the client's
// run-to-mid latency (daemon.http_overhead_ms). Its digest must equal
// the daemon's.
func (r *run) localReplay(ph *phase, c *client.Client, parent, seed int64, snapName string, mid sim.Time, clientRun time.Duration) {
	var data []byte
	if _, err := r.httpCall(ph, parent, "snapshot_data", func(ctx context.Context) (err error) {
		data, err = c.SnapshotData(ctx, snapName)
		return err
	}); err == nil {
		r.call(ph, parent, "fork", func() error {
			f, err := checkpoint.Fork(data, forkSeed(seed))
			if err == nil {
				f.Close()
			}
			return err
		})
	}
	var b *scenario.Built
	if _, err := r.call(ph, parent, "build", func() (err error) {
		b, err = scenario.Build(daemonScenario, scenario.Config{Seed: seed, Horizon: daemonHorizon})
		return err
	}); err != nil {
		return
	}
	defer b.World.Close()
	var steps uint64
	d, _ := r.call(ph, parent, "run", func() error {
		steps = b.World.RunUntil(mid)
		return nil
	})
	ph.addSteps(steps, d)
	ph.add("http_overhead", clientRun-d)
	r.checkDigest(fmt.Sprintf("%d@%v", seed, mid), b.World.Digest())
}

// observe is client B: an open loop that every pollPeriod reads the
// info of A's current world and the daemon's /metrics. The info read is
// timed from when it was due ("poll"). A traced phase also reads an
// idle world's info, the base daemon.info_wait_ms is taken against.
func (r *run) observe(ph *phase, c *client.Client, cur *current, idle string, quit <-chan struct{}) {
	start := time.Now()
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * pollPeriod)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-timer.C:
		case <-quit:
			timer.Stop()
			return
		}
		cur.mu.RLock()
		if cur.id != "" {
			r.httpCall(ph, 0, "info", func(ctx context.Context) error {
				_, err := c.World(ctx, cur.id)
				return err
			})
			ph.add("poll", time.Since(due))
		}
		cur.mu.RUnlock()
		if idle != "" {
			r.httpCall(ph, 0, "info_idle", func(ctx context.Context) error {
				_, err := c.World(ctx, idle)
				return err
			})
		}
		r.httpCall(ph, 0, "metrics", func(ctx context.Context) error {
			_, err := c.MetricsText(ctx)
			return err
		})
	}
}

// daemonPhase runs client A's jobs back to back for seconds while
// client B observes.
func (r *run) daemonPhase(ph *phase, url string, seconds float64) error {
	a, b := client.New(url), client.New(url)
	// A failed call is a failure to report, not one to retry away.
	a.SetRetry(0, 0)
	b.SetRetry(0, 0)
	var idle string
	if ph.traced {
		// The idle world is run to mid-horizon first, so its info read
		// digests a trace as long as a busy world's does on average.
		if _, err := r.httpCall(ph, 0, "create", func(ctx context.Context) error {
			w, err := a.CreateWorld(ctx, client.CreateWorldRequest{Scenario: daemonScenario, Seed: r.seed, Horizon: daemonHorizon})
			if err != nil {
				return err
			}
			idle = w.ID
			_, err = a.Run(ctx, idle, client.RunRequest{Until: daemonHorizon / 2})
			return err
		}); err != nil {
			return err
		}
	}
	var cur current
	quit := make(chan struct{})
	done := make(chan struct{})
	ph.begin()
	go func() {
		defer close(done)
		r.observe(ph, b, &cur, idle, quit)
	}()
	deadline := ph.t0.Add(time.Duration(seconds * float64(time.Second)))
	seeds := r.cycleSeeds()
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		r.daemonJob(ph, a, &cur, seeds[i%len(seeds)]) // failures are counted by the calls
		ph.tick()
	}
	close(quit)
	<-done
	ph.end()
	if idle != "" {
		r.httpCall(ph, 0, "delete", func(ctx context.Context) error { return a.DeleteWorld(ctx, idle) })
	}
	return nil
}

// runDaemonMixed is the daemon-mixed workload: writes (client A's jobs)
// beside reads (client B's polls) on one in-process daemon.
func runDaemonMixed(r *run) error {
	// One processor: every job hands work back and forth between the
	// client, handler and world-loop goroutines, and with two
	// processors each hand-off may wait for an idle one to wake. On a
	// 2-vCPU guest those wake-ups moved job times by 30% from process to
	// process; on one processor the hand-offs are direct.
	runtime.GOMAXPROCS(1)
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	d, err := startHealthy()
	r.op("daemon.start", err)
	if err != nil {
		return err
	}
	defer d.stop()
	if !r.trace {
		ph := r.newPhase(false, 1)
		ph.setup = func() error {
			d, err := startHealthy()
			if err == nil {
				d.stop()
			}
			return err
		}
		if err := r.daemonPhase(ph, d.url, r.seconds); err != nil {
			return err
		}
		r.set("sim_rate", ph.simRate())
		ph.reportEndToEnd(r, "http.fork")
		return nil
	}
	plain := r.newPhase(false, 1)
	if err := r.daemonPhase(plain, d.url, r.seconds/2); err != nil {
		return err
	}
	traced := r.newPhase(true, 1)
	var phaseErr error
	if err := r.profiled(func() { phaseErr = r.daemonPhase(traced, d.url, r.seconds/2) }); err != nil {
		return err
	}
	if phaseErr != nil {
		return phaseErr
	}
	traced.reportLayers(r)
	for _, route := range daemonRoutes {
		r.set("daemon."+route+"_p50_ms", traced.pct("http."+route, 50))
	}
	r.set("daemon.http_overhead_ms", traced.pct("http_overhead", 50))
	r.set("daemon.info_wait_ms", traced.pct("http.info", 90)-traced.pct("http.info_idle", 90))
	r.set("trace.overhead", ratio(plain.simRate(), traced.simRate()))
	r.zeroFill()
	return nil
}
