// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per process through the public calls a user makes —
// scenario.Build, World.RunUntil, Built.Result, checkpoint.Snapshot and
// Fork, sweep.New(...).Run, and the aromad client against an in-process
// daemon — checks the outputs, and prints one JSON result as its last
// line of standard output.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a traced
// run and reports the per-layer metrics, writing spans, the summed
// telemetry counters and a CPU profile under .bench_out/. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	_ "aroma/pkg/aroma/scenarios" // populate the scenario registry
)

// workloads maps each workload name to its driver. A driver runs its
// set-up, then one plain phase (and, when tracing, a traced one), and
// leaves its figures on the run.
var workloads = map[string]func(*run) error{
	"phy-dense":    runPhyDense,
	"app-stream":   runAppStream,
	"campaign":     runCampaign,
	"daemon-mixed": runDaemonMixed,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "workload name: phy-dense, app-stream, campaign, daemon-mixed")
		seed     = flag.Int64("seed", 1, "workload seed; per-cycle seeds derive from it")
		seconds  = flag.Float64("seconds", 25, "measuring time of the run, in seconds")
		traceOn  = flag.Int("trace", 0, "1 makes a traced run reporting the per-layer metrics")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *seed < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0, --seed >= 1 and --trace 0 or 1")
		return 2
	}
	r := newRun(*workload, *seed, *seconds, *traceOn == 1)
	if r.trace {
		r.outDir = fmt.Sprintf(".bench_out/%s-seed%d", *workload, *seed)
		if err := os.MkdirAll(r.outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := drive(r); err != nil {
		// A set-up error: the workload never got to measure anything.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if r.trace {
		if err := r.writeArtefacts(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rec, _ := json.Marshal(r.record())
	fmt.Println(string(rec))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run carries one process's accounting: operations attempted and
// failed, the digest seen for every seed, and the metrics reported.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	start    time.Time

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	digests   map[string]string
	metrics   map[string]float64
	spans     []span
	telemetry map[string]float64
	layers    map[string]float64

	refMS []float64 // every reference time taken, ms

	spanSeq atomic.Int64
}

// noteReference keeps a reference time for the record.
func (r *run) noteReference(d time.Duration) {
	r.mu.Lock()
	r.refMS = append(r.refMS, ms(d))
	r.mu.Unlock()
}

func newRun(workload string, seed int64, seconds float64, trace bool) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		start:   time.Now(),
		digests: make(map[string]string),
		metrics: make(map[string]float64),
	}
}

// cycleSeeds are the seeds a run's cycles take in turn. Each recurs, so
// every cycle's digest is checked against an earlier cycle of the same
// seed; a traced run's traced phase is checked against its plain phase.
func (r *run) cycleSeeds() []int64 {
	base := r.seed * 100
	return []int64{base + 1, base + 2, base + 3}
}

// forkSeed is the seed a job's fork restarts its random stream with.
func forkSeed(seed int64) int64 { return seed + 1_000_000 }

// op counts one operation; a non-nil err fails it.
func (r *run) op(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *run) failLocked(msg string) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: FAIL", msg)
}

// checkDigest records the digest of key on first sight and fails the
// run if a later cycle of the same key disagrees.
func (r *run) checkDigest(key, digest string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	switch prev, seen := r.digests[key]; {
	case digest == "":
		r.failLocked(fmt.Sprintf("digest %s: empty", key))
	case !seen:
		r.digests[key] = digest
	case prev != digest:
		r.failLocked(fmt.Sprintf("digest %s: %s, earlier cycle had %s", key, digest, prev))
	}
}

// set records a metric; the name must be in the catalog.
func (r *run) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = v
}

// fingerprint hashes every seed's digest, so two benchmark outputs
// agree on it exactly when the simulated worlds were bit-identical.
func (r *run) fingerprint() string {
	keys := make([]string, 0, len(r.digests))
	for k := range r.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, r.digests[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the last line: the end-to-end metrics for a plain
// run, the per-layer metrics for a traced one. A catalogued metric the
// workload did not set is a bug in the benchmark, not a measurement.
func (r *run) result() (*result, error) {
	cat := endToEnd
	if r.trace {
		cat = perLayer
	}
	out := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(cat)),
	}
	var missing []string
	for _, m := range cat {
		v, ok := r.metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return nil, errors.New("workload did not report " + strings.Join(missing, ", "))
	}
	return out, nil
}

// record is the line printed before the result: the environment, the
// seeds, the digest fingerprint and every seed's digest, so a claim that
// digests stayed bit-identical is a diff of two benchmark outputs.
func (r *run) record() map[string]any {
	return map[string]any{
		"workload":    r.workload,
		"seed":        r.seed,
		"cycle_seeds": r.cycleSeeds(),
		"seconds":     r.seconds,
		"trace":       r.trace,
		"env":         environment(),
		"fingerprint": r.fingerprint(),
		// The reference times the timings were scaled by (calib.go):
		// how many, and their quartiles in ms.
		"reference_ms": map[string]float64{
			"n":   float64(len(r.refMS)),
			"p25": percentile(r.refMS, 25),
			"p50": percentile(r.refMS, 50),
			"p75": percentile(r.refMS, 75),
		},
		"digests": r.digests,
		"errors":  r.errs,
		"metrics": r.metrics,
	}
}

// environment describes the host the figures were measured on.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
