// Command benchgate records and gates benchmark trajectories.
//
// It has two modes:
//
//	benchgate -emit BENCH.json [-in bench.txt] [-note "..."]
//	    Parse `go test -bench -benchmem` output (a file or stdin) into a
//	    JSON benchmark record. Repeated runs of the same benchmark
//	    (-count > 1) are folded to their per-metric minimum, the
//	    benchstat-style noise floor.
//
//	benchgate -baseline BENCH.json -current NEW.json \
//	          [-max-ns-regress-pct 15] [-max-allocs-regress 8] \
//	          [-max-allocs-regress-pct 5] [-require Name1,Name2]
//	    Compare a fresh record against a checked-in baseline. The gate
//	    fails (exit 1) when a benchmark present in both regresses by
//	    more than the allowed ns/op percentage, or by more allocs/op
//	    than max(absolute floor, percentage) allows. allocs/op is
//	    machine-independent, so its gate is meaningful across runners;
//	    ns/op comparisons assume a comparable machine (see README
//	    "Performance").
//
// The gate intentionally compares only the intersection of the two
// records, so a baseline may carry slow trajectory-only benchmarks that
// CI does not re-run; -require lists names that must be present in the
// current record, catching silent renames or removals of the gated set.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded metrics.
type Result struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Record is the checked-in benchmark trajectory file format. NProc is
// the recording host's CPU count and GOMAXPROCS the benchmarks' own
// (from their -N name suffix; 1 when go test printed none): an ns/op
// baseline only means something next to the host that produced it.
type Record struct {
	Note       string   `json:"note,omitempty"`
	Go         string   `json:"go,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NProc      int      `json:"nproc,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	emit := flag.String("emit", "", "write a parsed benchmark record to this JSON file")
	in := flag.String("in", "", "benchmark output to parse (default stdin)")
	note := flag.String("note", "", "free-form note stored in the emitted record")
	baseline := flag.String("baseline", "", "checked-in baseline record to gate against")
	current := flag.String("current", "", "freshly emitted record to check")
	maxNsPct := flag.Float64("max-ns-regress-pct", 15, "fail when ns/op regresses by more than this percentage")
	maxAllocs := flag.Float64("max-allocs-regress", 8, "absolute allocs/op jitter floor: regressions at or below this many allocations never fail")
	maxAllocsPct := flag.Float64("max-allocs-regress-pct", 5, "fail when allocs/op regresses by more than this percentage (above the absolute floor)")
	require := flag.String("require", "", "comma-separated benchmark names that must be present in -current")
	flag.Parse()

	switch {
	case *emit != "":
		if err := runEmit(*emit, *in, *note); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
	case *baseline != "" && *current != "":
		ok, err := runGate(*baseline, *current, gateLimits{nsPct: *maxNsPct, allocsAbs: *maxAllocs, allocsPct: *maxAllocsPct}, *require)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchgate: use -emit OUT.json, or -baseline BASE.json -current NEW.json")
		os.Exit(2)
	}
}

func runEmit(out, in, note string) error {
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	rec, err := Parse(r)
	if err != nil {
		return err
	}
	if len(rec.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	rec.Note = note
	rec.Go = runtime.Version()
	rec.NProc = runtime.NumCPU()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchgate: recorded %d benchmarks to %s\n", len(rec.Benchmarks), out)
	return nil
}

// Parse reads `go test -bench` output and folds repeated runs of one
// benchmark to the minimum of each metric.
func Parse(r io.Reader) (*Record, error) {
	rec := &Record{}
	byName := map[string]*Result{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"), strings.HasPrefix(line, "pkg:"):
			continue
		case strings.HasPrefix(line, "cpu:"):
			rec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		res, procs, ok := parseLine(line)
		if !ok {
			continue
		}
		if rec.GOMAXPROCS == 0 {
			rec.GOMAXPROCS = procs
		}
		prev, seen := byName[res.Name]
		if !seen {
			byName[res.Name] = &res
			order = append(order, res.Name)
			continue
		}
		prev.Runs += res.Runs
		if res.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = res.NsPerOp
		}
		if res.BytesPerOp < prev.BytesPerOp {
			prev.BytesPerOp = res.BytesPerOp
		}
		if res.AllocsPerOp < prev.AllocsPerOp {
			prev.AllocsPerOp = res.AllocsPerOp
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		rec.Benchmarks = append(rec.Benchmarks, *byName[name])
	}
	return rec, nil
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8   324   6614089 ns/op   81664 B/op   170 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so records are comparable across
// machines with different core counts, and returned as procs (1 when
// absent: go test omits the suffix at GOMAXPROCS=1).
func parseLine(line string) (res Result, procs int, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, 0, false
	}
	name := fields[0]
	procs = 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return Result{}, 0, false // not an iteration count: not a result line
	}
	res = Result{Name: name, Runs: 1}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	if res.NsPerOp == 0 {
		return Result{}, 0, false
	}
	return res, procs, true
}

func load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// gateLimits bounds the tolerated regression per benchmark. The
// allocation limit is max(allocsAbs, base*allocsPct/100): the absolute
// floor absorbs amortized pool/cache-growth jitter (a handful of
// allocations whose attribution shifts with the iteration count), while
// any systematic reintroduction of a per-frame or per-event allocation
// costs at least the burst size (64/op) and always trips the gate.
type gateLimits struct {
	nsPct     float64
	allocsAbs float64
	allocsPct float64
}

func (g gateLimits) allocsAllowed(base float64) float64 {
	if pct := base * g.allocsPct / 100; pct > g.allocsAbs {
		return pct
	}
	return g.allocsAbs
}

func runGate(basePath, curPath string, limits gateLimits, require string) (bool, error) {
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	cur, err := load(curPath)
	if err != nil {
		return false, err
	}
	curBy := map[string]Result{}
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	ok := true
	if require != "" {
		for _, name := range strings.Split(require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, present := curBy[name]; !present {
				fmt.Printf("FAIL %-40s required benchmark missing from current run\n", name)
				ok = false
			}
		}
	}
	names := make([]string, 0, len(base.Benchmarks))
	baseBy := map[string]Result{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
		names = append(names, b.Name)
	}
	sort.Strings(names)
	compared := 0
	for _, name := range names {
		b, c := baseBy[name], curBy[name]
		if c.Name == "" {
			continue // trajectory-only entry; not re-run this time
		}
		compared++
		status := "ok  "
		nsDelta := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		if c.NsPerOp > b.NsPerOp*(1+limits.nsPct/100) {
			status = "FAIL"
			ok = false
		}
		allocsDelta := c.AllocsPerOp - b.AllocsPerOp
		if allocsDelta > limits.allocsAllowed(b.AllocsPerOp) {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("%s %-40s ns/op %12.0f -> %12.0f (%+6.1f%%)  allocs/op %6.0f -> %6.0f (%+.0f)\n",
			status, name, b.NsPerOp, c.NsPerOp, nsDelta, b.AllocsPerOp, c.AllocsPerOp, allocsDelta)
	}
	if compared == 0 {
		return false, fmt.Errorf("no benchmarks in common between %s and %s", basePath, curPath)
	}
	verdict := "within limits"
	if !ok {
		verdict = "regression gate FAILED"
	}
	fmt.Printf("benchgate: %d compared, %s (limits: ns/op +%.0f%%, allocs/op +max(%.0f, %.0f%%))\n",
		compared, verdict, limits.nsPct, limits.allocsAbs, limits.allocsPct)
	return ok, nil
}
