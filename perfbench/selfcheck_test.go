package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestCatalogMatchesBenchmarkFile holds the metric names and units the
// program prints in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: program has %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
}

// TestSelfCheck runs one short cycle of every workload, plain and
// traced, and asserts that every named metric is reported with its
// unit and that no operation failed.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	// A workload may set GOMAXPROCS for its process; restore it so the
	// next one starts as it would in a process of its own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := runtime.GOMAXPROCS(0)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			runtime.GOMAXPROCS(procs)
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			// A measuring time this short runs one job of the world
			// workloads, one campaign, and a few daemon jobs (enough for
			// the observer's first reads).
			r := newRun(w.Name, 1, 0.3, traced)
			r.outDir = t.TempDir()
			if err := workloads[w.Name](r); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			res, err := r.result()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, r.errs)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no %s", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if len(r.digests) == 0 {
				t.Errorf("%s traced=%v: no digests recorded", w.Name, traced)
			}
		}
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"aroma/internal/radio.(*Medium).recordInterference": "aroma/internal/radio",
		"aroma/internal/sim.siftDown[go.shape.int]":         "aroma/internal/sim",
		"runtime.mallocgc":                 "runtime",
		"internal/runtime/maps.(*Map).Get": "internal/runtime/maps",
		"math.Log":                         "math",
		"main.main.func1":                  "main",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
