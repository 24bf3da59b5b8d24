package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Timings on a shared host drift. On a 2-vCPU guest, a pure-compute
// loop holds within ±3% while memory-bound loops swing ±30% over
// seconds, as neighbours load the shared caches and memory. The
// benchmark scales out the part it can track: about once a second,
// between two jobs, it times a fixed compute-bound reference loop and
// scales every timing taken since the last calibration by refNominal /
// (the mean of the reference times before and after). A memory-bound
// reference tracked the workloads worse than none — its own swings
// are larger than theirs and only loosely in step with them — so the
// memory part of the drift is left to the medians over many jobs.
//
// The reference is written here, so it runs identically at every
// commit of the program. Every timing the benchmark reports is
// expressed for a host on which one reference pass takes refNominal,
// which is about what it takes on a 2-vCPU Xeon guest.
const (
	refNominal = 2 * time.Millisecond
	refSteps   = 200_000
	// refPasses are timed per calibration; their median resists a
	// preemption landing in one of them.
	refPasses = 3
	// window is the least time between two calibrations.
	window = time.Second
)

// refPass runs the reference loop once and returns how long it took.
// The loop's result goes to sink, so the compiler cannot drop it.
func refPass(sink *float64) time.Duration {
	start := time.Now()
	x := 1.0
	for i := 0; i < refSteps; i++ {
		x = math.Sqrt(x+float64(i)) * 1.0000001
	}
	*sink += x
	return time.Since(start)
}

// calibrator times the reference on as many goroutines at once as the
// workload keeps busy.
type calibrator struct {
	parallel int
}

// measure returns the reference time: per goroutine the median of
// refPasses passes, then the mean over the goroutines.
func (c calibrator) measure() time.Duration {
	times := make([]time.Duration, c.parallel)
	sinks := make([]float64, c.parallel)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			passes := make([]time.Duration, refPasses)
			for k := range passes {
				passes[k] = refPass(&sinks[i])
			}
			sort.Slice(passes, func(a, b int) bool { return passes[a] < passes[b] })
			times[i] = passes[refPasses/2]
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return sum / time.Duration(len(times))
}
