// Command pipebench is the repository's pipeline benchmark. It drives
// core.Run on one of three seeded workloads in a closed loop with one
// client (the next pipeline starts when the previous one has returned),
// holds every delivered dataset to an oracle that shares no engine code,
// and prints every metric by name and unit. With --trace 1 it instead
// runs the same pipelines one layer at a time under spans and prints the
// per-layer metrics. NOTES.md describes the metrics and workloads.
//
//	bash pipebench/run.sh --workload fresh-stream --seed 7 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"sqlml/internal/core"
	"sqlml/internal/experiments"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loopResult is what a measured closed loop observed.
type loopResult struct {
	attempted, failed int
	latencies         []float64 // ms per core.Run, successful or not
	rows              int
	wall              time.Duration
	charged           counters  // summed over the core.Run calls only
	peaks             []float64 // MB, heap peak during each of the first peakWindow pipelines
}

func main() {
	workload := flag.String("workload", freshStream, "workload: fresh-stream, naive-dfs or cached-reuse")
	seed := flag.Int64("seed", 7, "workload seed: datagen seed and cached-reuse query sequence")
	seconds := flag.Int("seconds", 35, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end loop")
	outDir := flag.String("out", filepath.Join(".bench_build", "pipebench"), "directory for spill files and span dumps")
	flag.Parse()

	rep, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setups is how many times a run sets up; setup_s is their median, so one
// slow set-up on a shared machine does not move it.
const setups = 3

func run(workload string, seed int64, seconds time.Duration, traced bool, outDir string) (*report, error) {
	if !slices.Contains(workloads, workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	spillDir, err := filepath.Abs(filepath.Join(outDir, "spill"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	scale := experiments.DefaultScale()
	fmt.Printf("# pipebench workload=%s seed=%d (datagen seed %d, %d users x %d carts) seconds=%v trace=%v\n",
		workload, seed, seed, scale.Users, scale.CartsPerUser, seconds, traced)

	// Set up several times and keep the last deployment.
	var b *bench
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		b, err = newBench(workload, seed, scale, spillDir, 2)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer b.close()

	if traced {
		return tracedRun(b, seconds, outDir)
	}
	lr := b.loop(seconds)
	fmt.Printf("# samples=%d failed=%d ops_in_cycle=%d rows_per_pipeline=%.1f gc_cycles_per_pipeline=%.3f gc_cpu_fraction=%.4f\n",
		lr.attempted, lr.failed, len(b.ops), float64(lr.rows)/float64(max(lr.attempted-lr.failed, 1)),
		float64(lr.charged.gcCycles)/float64(lr.attempted), lr.charged.gcCPU/lr.charged.totalCPU)
	return endToEndReport(lr, setupTimes), nil
}

// endToEndReport turns an untraced loop into the end-to-end metrics.
func endToEndReport(lr loopResult, setupTimes []float64) *report {
	n := float64(lr.attempted)
	return &report{
		Correct:   lr.failed == 0,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics: withUnits(endToEnd, map[string]float64{
			"setup_s":               median(setupTimes),
			"pipeline_ms_p50":       quantile(lr.latencies, 0.50),
			"pipeline_ms_p90":       quantile(lr.latencies, 0.90),
			"rows_per_s":            float64(lr.rows) / lr.wall.Seconds(),
			"cpu_ms_per_pipeline":   ms(lr.charged.cpu) / n,
			"alloc_mb_per_pipeline": float64(lr.charged.allocBytes) / mb / n,
			"allocs_per_pipeline":   float64(lr.charged.allocObjects) / n,
			"peak_heap_mb":          median(lr.peaks),
			"ok_ratio":              float64(lr.attempted-lr.failed) / n,
		}),
	}
}

// peakWindow is how many pipelines from the start of the loop
// peak_heap_mb covers. A fixed count keeps the naive staging leak (see
// NOTES.md) at the same size in every run, however fast the machine is.
const peakWindow = 64

// loop runs untraced pipelines back to back for d, cycling through the
// workload's ops. Only the core.Run call is timed and charged; the oracle
// check runs between pipelines.
func (b *bench) loop(d time.Duration) loopResult {
	var lr loopResult
	peak := startHeapPeak(2 * time.Millisecond)
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		o := b.ops[i%len(b.ops)]
		peak.take()
		c0 := readCounters()
		t0 := time.Now()
		res, err := core.Run(b.env, o.approach, o.cfg)
		lat := time.Since(t0)
		lr.charged = lr.charged.add(readCounters().sub(c0))
		if p := float64(peak.take()) / mb; len(lr.peaks) < peakWindow {
			lr.peaks = append(lr.peaks, p)
		}
		lr.latencies = append(lr.latencies, ms(lat))
		lr.attempted++
		if err == nil {
			err = b.verify(o, res.CacheHit, res.Dataset)
		}
		if err != nil {
			lr.failed++
			if lr.failed <= 3 {
				fmt.Fprintf(os.Stderr, "pipebench: pipeline %d (%s): %v\n", i, o.cfg.Query, err)
			}
			continue
		}
		lr.rows += res.Rows
	}
	lr.wall = time.Since(start)
	peak.finish()
	return lr
}
