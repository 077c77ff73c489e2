// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in-process for a fixed wall-clock window, repeating a
// fixed unit of simulated work (a "round") and reporting medians over the
// rounds, checks every round's outputs, and prints a JSON info line and a
// JSON result line. Run it from the repository root:
//
//	bash perfbench/run.sh --workload fig7-preempt --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (host wall
// time, memory, request latency, virtual-time outcomes); with --trace 1
// it carries the per-layer metrics, measured by wrapping the public
// boundaries of each layer from outside the program. README.md explains
// the workloads and the layer → metric → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// round is one fixed unit of a workload's work. traced selects the
// instrumented variant; tracing never changes what a round computes.
type round func(seed int64, traced bool) (*roundResult, error)

// workload is one named benchmark input.
type workload struct {
	name string
	run  round
	// deterministic workloads must repeat their outcome exactly in every
	// round of a run, traced or not (see roundResult.outcome).
	deterministic bool
}

var workloads = []workload{
	{name: "fig7-preempt", run: fig7Preempt, deterministic: true},
	{name: "fig5-sched", run: fig5Sched, deterministic: true},
	{name: "serve-durable", run: serveDurable},
	{name: "serve-backlog", run: serveBacklog, deterministic: true},
}

// minRounds is the fewest rounds an untraced run makes, whatever
// --seconds says, so every reported median has at least three samples.
// A traced run makes at least minTracedRounds traced rounds and as many
// untraced ones.
const (
	minRounds       = 3
	minTracedRounds = 2
)

// roundResult is what one round measured and produced.
type roundResult struct {
	// Host time.
	setupS, runS float64
	workloadS    float64 // trace.Generate and job encoding (part of setupS)
	prepareS     float64 // sim.Prepare or serve.New (part of setupS)
	loadS        float64 // serving: the submit/read phase before Drain
	submitMS     []float64
	statusMS     []float64

	// Operation accounting. attempted counts operations: jobs simulated
	// (batch) or HTTP requests (serving). errors counts operations that
	// failed or whose output was wrong. A 429 is backpressure, not a
	// failure: the client steps the clock and resubmits the same job, so
	// it is counted in refused and the job's retry is a new attempt.
	attempted, accepted, refused, errors int

	// Virtual-time outcomes.
	makespanS float64
	settleS   []float64
	waitingS  float64 // batch only: mean Result.AvgJobWaiting
	// outcome identifies the round's simulated results; rounds of one
	// seed must agree on it (batch, serve-backlog) and traced batch
	// rounds must match the untraced one.
	outcome string

	// layers holds the per-layer metrics of a traced round, and samples
	// the sample count behind each of its latency percentiles.
	layers  map[string]float64
	samples map[string]int
}

// metric is one reported value.
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

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name: fig7-preempt, fig5-sched, serve-durable or serve-backlog")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from traced rounds")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if err := checkCheckout(); err != nil {
		return err
	}
	traced := *traceFlag == 1

	heap := startHeapSampler()
	window := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	// A traced run alternates untraced and traced rounds: the untraced
	// ones give the reference outcome and the tracing overhead.
	var plain, inst []*roundResult
	for i := 0; ; i++ {
		tracedRound := traced && i%2 == 1
		runtime.GC()
		res, err := w.run(*seed, tracedRound)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", w.name, i+1, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d traced=%v setup_s=%.4f run_s=%.4f outcome=%.60s\n",
			i+1, tracedRound, res.setupS, res.runS, res.outcome)
		if tracedRound {
			inst = append(inst, res)
		} else {
			plain = append(plain, res)
		}
		enough := len(plain) >= minRounds
		if traced {
			enough = len(inst) >= minTracedRounds
		}
		if enough && time.Since(start) >= window {
			break
		}
	}
	peakHeap := heap.stop()

	all := append(append([]*roundResult(nil), plain...), inst...)
	rep := report{Correct: true}
	for _, r := range all {
		rep.Attempted += r.attempted
		rep.Failed += r.errors
		if w.deterministic && r.outcome != all[0].outcome {
			fmt.Fprintf(os.Stderr, "perfbench: outcome differs between rounds of one seed:\n  %s\n  %s\n", all[0].outcome, r.outcome)
			rep.Correct = false
		}
	}
	rep.Correct = rep.Correct && rep.Failed == 0

	info := map[string]any{
		"workload":   w.name,
		"seed":       *seed,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"rounds":     len(all),
		"traced":     traced,
	}
	if traced {
		rep.Metrics = layerMetrics(plain, inst)
		if s := inst[0].samples; s != nil {
			info["samples_per_round"] = s
		}
	} else {
		rep.Metrics = endToEnd(plain, peakHeap, info)
	}
	line, err := json.Marshal(map[string]any{"info": info})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkCheckout refuses to run anywhere but the root of a repository
// checkout: the benchmark measures that tree's code and writes its
// scratch files under it.
func checkCheckout() error {
	for _, p := range []string{"go.mod", "internal/sim", "perfbench/go.mod"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// endToEnd folds untraced rounds into the end-to-end metrics. Timings
// are medians over rounds; latency percentiles pool every request of the
// run. Sample counts and the request p99s go to the info line: the p99s
// move with the host's background load by far more than any bound a
// regression gate could use, so they are recorded but not gated.
func endToEnd(rs []*roundResult, peakHeapBytes float64, info map[string]any) map[string]metric {
	med := func(f func(*roundResult) float64) float64 { return median(pluck(rs, f)) }
	var submit, status, settle []float64
	for _, r := range rs {
		submit = append(submit, r.submitMS...)
		status = append(status, r.statusMS...)
	}
	// Virtual outcomes repeat across rounds of one seed; use the first.
	settle = rs[0].settleS
	info["samples"] = map[string]int{
		"submit": len(submit), "status": len(status), "job_settle": len(settle), "rounds": len(rs),
	}
	info["submit_p99_ms"] = percentile(submit, 99)
	info["status_p99_ms"] = percentile(status, 99)
	if rs[0].waitingS != 0 { // batch workloads only
		info["sim_job_waiting_s"] = rs[0].waitingS
	}
	info["accepted"] = rs[0].accepted
	info["refused"] = rs[0].refused
	return map[string]metric{
		"setup_s":       {med(func(r *roundResult) float64 { return r.setupS }), "s"},
		"run_s":         {med(func(r *roundResult) float64 { return r.runS }), "s"},
		"peak_heap_mib": {peakHeapBytes / (1 << 20), "MiB"},
		"accepted_per_s": {med(func(r *roundResult) float64 {
			return float64(r.accepted) / r.loadS
		}), "1/s"},
		"submit_p50_ms":    {percentile(submit, 50), "ms"},
		"status_p50_ms":    {percentile(status, 50), "ms"},
		"sim_makespan_s":   {rs[0].makespanS, "s"},
		"job_settle_p50_s": {percentile(settle, 50), "s"},
		"job_settle_p99_s": {percentile(settle, 99), "s"},
	}
}

// layerMetrics folds traced rounds into the per-layer metrics: the
// median over traced rounds of each layer value. Every per-layer metric
// is reported on every workload; a layer the workload does not reach,
// or cannot be observed from outside the program, reads 0 (README.md).
// bench.trace_overhead compares the traced rounds' median run_s with
// the untraced rounds' of the same run.
func layerMetrics(plain, inst []*roundResult) map[string]metric {
	out := map[string]metric{}
	for _, l := range layerNames {
		v := median(pluck(inst, func(r *roundResult) float64 { return r.layers[l.name] }))
		out[l.name] = metric{v, l.unit}
	}
	runS := func(r *roundResult) float64 { return r.runS }
	out["bench.trace_overhead"] = metric{median(pluck(inst, runS))/median(pluck(plain, runS)) - 1, "ratio"}
	return out
}

func pluck(rs []*roundResult, f func(*roundResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile by the nearest-rank method; 0
// for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}
