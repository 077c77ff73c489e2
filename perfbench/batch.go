package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"dsp/internal/experiments"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// The workload recipe of the paper sweep (experiments.workloadAtRate):
// task counts scaled to 3%, mean task size inflated by the same factor so
// each job's total work is the paper's, and 3.5 job arrivals per minute.
const (
	taskScale  = 0.03
	jobsPerMin = 3.5
	period     = 5 * units.Minute
	epoch      = 10 * units.Second
)

// Round sizes. A fig7-preempt round is the five Fig 7 preemptors on one
// 300-job EC2 workload; a fig5-sched round is the four Fig 5 schedulers
// on one 750-job workload per platform.
const (
	fig7Jobs = 300
	fig5Jobs = 750
)

// genWorkload builds the seeded input for one cell, exactly as the
// sweep derives a cell's workload from its seed and job count.
func genWorkload(jobs int, seed int64) (*trace.Workload, error) {
	spec := trace.DefaultSpec(jobs, seed+int64(jobs)*7919)
	spec.TaskScale = taskScale
	spec.MeanTaskSizeMI /= taskScale
	spec.ArrivalRateMin, spec.ArrivalRateMax = jobsPerMin, jobsPerMin
	return trace.Generate(spec)
}

// batchCell is one simulation of a batch round.
type batchCell struct {
	platform  experiments.Platform
	scheduler string
	preemptor string // "" runs without an online phase, as Fig 5 does
	jobs      int
}

func (c batchCell) label() string {
	return fmt.Sprintf("%s/%s/%s", c.platform, c.scheduler, c.preemptor)
}

// fig7Preempt is Fig 7's preemption comparison: DSP placement on EC2(30)
// under each of the five preemption policies.
func fig7Preempt(seed int64, traced bool) (*roundResult, error) {
	var cells []batchCell
	for _, p := range experiments.PreemptorNames() {
		cells = append(cells, batchCell{platform: experiments.EC2, scheduler: "DSP", preemptor: p, jobs: fig7Jobs})
	}
	return runBatch(cells, seed, traced)
}

// fig5Sched is Fig 5's placement comparison: the four schedulers on both
// platforms, with no preemptor.
func fig5Sched(seed int64, traced bool) (*roundResult, error) {
	var cells []batchCell
	for _, p := range []experiments.Platform{experiments.Real, experiments.EC2} {
		for _, s := range experiments.SchedulerNames() {
			cells = append(cells, batchCell{platform: p, scheduler: s, jobs: fig5Jobs})
		}
	}
	return runBatch(cells, seed, traced)
}

// runBatch sets up every cell (workload generation and sim.Prepare),
// then executes them one at a time on this goroutine. A batch client
// hands the whole round to the engine and waits for every result, so a
// round is one request: its "submit" latency is the round's sim.Prepare
// calls and its "status" latency the Execute calls that yield the
// results.
func runBatch(cells []batchCell, seed int64, traced bool) (*roundResult, error) {
	res := &roundResult{}
	inputs := make([]*trace.Workload, len(cells))
	jobs := make([]int, len(cells))
	tasks := make([]int, len(cells))
	t0 := time.Now()
	for i, c := range cells {
		w, err := genWorkload(c.jobs, seed)
		if err != nil {
			return nil, err
		}
		inputs[i], jobs[i] = w, len(w.Jobs)
		for _, j := range w.Jobs {
			tasks[i] += j.DAG.Len()
		}
	}
	res.workloadS = time.Since(t0).Seconds()
	// Each timed phase starts from a collected heap, so no phase pays for
	// the garbage of the one before it.
	runtime.GC()
	engines := make([]*sim.Engine, len(cells))
	tracers := make([]*cellTracer, len(cells))
	t0 = time.Now()
	for i, c := range cells {
		cfg := sim.Config{Cluster: c.platform.Cluster(), Period: period, Epoch: epoch}
		var err error
		if cfg.Scheduler, err = experiments.NewScheduler(c.scheduler); err != nil {
			return nil, err
		}
		if c.preemptor != "" {
			if cfg.Preemptor, cfg.Checkpoint, err = experiments.NewPreemptor(c.preemptor); err != nil {
				return nil, err
			}
		}
		if traced {
			tracers[i] = traceCell(&cfg)
		}
		if engines[i], err = sim.Prepare(cfg, inputs[i]); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", c.label(), err)
		}
	}
	res.prepareS = time.Since(t0).Seconds()
	res.setupS = res.workloadS + res.prepareS
	res.submitMS = []float64{res.prepareS * 1e3}
	runtime.GC()

	var outcome strings.Builder
	var waiting float64
	var layers batchLayers
	for i, e := range engines {
		res.attempted += jobs[i]
		t0 := time.Now()
		r, err := e.Execute()
		t1 := time.Now()
		res.runS += t1.Sub(t0).Seconds()
		if err != nil {
			res.errors += jobs[i]
			fmt.Fprintf(&outcome, "%s=error ", cells[i].label())
			continue
		}
		if r.TasksCompleted != tasks[i] || r.JobsCompleted != jobs[i] {
			res.errors += max(1, jobs[i]-r.JobsCompleted)
		}
		res.accepted += r.JobsCompleted
		res.makespanS += r.Makespan.Seconds()
		waiting += r.AvgJobWaiting.Seconds()
		for _, j := range r.Jobs {
			res.settleS = append(res.settleS, (j.DoneAt - j.Arrival).Seconds())
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", *r)
		fmt.Fprintf(&outcome, "%s=%x ", cells[i].label(), h.Sum64())
		if traced {
			layers.add(cells[i], tracers[i], e, r)
		}
	}
	res.loadS = res.runS
	res.statusMS = []float64{res.runS * 1e3}
	res.waitingS = waiting / float64(len(cells))
	res.outcome = strings.TrimSpace(outcome.String())
	if traced {
		res.layers = layers.metrics(res)
	}
	return res, nil
}

func msSince(t0, t1 time.Time) float64 { return float64(t1.Sub(t0).Nanoseconds()) / 1e6 }
