package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"dsp/internal/cluster"
	"dsp/internal/experiments"
	"dsp/internal/preempt"
	"dsp/internal/sched"
	"dsp/internal/sim"
	"dsp/internal/trace"
)

// slotLeavingCells are RealCluster(50) runs in which tasks leave their
// slots other than by completing or being preempted: TetrisW/oDep's
// blind starts time out and requeue, and DSP under 5% task faults
// retries failed attempts.
func slotLeavingCells(t *testing.T) map[string]sim.Config {
	t.Helper()
	tetris, err := experiments.NewScheduler("TetrisW/oDep")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sim.Config{
		"tetris-wodep": {
			Cluster:   cluster.RealCluster(50),
			Scheduler: tetris,
		},
		"dsp-task-faults": {
			Cluster:    cluster.RealCluster(50),
			Scheduler:  sched.NewDSP(),
			Preemptor:  preempt.NewDSP(),
			Checkpoint: cluster.DefaultCheckpoint(),
			Faults:     &sim.FaultPlan{Tasks: &sim.TaskFaults{Rate: 0.05, Seed: 3}},
		},
	}
}

// slotLeavingWorkload is the 20-job, seed-41 fixture of the observer
// overhead guards.
func slotLeavingWorkload(t *testing.T) *trace.Workload {
	t.Helper()
	spec := trace.DefaultSpec(20, 41)
	spec.TaskScale = 0.02
	spec.MeanTaskSizeMI /= 0.02
	w, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTraceClosesEverySlotSpan: every slot occupancy becomes exactly one
// "X" span closed by the event that ended it — none is left for Export
// to close at the end of the run.
func TestTraceClosesEverySlotSpan(t *testing.T) {
	for name, cfg := range slotLeavingCells(t) {
		t.Run(name, func(t *testing.T) {
			tb := NewTraceBuilder()
			ctr := NewCounters()
			cfg.Observer = sim.Observers{ctr, tb}
			if _, err := sim.Run(cfg, slotLeavingWorkload(t)); err != nil {
				t.Fatal(err)
			}
			if ctr.Count(sim.EvTaskRequeued)+ctr.Count(sim.EvTaskRetried) == 0 {
				t.Fatal("fixture left no slot by requeue or retry")
			}
			var buf bytes.Buffer
			if err := tb.Export(&buf); err != nil {
				t.Fatal(err)
			}
			var ct chromeTrace
			if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
				t.Fatal(err)
			}
			spans := 0
			for _, ev := range ct.TraceEvents {
				if ev.Ph != "X" || ev.Cat != "task" {
					continue
				}
				spans++
				if out := ev.Args["outcome"]; out == "open-at-end" {
					t.Errorf("span %s left open until the end of the run", ev.Name)
				}
			}
			if starts := ctr.Count(sim.EvTaskStarted); int64(spans) != starts {
				t.Errorf("%d task spans for %d EvTaskStarted events", spans, starts)
			}
		})
	}
}
