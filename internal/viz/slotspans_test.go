package viz

import (
	"testing"

	"dsp/internal/baselines"
	"dsp/internal/cluster"
	"dsp/internal/preempt"
	"dsp/internal/sched"
	"dsp/internal/sim"
	"dsp/internal/trace"
)

// kindTally counts events by kind.
type kindTally [sim.NumEventKinds]int

func (k *kindTally) Observe(e sim.Event) { k[e.Kind]++ }

// TestRecorderClosesEverySlotSpan runs RealCluster(50) cells in which
// tasks leave their slots other than by completing or being preempted —
// TetrisW/oDep's blind starts time out and requeue, DSP under 5% task
// faults retries failed attempts — and requires every recorded span to
// end where the occupancy did, one span per EvTaskStarted.
func TestRecorderClosesEverySlotSpan(t *testing.T) {
	spec := trace.DefaultSpec(20, 41)
	spec.TaskScale = 0.02
	spec.MeanTaskSizeMI /= 0.02
	w, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]sim.Config{
		"tetris-wodep": {
			Cluster:   cluster.RealCluster(50),
			Scheduler: &baselines.Tetris{},
		},
		"dsp-task-faults": {
			Cluster:    cluster.RealCluster(50),
			Scheduler:  sched.NewDSP(),
			Preemptor:  preempt.NewDSP(),
			Checkpoint: cluster.DefaultCheckpoint(),
			Faults:     &sim.FaultPlan{Tasks: &sim.TaskFaults{Rate: 0.05, Seed: 3}},
		},
	}
	for name, cfg := range cells {
		t.Run(name, func(t *testing.T) {
			rec := NewRecorder()
			tally := &kindTally{}
			cfg.Observer = sim.Observers{rec, tally}
			if _, err := sim.Run(cfg, w); err != nil {
				t.Fatal(err)
			}
			if tally[sim.EvTaskRequeued]+tally[sim.EvTaskRetried] == 0 {
				t.Fatal("fixture left no slot by requeue or retry")
			}
			if starts := tally[sim.EvTaskStarted]; len(rec.Spans) != starts {
				t.Errorf("%d spans for %d EvTaskStarted events", len(rec.Spans), starts)
			}
			open := 0
			for _, s := range rec.Spans {
				if s.End < 0 {
					open++
				}
			}
			if open > 0 {
				t.Errorf("%d of %d spans never closed", open, len(rec.Spans))
			}
		})
	}
}
