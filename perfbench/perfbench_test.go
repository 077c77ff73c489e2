package main

import (
	"reflect"
	"testing"

	"dsp/internal/experiments"
)

// TestBacklogDeterministic is the guard against wall time leaking into
// the work a serving round does: at a tiny size and a fixed seed,
// serve-backlog's refusals and every virtual outcome must repeat exactly,
// whatever the host's speed and however the reader's requests interleave.
func TestBacklogDeterministic(t *testing.T) {
	shape := servingShape{platform: experiments.Real, jobs: 90, maxPending: 400, perStep: 20}
	var runs [2]*roundResult
	for i := range runs {
		res, err := runServing(shape, 7, i == 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.errors != 0 || res.accepted != shape.jobs {
			t.Fatalf("run %d: %d errors, %d of %d jobs accepted", i, res.errors, res.accepted, shape.jobs)
		}
		runs[i] = res
	}
	a, b := runs[0], runs[1]
	if a.refused == 0 {
		t.Fatal("no 429s: the shape no longer exercises backpressure")
	}
	if a.refused != b.refused || a.makespanS != b.makespanS || !reflect.DeepEqual(a.settleS, b.settleS) || a.outcome != b.outcome {
		t.Fatalf("runs differ: refused %d vs %d, makespan %v vs %v, outcome %s vs %s",
			a.refused, b.refused, a.makespanS, b.makespanS, a.outcome, b.outcome)
	}
}

// TestTracedCellsMatch checks the wrappers' fidelity: a traced batch cell
// must simulate exactly what the untraced one does. TetrisW/oDep is the
// dependency-blind scheduler, DSP the one with durable state and a
// profiler hook.
func TestTracedCellsMatch(t *testing.T) {
	cells := []batchCell{
		{platform: experiments.EC2, scheduler: "TetrisW/oDep", jobs: 30},
		{platform: experiments.EC2, scheduler: "DSP", preemptor: "SRPT", jobs: 30},
	}
	plain, err := runBatch(cells, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runBatch(cells, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.errors != 0 || traced.errors != 0 {
		t.Fatalf("errors: %d untraced, %d traced", plain.errors, traced.errors)
	}
	if plain.outcome != traced.outcome {
		t.Fatalf("traced results differ:\n  %s\n  %s", plain.outcome, traced.outcome)
	}
	l := traced.layers
	if l["sched.calls"] == 0 || l["preempt.calls"] == 0 || l["sched.busy_s.tetris-wodep"] == 0 || l["preempt.busy_s.srpt"] == 0 {
		t.Fatalf("traced round recorded no layer work: %v", l)
	}
}

func TestTracedSchedulerForwardsDependencyBlind(t *testing.T) {
	for _, name := range experiments.SchedulerNames() {
		s, err := experiments.NewScheduler(name)
		if err != nil {
			t.Fatal(err)
		}
		want := false
		if db, ok := s.(interface{ DependencyBlind() bool }); ok {
			want = db.DependencyBlind()
		}
		if got := (&tracedScheduler{inner: s}).DependencyBlind(); got != want {
			t.Errorf("%s: wrapped DependencyBlind() = %v, want %v", name, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {99, 5}, {1, 1}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
