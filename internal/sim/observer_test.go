package sim

import (
	"fmt"
	"slices"
	"testing"

	"dsp/internal/cluster"
	"dsp/internal/units"
)

// countingObserver tallies events.
type countingObserver struct {
	starts, preempts, completes, jobs int
	lastPreemptStarter                *TaskState
}

func (c *countingObserver) Observe(e Event) {
	switch e.Kind {
	case EvTaskStarted:
		c.starts++
	case EvTaskPreempted:
		c.preempts++
		c.lastPreemptStarter = e.Other
	case EvTaskCompleted:
		c.completes++
	case EvJobCompleted:
		c.jobs++
	}
}

func TestObserverReceivesEvents(t *testing.T) {
	j := sizedJob(0, 10000, 1000)
	obs := &countingObserver{}
	pre := &onceActor{act: func(now units.Time, v *View) []Action {
		return []Action{{Node: 0, Victim: v.Running(0)[0], Starter: v.Queue(0)[0]}}
	}}
	_, err := Run(Config{
		Cluster:    testCluster(1, 1),
		Scheduler:  rrScheduler{},
		Preemptor:  pre,
		Checkpoint: cluster.DefaultCheckpoint(),
		Epoch:      2 * units.Second,
		Observer:   obs,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	// Starts: task A, then starter B via preemption, then A resumes = 3.
	if obs.starts != 3 {
		t.Errorf("starts = %d, want 3", obs.starts)
	}
	if obs.preempts != 1 {
		t.Errorf("preempts = %d, want 1", obs.preempts)
	}
	if obs.completes != 2 {
		t.Errorf("completes = %d, want 2", obs.completes)
	}
	if obs.jobs != 1 {
		t.Errorf("jobs = %d, want 1", obs.jobs)
	}
	if obs.lastPreemptStarter == nil || obs.lastPreemptStarter.Task.ID != 1 {
		t.Error("preempt starter not reported")
	}
}

// observerFunc adapts a closure to the Observer interface.
type observerFunc func(Event)

func (f observerFunc) Observe(e Event) { f(e) }

func TestObserversCompose(t *testing.T) {
	a := &countingObserver{}
	b := &countingObserver{}
	j := sizedJob(0, 1000)
	_, err := Run(Config{
		Cluster:   testCluster(1, 1),
		Scheduler: rrScheduler{},
		Observer:  Observers{a, b},
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if a.starts != 1 || b.starts != 1 || a.jobs != 1 || b.jobs != 1 {
		t.Errorf("composed observers missed events: a=%+v b=%+v", a, b)
	}
}

func TestObserversSkipNil(t *testing.T) {
	a := &countingObserver{}
	j := sizedJob(0, 1000)
	// Nil entries (common when composing optional exporters) must be
	// skipped, not dereferenced.
	_, err := Run(Config{
		Cluster:   testCluster(1, 1),
		Scheduler: rrScheduler{},
		Observer:  Observers{nil, a, nil, Observers{}},
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if a.starts != 1 || a.jobs != 1 {
		t.Errorf("observer after nil entry missed events: %+v", a)
	}
}

func TestObserverDecisionEvents(t *testing.T) {
	// A forced preemption must surface as an accepted PreemptionConsidered
	// decision plus epoch markers, and the per-run verdict counts must
	// agree with the engine's Result.
	rec := &struct {
		decisions []PreemptionDecision
		epochs    int
		ends      int
	}{}
	obsv := observerFunc(func(e Event) {
		switch e.Kind {
		case EvPreemptionConsidered:
			rec.decisions = append(rec.decisions, e.Decision)
		case EvEpochStarted:
			rec.epochs++
		case EvEpochEnded:
			rec.ends++
		}
	})
	j := sizedJob(0, 10000, 1000)
	pre := &onceActor{act: func(now units.Time, v *View) []Action {
		return []Action{{Node: 0, Victim: v.Running(0)[0], Starter: v.Queue(0)[0], Urgent: true}}
	}}
	res, err := Run(Config{
		Cluster:    testCluster(1, 1),
		Scheduler:  rrScheduler{},
		Preemptor:  pre,
		Checkpoint: cluster.DefaultCheckpoint(),
		Epoch:      2 * units.Second,
		Observer:   obsv,
	}, mkWorkload([]units.Time{0}, j))
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions != 1 {
		t.Fatalf("fixture expects 1 preemption, got %d", res.Preemptions)
	}
	accepted := 0
	for _, d := range rec.decisions {
		switch d.Verdict {
		case VerdictAccepted, VerdictUrgentOverride:
			accepted++
			if d.Candidate == nil || d.Victim == nil {
				t.Error("accepted decision missing candidate or victim")
			}
		}
	}
	if accepted != res.Preemptions {
		t.Errorf("accepted decisions = %d, want Result.Preemptions = %d", accepted, res.Preemptions)
	}
	// The action was marked urgent, so the verdict must say so.
	if rec.decisions[0].Verdict != VerdictUrgentOverride {
		t.Errorf("verdict = %v, want urgent-override", rec.decisions[0].Verdict)
	}
	if rec.epochs == 0 || rec.epochs != rec.ends {
		t.Errorf("epoch markers unbalanced: %d started, %d ended", rec.epochs, rec.ends)
	}
}

func TestVerdictStrings(t *testing.T) {
	want := map[Verdict]string{
		VerdictAccepted:       "accepted",
		VerdictSuppressedByPP: "suppressed-by-PP",
		VerdictUrgentOverride: "urgent-override",
		VerdictDisorder:       "disorder",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, v.String(), s)
		}
	}
	if RequeueBlindTimeout.String() != "blind-timeout" {
		t.Errorf("RequeueBlindTimeout = %q", RequeueBlindTimeout.String())
	}
}

// TestEventKindStrings pins the kind taxonomy: every kind has its own
// non-fallback name, so tallies and logs keyed by name never collide.
func TestEventKindStrings(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventKind(0); int(k) < NumEventKinds; k++ {
		name := k.String()
		if name == "" || name == fmt.Sprintf("event(%d)", uint8(k)) {
			t.Errorf("EventKind(%d) has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("EventKind(%d) and EventKind(%d) share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := EventKind(NumEventKinds).String(); got != fmt.Sprintf("event(%d)", NumEventKinds) {
		t.Errorf("out-of-range kind = %q", got)
	}
}

// TestObserversDeliverInOrder checks the fan-out contract directly:
// every event reaches every non-nil entry, in slice order.
func TestObserversDeliverInOrder(t *testing.T) {
	var got []string
	tag := func(name string) Observer {
		return observerFunc(func(e Event) { got = append(got, name+":"+e.Kind.String()) })
	}
	fan := Observers{tag("a"), nil, tag("b"), Observers{nil, tag("c")}}
	fan.Observe(Event{Kind: EvTaskStarted})
	fan.Observe(Event{Kind: EvReplayed})
	want := []string{
		"a:task-starts", "b:task-starts", "c:task-starts",
		"a:wal-replays", "b:wal-replays", "c:wal-replays",
	}
	if !slices.Equal(got, want) {
		t.Errorf("delivery = %v, want %v", got, want)
	}
}
