package obs

import (
	"slices"
	"testing"

	"dsp/internal/sim"
)

// snapshotNames is the Counters.Snapshot name list, in order. It is the
// /metrics family set (dsp_<name>) and the -counters table, so it is
// pinned here verbatim.
var snapshotNames = []string{
	"task-starts", "task-completions", "task-preemptions", "job-completions",
	"epochs", "decisions-considered", "decisions-accepted",
	"decisions-suppressed-by-pp", "decisions-urgent-override",
	"decisions-disorder", "node-failures", "node-recoveries",
	"task-evictions", "task-requeues", "task-retries",
	"task-terminal-failures", "speculations-launched", "speculations-won",
	"speculations-cancelled", "node-blacklistings", "solver-degradations",
	"jobs-shed", "job-cancellations", "invariant-violations",
	"snapshots-taken", "recoveries-started", "wal-replays",
}

// TestCountersTallyEveryKind delivers each event kind once (and each
// verdict once) and checks every kind is tallied, the verdicts are
// split, and the snapshot keeps its names and order.
func TestCountersTallyEveryKind(t *testing.T) {
	c := NewCounters()
	for k := sim.EventKind(0); int(k) < sim.NumEventKinds; k++ {
		c.Observe(sim.Event{Kind: k})
	}
	for _, v := range []sim.Verdict{sim.VerdictSuppressedByPP, sim.VerdictUrgentOverride, sim.VerdictDisorder} {
		c.Observe(sim.Event{Kind: sim.EvPreemptionConsidered, Decision: sim.PreemptionDecision{Verdict: v}})
	}
	for k := sim.EventKind(0); int(k) < sim.NumEventKinds; k++ {
		want := int64(1)
		if k == sim.EvPreemptionConsidered {
			want = 4
		}
		if got := c.Count(k); got != want {
			t.Errorf("Count(%v) = %d, want %d", k, got, want)
		}
	}
	for v := sim.VerdictAccepted; v <= sim.VerdictDisorder; v++ {
		if got := c.Verdict(v); got != 1 {
			t.Errorf("Verdict(%v) = %d, want 1", v, got)
		}
	}
	var names []string
	for _, ct := range c.Snapshot() {
		names = append(names, ct.Name)
		if ct.Value == 0 {
			t.Errorf("snapshot %s = 0 after one event of every kind", ct.Name)
		}
	}
	if !slices.Equal(names, snapshotNames) {
		t.Errorf("snapshot names changed:\n got %v\nwant %v", names, snapshotNames)
	}
}
