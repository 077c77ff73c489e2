package obs

import (
	"fmt"
	"strings"
	"sync/atomic"

	"dsp/internal/sim"
)

// Counters is an always-cheap event tally: one atomic per event kind
// plus one per preemption verdict, no allocation per event, safe to
// share across concurrently running simulations (the experiment harness
// may fan out runs; `go test -race` covers this in CI).
type Counters struct {
	kinds [sim.NumEventKinds]atomic.Int64
	// verdicts splits EvPreemptionConsidered by Decision.Verdict;
	// accepted+urgent-override equals the engine's Result.Preemptions,
	// disorder its Result.Disorders.
	verdicts [numVerdicts]atomic.Int64
}

// numVerdicts is the number of sim.Verdict values.
const numVerdicts = int(sim.VerdictDisorder) + 1

// NewCounters returns a zeroed registry.
func NewCounters() *Counters { return &Counters{} }

// Observe implements sim.Observer.
func (c *Counters) Observe(e sim.Event) {
	c.kinds[e.Kind].Add(1)
	if e.Kind == sim.EvPreemptionConsidered && int(e.Decision.Verdict) < numVerdicts {
		c.verdicts[e.Decision.Verdict].Add(1)
	}
}

// Count returns how many events of kind k were observed.
func (c *Counters) Count(k sim.EventKind) int64 { return c.kinds[k].Load() }

// Verdict returns how many preemption decisions ended in verdict v.
func (c *Counters) Verdict(v sim.Verdict) int64 { return c.verdicts[v].Load() }

// Counter is one named tally in a snapshot.
type Counter struct {
	Name  string
	Value int64
}

// snapshotKinds is the fixed Snapshot order. EvEpochEnded,
// EvDisorderDetected (mirrored by the disorder verdict) and
// EvTaskSpanClosed are tallied but not reported.
var snapshotKinds = []sim.EventKind{
	sim.EvTaskStarted, sim.EvTaskCompleted, sim.EvTaskPreempted,
	sim.EvJobCompleted, sim.EvEpochStarted, sim.EvPreemptionConsidered,
	sim.EvNodeFailed, sim.EvNodeRecovered, sim.EvTaskEvicted,
	sim.EvTaskRequeued, sim.EvTaskRetried, sim.EvTaskFailedTerminally,
	sim.EvSpeculationLaunched, sim.EvSpeculationWon, sim.EvSpeculationCancelled,
	sim.EvNodeBlacklisted, sim.EvSolverDegraded, sim.EvJobShed,
	sim.EvJobCancelled, sim.EvInvariantViolated, sim.EvSnapshotTaken,
	sim.EvRecoveryStarted, sim.EvReplayed,
}

// verdictNames are the verdict tallies' names, reported right after
// decisions-considered.
var verdictNames = [numVerdicts]string{
	sim.VerdictAccepted:       "decisions-accepted",
	sim.VerdictSuppressedByPP: "decisions-suppressed-by-pp",
	sim.VerdictUrgentOverride: "decisions-urgent-override",
	sim.VerdictDisorder:       "decisions-disorder",
}

// Snapshot returns the current tallies in a fixed order, named by
// sim.EventKind.String and verdictNames.
func (c *Counters) Snapshot() []Counter {
	out := make([]Counter, 0, len(snapshotKinds)+numVerdicts)
	for _, k := range snapshotKinds {
		out = append(out, Counter{k.String(), c.Count(k)})
		if k == sim.EvPreemptionConsidered {
			for v, name := range verdictNames {
				out = append(out, Counter{name, c.verdicts[v].Load()})
			}
		}
	}
	return out
}

// String renders the snapshot as aligned text, one counter per line.
func (c *Counters) String() string {
	var b strings.Builder
	for _, ct := range c.Snapshot() {
		fmt.Fprintf(&b, "%-28s %d\n", ct.Name, ct.Value)
	}
	return b.String()
}
