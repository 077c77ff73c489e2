package preempt

import (
	"dsp/internal/sim"
	"dsp/internal/units"
)

// Calculator is the reference evaluator of the Section IV-A priority:
// Formula 12 by direct recursion over live children with a per-call
// cache, Formula 13 (leafPriority) at the leaves. It is the oracle Memo
// is checked against.
type Calculator struct {
	P     Params
	now   units.Time
	view  SpeedSource
	cache map[*sim.TaskState]float64
}

// NewCalculator builds a calculator for one epoch evaluation at time now.
func NewCalculator(p Params, now units.Time, v SpeedSource) *Calculator {
	return &Calculator{P: p, now: now, view: v, cache: make(map[*sim.TaskState]float64)}
}

// speedFor returns the execution speed used for a task's remaining-time
// terms: its assigned node's speed, or the cluster mean for unassigned
// tasks.
func (c *Calculator) speedFor(t *sim.TaskState) float64 {
	if t.Node >= 0 {
		return c.view.Speed(t.Node)
	}
	return c.view.Cluster().MeanSpeed()
}

// Priority returns P at the calculator's evaluation time.
func (c *Calculator) Priority(t *sim.TaskState) float64 {
	if v, ok := c.cache[t]; ok {
		return v
	}
	// DAGs are acyclic, so recursion terminates; diamond sharing is
	// handled by the memo.
	var p float64
	liveChildren := 0
	if !c.P.FlatPriority {
		for _, ch := range t.Job.Dag.Children(t.Task.ID) {
			cs := t.Job.Tasks[ch]
			if cs.Phase == sim.Done {
				continue
			}
			liveChildren++
			p += (c.P.Gamma + 1) * c.Priority(cs)
		}
	}
	if liveChildren == 0 {
		p = c.leaf(t)
	}
	c.cache[t] = p
	return p
}

// leaf evaluates Formula 13.
func (c *Calculator) leaf(t *sim.TaskState) float64 {
	return leafPriority(c.P, c.now, c.speedFor(t), t)
}
