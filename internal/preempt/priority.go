package preempt

import (
	"dsp/internal/cluster"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// SpeedSource supplies node speeds to the priority evaluation; sim.View
// implements it.
type SpeedSource interface {
	Speed(k cluster.NodeID) float64
	Cluster() *cluster.Cluster
}

// The dependency-aware task priority of Section IV-A is recursive over
// a task's live children (Formula 12):
//
//	P_ij = Σ_{T_ik ∈ S_ij} (γ+1) · P_ik
//
// and for a task with no live dependents it is the weighted combination
// of remaining time, waiting time and allowable waiting time (Formula
// 13), so a task whose completion unlocks many descendants —
// particularly at higher DAG levels, amplified by (γ+1) per level —
// outranks tasks with few or no dependents. Memo evaluates it.
//
// leafPriority is Formula 13: ω₁·(1/t^rem) + ω₂·t^w + ω₃·t^a. It is
// shared by Memo and the recursive reference Calculator in the package
// tests, so the two always agree bit-for-bit.
func leafPriority(p Params, now units.Time, speed float64, t *sim.TaskState) float64 {
	rem := t.LiveRemainingTime(now, speed).Seconds()
	if rem <= 0 {
		rem = 1e-3 // a nearly-finished task has maximal remaining-term urgency
	}
	wait := t.WaitingTime(now).Seconds()
	var allow float64
	if t.Deadline != units.Forever {
		allow = t.AllowableWait(now, speed).Seconds()
		if allow < 0 {
			allow = 0
		}
	}
	return p.Omega1*(1/rem) + p.Omega2*wait + p.Omega3*allow
}

// AvgNeighborGap returns P̄: the mean priority difference between
// neighboring tasks when the given priorities are sorted ascending. The
// neighbor gaps telescope, so P̄ = (max−min)/(n−1). The PP filter
// normalizes priority differences by this gap.
func AvgNeighborGap(priorities []float64) float64 {
	if len(priorities) < 2 {
		return 0
	}
	min, max := priorities[0], priorities[0]
	for _, p := range priorities[1:] {
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	return (max - min) / float64(len(priorities)-1)
}
