package main

import (
	"bufio"
	"bytes"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"dsp/internal/prof"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// Tracing. Traced rounds time calls into each layer's public boundary
// from the benchmark's side: sim.Scheduler.Schedule (sched, baselines),
// sim.Preemptor.Epoch (preempt, baselines), the serve daemon's HTTP
// handler, Daemon.Step and Daemon.Drain. Nothing inside the program is
// instrumented, so untraced rounds run the program exactly as shipped.

// layerNames lists every per-layer metric, in report order.
var layerNames = []struct{ name, unit string }{
	{"preempt.busy_s", "s"},
	{"preempt.calls", "count"},
	{"preempt.actions", "count"},
	{"preempt.accept_ratio", "ratio"},
	{"preempt.busy_s.dsp", "s"},
	{"preempt.busy_s.dsp-wo-pp", "s"},
	{"preempt.busy_s.natjam", "s"},
	{"preempt.busy_s.amoeba", "s"},
	{"preempt.busy_s.srpt", "s"},
	{"sched.busy_s", "s"},
	{"sched.calls", "count"},
	{"sched.assignments", "count"},
	{"sched.busy_s.dsp", "s"},
	{"sched.busy_s.aalo", "s"},
	{"sched.busy_s.tetris-simdep", "s"},
	{"sched.busy_s.tetris-wodep", "s"},
	{"sim.self_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.tasks_completed", "count"},
	{"setup.workload_s", "s"},
	{"setup.prepare_s", "s"},
	{"serve.submit_handler_ms.p50", "ms"},
	{"serve.submit_handler_ms.p99", "ms"},
	{"serve.status_handler_ms.p50", "ms"},
	{"serve.status_handler_ms.p99", "ms"},
	{"serve.step_ms.p50", "ms"},
	{"serve.step_ms.p99", "ms"},
	{"serve.step_calls", "count"},
	{"serve.drain_s", "s"},
	{"http.submit_wire_ms.p50", "ms"},
	{"http.status_wire_ms.p50", "ms"},
	{"serve.accepted", "count"},
	{"serve.refused", "count"},
	{"storage.write_bytes_per_job", "B"},
	{"bench.trace_overhead", "ratio"},
}

// methodKey maps the experiments registry names to metric suffixes.
var methodKey = map[string]string{
	"DSP":            "dsp",
	"DSPW/oPP":       "dsp-wo-pp",
	"Natjam":         "natjam",
	"Amoeba":         "amoeba",
	"SRPT":           "srpt",
	"Aalo":           "aalo",
	"TetrisW/SimDep": "tetris-simdep",
	"TetrisW/oDep":   "tetris-wodep",
}

// span accumulates the time spent in one boundary and what it returned.
type span struct {
	busy  time.Duration
	calls int
	items int // assignments or proposed actions
}

func (s *span) time(t0 time.Time, items int) {
	s.busy += time.Since(t0)
	s.calls++
	s.items += items
}

func (s *span) merge(o span) {
	s.busy += o.busy
	s.calls += o.calls
	s.items += o.items
}

// cellTracer holds one batch cell's spans.
type cellTracer struct {
	sched, preempt span
}

// traceCell wraps cfg's scheduler and preemptor so their calls are timed.
func traceCell(cfg *sim.Config) *cellTracer {
	ct := &cellTracer{}
	cfg.Scheduler = &tracedScheduler{inner: cfg.Scheduler, span: &ct.sched}
	if cfg.Preemptor != nil {
		cfg.Preemptor = &tracedPreemptor{inner: cfg.Preemptor, span: &ct.preempt}
	}
	return ct
}

// tracedScheduler times Schedule. It also answers every optional
// interface the engine type-asserts on a scheduler exactly as the
// wrapped one would: a wrapper that hid sim.DependencyBlind would turn
// TetrisW/oDep into a dependency-aware scheduler and change its results.
type tracedScheduler struct {
	inner sim.Scheduler
	span  *span
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Schedule(now units.Time, pending []*sim.JobState, view *sim.View) []sim.Assignment {
	t0 := time.Now()
	out := s.inner.Schedule(now, pending, view)
	s.span.time(t0, len(out))
	return out
}

// DependencyBlind reports the wrapped scheduler's answer; the engine
// treats "not implemented" and false alike.
func (s *tracedScheduler) DependencyBlind() bool {
	db, ok := s.inner.(sim.DependencyBlind)
	return ok && db.DependencyBlind()
}

// DurableState forwards to a sim.DurableComponent; for any other
// scheduler it returns no state, which the engine records and restores
// as "none", the same as for a scheduler without the interface.
func (s *tracedScheduler) DurableState() ([]byte, error) {
	if dc, ok := s.inner.(sim.DurableComponent); ok {
		return dc.DurableState()
	}
	return nil, nil
}

func (s *tracedScheduler) RestoreDurableState(b []byte) error {
	if dc, ok := s.inner.(sim.DurableComponent); ok {
		return dc.RestoreDurableState(b)
	}
	return nil
}

func (s *tracedScheduler) SetProfiler(t *prof.Timer) { setProfiler(s.inner, t) }

// tracedPreemptor times Epoch and forwards prof.Instrumentable, the one
// optional interface the engine asserts on a preemptor.
type tracedPreemptor struct {
	inner sim.Preemptor
	span  *span
}

func (p *tracedPreemptor) Name() string { return p.inner.Name() }

func (p *tracedPreemptor) Epoch(now units.Time, view *sim.View) []sim.Action {
	t0 := time.Now()
	out := p.inner.Epoch(now, view)
	p.span.time(t0, len(out))
	return out
}

func (p *tracedPreemptor) SetProfiler(t *prof.Timer) { setProfiler(p.inner, t) }

func setProfiler(x any, t *prof.Timer) {
	if in, ok := x.(prof.Instrumentable); ok {
		in.SetProfiler(t)
	}
}

// batchLayers sums the traced cells of one batch round.
type batchLayers struct {
	sched, preempt           span
	schedBy, preemptBy       map[string]time.Duration
	events, tasks, preempted int
}

func (l *batchLayers) add(c batchCell, ct *cellTracer, e *sim.Engine, r *sim.Result) {
	if l.schedBy == nil {
		l.schedBy, l.preemptBy = map[string]time.Duration{}, map[string]time.Duration{}
	}
	l.sched.merge(ct.sched)
	l.schedBy[methodKey[c.scheduler]] += ct.sched.busy
	if c.preemptor != "" {
		l.preempt.merge(ct.preempt)
		l.preemptBy[methodKey[c.preemptor]] += ct.preempt.busy
	}
	l.events += e.EventsFired()
	l.tasks += r.TasksCompleted
	l.preempted += r.Preemptions
}

func (l *batchLayers) metrics(res *roundResult) map[string]float64 {
	self := res.runS - l.sched.busy.Seconds() - l.preempt.busy.Seconds()
	m := map[string]float64{
		"preempt.busy_s":      l.preempt.busy.Seconds(),
		"preempt.calls":       float64(l.preempt.calls),
		"preempt.actions":     float64(l.preempt.items),
		"sched.busy_s":        l.sched.busy.Seconds(),
		"sched.calls":         float64(l.sched.calls),
		"sched.assignments":   float64(l.sched.items),
		"sim.self_s":          self,
		"sim.events":          float64(l.events),
		"sim.tasks_completed": float64(l.tasks),
		"setup.workload_s":    res.workloadS,
		"setup.prepare_s":     res.prepareS,
	}
	if l.preempt.items > 0 {
		m["preempt.accept_ratio"] = float64(l.preempted) / float64(l.preempt.items)
	}
	if l.events > 0 {
		m["sim.ns_per_event"] = self * 1e9 / float64(l.events)
	}
	for k, d := range l.schedBy {
		m["sched.busy_s."+k] = d.Seconds()
	}
	for k, d := range l.preemptBy {
		m["preempt.busy_s."+k] = d.Seconds()
	}
	return m
}

// handlerTimer wraps the daemon's HTTP handler and records how long each
// job request spent inside it. Requests carrying a seqHeader also get
// their handler time filed under that number, so the client can subtract
// it from its round trip (the wire share).
type handlerTimer struct {
	mu                 sync.Mutex
	submitMS, statusMS []float64
	bySeq              map[string]float64
}

const seqHeader = "X-Perfbench-Seq"

func newHandlerTimer() *handlerTimer { return &handlerTimer{bySeq: map[string]float64{}} }

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		ms := msSince(t0, time.Now())
		h.mu.Lock()
		defer h.mu.Unlock()
		if r.Method == http.MethodPost {
			h.submitMS = append(h.submitMS, ms)
		} else {
			h.statusMS = append(h.statusMS, ms)
		}
		if seq := r.Header.Get(seqHeader); seq != "" {
			h.bySeq[seq] = ms
		}
	})
}

// take returns and forgets the handler time filed under seq. The handler
// records before net/http flushes the response, so by the time the
// client has read it the entry is there; the loop only covers a
// scheduler delay between the two.
func (h *handlerTimer) take(seq string) (float64, bool) {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		h.mu.Lock()
		ms, ok := h.bySeq[seq]
		delete(h.bySeq, seq)
		h.mu.Unlock()
		if ok {
			return ms, true
		}
	}
	return 0, false
}

// heapSampler tracks the peak of the collector's heap goal: the heap
// size the runtime lets the process reach before it collects, i.e. the
// peak live heap plus the GOGC headroom. Unlike a sampled heap size it
// does not depend on where between two collections a sample lands.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		peak := 0.0
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap goal in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// writeBytes returns this process's storage write_bytes counter from
// /proc/self/io: the bytes it caused to be sent to the storage layer.
func writeBytes() (int64, error) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("write_bytes: ")); ok {
			return strconv.ParseInt(string(v), 10, 64)
		}
	}
	return 0, nil
}
