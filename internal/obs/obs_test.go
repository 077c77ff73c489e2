package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsp/internal/cluster"
	"dsp/internal/experiments"
	"dsp/internal/preempt"
	"dsp/internal/prof"
	"dsp/internal/sched"
	"dsp/internal/sim"
	"dsp/internal/trace"
	"dsp/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testCheckpoint is the default checkpoint policy with the interval
// shrunk below the 1 s epoch these fixtures use, satisfying the
// config-time live-lock check (Interval must be < Epoch).
func testCheckpoint() cluster.CheckpointPolicy {
	cp := cluster.DefaultCheckpoint()
	cp.Interval = 500 * units.Millisecond
	return cp
}

// twoJobSim runs a small deterministic workload — two generated jobs on
// a two-node cluster under DSP scheduling and preemption — with the
// given observer attached. The config is tight enough (tiny cluster,
// 1 s epochs) that the preemptor fires ~10 times, so every exporter
// sees task, preemption and epoch events.
func twoJobSim(t *testing.T, o sim.Observer) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Cluster:    cluster.RealCluster(2),
		Scheduler:  sched.NewDSP(),
		Preemptor:  preempt.NewDSP(),
		Checkpoint: testCheckpoint(),
		Period:     units.Minute,
		Epoch:      units.Second,
		Observer:   o,
	}, genWorkload(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 {
		t.Fatal("fixture produced no preemptions; goldens would not cover the preempt path")
	}
	return res
}

// genWorkload builds the deterministic scaled workload for n jobs.
func genWorkload(t *testing.T, jobs int, seed int64) *trace.Workload {
	t.Helper()
	spec := trace.DefaultSpec(jobs, seed)
	spec.TaskScale = 0.02
	spec.MeanTaskSizeMI /= 0.02
	spec.ArrivalRateMin = 3.5
	spec.ArrivalRateMax = 3.5
	w, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// checkGolden byte-compares got against testdata/<name>, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/obs -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (rerun with -update if the change is intended);\ngot %d bytes, want %d", name, len(got), len(want))
	}
}

// chromeTrace mirrors the exported JSON shape for semantic checks.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestTraceGoldenAndShape(t *testing.T) {
	tb := NewTraceBuilder()
	twoJobSim(t, tb)
	var buf bytes.Buffer
	if err := tb.Export(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.golden.json", buf.Bytes())

	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if ct.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", ct.DisplayTimeUnit)
	}

	var spans, preempts, epochs int
	lanes := map[int]map[int]bool{} // pid -> set of tids with task spans
	threadNames := map[int]map[int]bool{}
	for _, ev := range ct.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat == "task":
			spans++
			if ev.Dur < 0 {
				t.Errorf("span %s has negative duration %d", ev.Name, ev.Dur)
			}
			if lanes[ev.PID] == nil {
				lanes[ev.PID] = map[int]bool{}
			}
			lanes[ev.PID][ev.TID] = true
		case ev.Ph == "i" && ev.Cat == "preempt":
			preempts++
		case ev.Ph == "i" && ev.Cat == "epoch":
			epochs++
			if ev.PID != enginePID {
				t.Errorf("epoch marker on pid %d, want engine pid", ev.PID)
			}
		case ev.Ph == "M" && ev.Name == "thread_name":
			if threadNames[ev.PID] == nil {
				threadNames[ev.PID] = map[int]bool{}
			}
			threadNames[ev.PID][ev.TID] = true
		}
	}
	if spans == 0 || preempts == 0 || epochs == 0 {
		t.Fatalf("trace missing event classes: spans=%d preempts=%d epochs=%d", spans, preempts, epochs)
	}
	// Every lane that carries a task span belongs to a real node, is
	// named in the metadata, and stays within the node's slot count.
	slots := cluster.RealCluster(2).Nodes[0].Slots
	for pid, tids := range lanes {
		if pid == enginePID {
			t.Error("task span on the synthetic engine process")
			continue
		}
		for tid := range tids {
			if tid >= slots {
				t.Errorf("node %d uses lane %d, beyond its %d slots", pid, tid, slots)
			}
			if !threadNames[pid][tid] {
				t.Errorf("node %d lane %d has no thread_name metadata", pid, tid)
			}
		}
	}
}

// TestTracePhaseRows: RecordPhases must lay a run's phase breakdown on
// the synthetic "phases" process as consecutive spans with the quantiles
// in the args, and Export must name that process — but only when phase
// rows were actually recorded (so existing goldens stay byte-stable).
func TestTracePhaseRows(t *testing.T) {
	tb := NewTraceBuilder()
	tb.BeginRun("cell-a")
	tb.RecordPhases("cell-a", []prof.PhaseBreakdown{
		{Phase: "schedule", Count: 3, TotalUS: 900, MaxUS: 500, P50US: 200, P95US: 480, P99US: 500},
		{Phase: "event-pump", Count: 40, TotalUS: 100, MaxUS: 10, P50US: 2, P95US: 9, P99US: 10},
	})
	var buf bytes.Buffer
	if err := tb.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("trace with phase rows is not valid JSON: %v", err)
	}
	named := false
	var marker bool
	var spans []string
	var lastEnd int64
	for _, ev := range ct.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name" && ev.PID == profPID:
			named = ev.Args["name"] == "phases"
		case ev.Ph == "i" && ev.Cat == "phase":
			marker = ev.Name == "phases:cell-a" && ev.PID == profPID
		case ev.Ph == "X" && ev.Cat == "phase":
			if ev.PID != profPID {
				t.Errorf("phase span %s on pid %d, want phases pid", ev.Name, ev.PID)
			}
			if ev.TS < lastEnd {
				t.Errorf("phase span %s overlaps the previous one", ev.Name)
			}
			lastEnd = ev.TS + ev.Dur
			if ev.Args["run"] != "cell-a" || ev.Args["count"] == nil || ev.Args["p95_us"] == nil {
				t.Errorf("phase span %s args incomplete: %v", ev.Name, ev.Args)
			}
			spans = append(spans, ev.Name)
		}
	}
	if !named {
		t.Error("phases process not named in metadata")
	}
	if !marker {
		t.Error("run marker missing from the phases row")
	}
	if len(spans) != 2 || spans[0] != "schedule" || spans[1] != "event-pump" {
		t.Errorf("phase spans = %v, want [schedule event-pump]", spans)
	}

	// A builder that never saw phases must not name the process.
	empty := NewTraceBuilder()
	empty.RecordPhases("cell-b", nil)
	buf.Reset()
	if err := empty.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"phases"`)) {
		t.Error("empty RecordPhases still emitted phases metadata")
	}
}

func TestAuditGoldenAndParses(t *testing.T) {
	var buf bytes.Buffer
	aw := NewAuditWriter(&buf)
	twoJobSim(t, aw)
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "audit.golden.jsonl", buf.Bytes())

	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	events := map[string]int{}
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("audit line is not valid JSON: %v\n%s", err, sc.Text())
		}
		ev, _ := line["ev"].(string)
		events[ev]++
	}
	for _, want := range []string{"preempt-considered", "preempted", "epoch"} {
		if events[want] == 0 {
			t.Errorf("audit log has no %q events (saw %v)", want, events)
		}
	}
}

// TestVerdictsMatchResult is the acceptance check for decision-level
// fidelity: summing the PreemptionConsidered verdicts — from the atomic
// counters and independently from the parsed audit JSONL — must exactly
// reproduce the engine's Result.Preemptions and Result.Disorders. SRPT
// is dependency-blind, so it exercises the disorder verdict DSP avoids
// by construction.
func TestVerdictsMatchResult(t *testing.T) {
	for _, tc := range []struct {
		name string
		jobs int
	}{
		{"DSP", 4},
		{"SRPT", 4},
		{"Natjam", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pre, cp, err := experiments.NewPreemptor(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			cp.Interval = 500 * units.Millisecond // below the 1 s epoch
			ctr := NewCounters()
			var buf bytes.Buffer
			aw := NewAuditWriter(&buf)
			res, err := sim.Run(sim.Config{
				Cluster:    cluster.RealCluster(2),
				Scheduler:  sched.NewDSP(),
				Preemptor:  pre,
				Checkpoint: cp,
				Period:     units.Minute,
				Epoch:      units.Second,
				Observer:   sim.Observers{ctr, aw},
			}, genWorkload(t, tc.jobs, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := aw.Flush(); err != nil {
				t.Fatal(err)
			}
			if res.Preemptions == 0 {
				t.Fatal("fixture produced no preemptions")
			}

			// Counters vs engine result.
			accepted := ctr.Verdict(sim.VerdictAccepted) + ctr.Verdict(sim.VerdictUrgentOverride)
			if accepted != int64(res.Preemptions) {
				t.Errorf("accepted+urgent-override = %d, want Result.Preemptions = %d", accepted, res.Preemptions)
			}
			if ctr.Verdict(sim.VerdictDisorder) != int64(res.Disorders) {
				t.Errorf("disorder verdicts = %d, want Result.Disorders = %d", ctr.Verdict(sim.VerdictDisorder), res.Disorders)
			}
			if ctr.Count(sim.EvTaskPreempted) != int64(res.Preemptions) {
				t.Errorf("TaskPreempted events = %d, want %d", ctr.Count(sim.EvTaskPreempted), res.Preemptions)
			}
			if ctr.Count(sim.EvTaskCompleted) != int64(res.TasksCompleted) {
				t.Errorf("TaskCompleted events = %d, want %d", ctr.Count(sim.EvTaskCompleted), res.TasksCompleted)
			}

			// Audit JSONL, recomputed from scratch, agrees with both.
			fromLog := map[string]int{}
			sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var line struct {
					Ev      string `json:"ev"`
					Verdict string `json:"verdict"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatal(err)
				}
				if line.Ev == "preempt-considered" {
					fromLog[line.Verdict]++
				}
			}
			if got := fromLog["accepted"] + fromLog["urgent-override"]; got != res.Preemptions {
				t.Errorf("audit accepted+urgent-override = %d, want %d", got, res.Preemptions)
			}
			if fromLog["disorder"] != res.Disorders {
				t.Errorf("audit disorder lines = %d, want %d", fromLog["disorder"], res.Disorders)
			}
			for verdict, n := range aw.Verdicts {
				if fromLog[verdict] != n {
					t.Errorf("AuditWriter.Verdicts[%q] = %d, reparse says %d", verdict, n, fromLog[verdict])
				}
			}
			if tc.name == "SRPT" && res.Disorders == 0 {
				t.Error("SRPT fixture produced no disorders; disorder verdict path untested")
			}
		})
	}
}

func TestSeriesRecorder(t *testing.T) {
	sr := NewSeriesRecorder()
	sr.PerNode = true
	twoJobSim(t, sr)
	csv := sr.CSV()
	if !strings.Contains(csv, "queued") || !strings.Contains(csv, "slot-util") {
		t.Fatalf("series CSV missing core columns:\n%.200s", csv)
	}
	if !strings.Contains(csv, "node0-run") || !strings.Contains(csv, "node1-wait") {
		t.Errorf("PerNode series missing per-node columns")
	}
	if n := strings.Count(csv, "\n"); n < 10 {
		t.Errorf("series has %d lines, expected one per epoch (many)", n)
	}
	sum := sr.Summary()
	for _, col := range []string{"queued", "p50", "p99", "max"} {
		if !strings.Contains(sum, col) {
			t.Errorf("summary missing %q:\n%s", col, sum)
		}
	}
}

func TestSinkEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sink, err := Open(Options{
		TracePath:  filepath.Join(dir, "trace.json"),
		AuditPath:  filepath.Join(dir, "audit.jsonl"),
		SeriesPath: filepath.Join(dir, "series.csv"),
		Counters:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Enabled() {
		t.Fatal("configured sink reports disabled")
	}
	res := twoJobSim(t, sink)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("sink trace not valid JSON: %v", err)
	}
	for _, f := range []string{"audit.jsonl", "series.csv"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil || st.Size() == 0 {
			t.Errorf("sink artifact %s missing or empty (err=%v)", f, err)
		}
	}
	if got := sink.Counters.Count(sim.EvTaskPreempted); got != int64(res.Preemptions) {
		t.Errorf("sink counters saw %d preemptions, result says %d", got, res.Preemptions)
	}

	var zero Sink
	if zero.Enabled() {
		t.Error("zero Sink reports enabled")
	}
	if err := zero.Close(); err != nil {
		t.Errorf("zero Sink Close: %v", err)
	}
}

func TestSinkBeginRunSeparatesRuns(t *testing.T) {
	dir := t.TempDir()
	sink, err := Open(Options{
		TracePath:  filepath.Join(dir, "trace.json"),
		AuditPath:  filepath.Join(dir, "audit.jsonl"),
		SeriesPath: filepath.Join(dir, "series.csv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sink.BeginRun("first")
	twoJobSim(t, sink)
	sink.BeginRun("second")
	twoJobSim(t, sink)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	audit, _ := os.ReadFile(filepath.Join(dir, "audit.jsonl"))
	if !strings.Contains(string(audit), `"label":"first"`) || !strings.Contains(string(audit), `"label":"second"`) {
		t.Error("audit missing run markers")
	}
	series, _ := os.ReadFile(filepath.Join(dir, "series.csv"))
	if !strings.Contains(string(series), "# first") || !strings.Contains(string(series), "# second") {
		t.Error("series missing run sections")
	}
	tr, _ := os.ReadFile(filepath.Join(dir, "trace.json"))
	if !strings.Contains(string(tr), "run:first") || !strings.Contains(string(tr), "run:second") {
		t.Error("trace missing run markers")
	}
	// Runs are laid out back-to-back: the second run's marker sits at
	// the first run's end, not at zero.
	var ct chromeTrace
	if err := json.Unmarshal(tr, &ct); err != nil {
		t.Fatal(err)
	}
	for _, ev := range ct.TraceEvents {
		if ev.Name == "run:second" && ev.TS == 0 {
			t.Error("second run not offset past the first")
		}
	}
}

func TestCountersSnapshotOrderAndString(t *testing.T) {
	ctr := NewCounters()
	twoJobSim(t, ctr)
	snap := ctr.Snapshot()
	if len(snap) == 0 || snap[0].Name != "task-starts" {
		t.Fatalf("snapshot order unexpected: %v", snap)
	}
	if snap[0].Value == 0 {
		t.Error("no task starts counted")
	}
	s := ctr.String()
	for _, want := range []string{"task-starts", "decisions-considered", "epochs"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// faultedSim runs the two-job fixture under a scripted fault plan plus
// transient task faults and speculation, so every resilience event class
// fires deterministically.
func faultedSim(t *testing.T, o sim.Observer) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Cluster:    cluster.RealCluster(2),
		Scheduler:  sched.NewDSP(),
		Preemptor:  preempt.NewDSP(),
		Checkpoint: testCheckpoint(),
		Period:     units.Minute,
		Epoch:      units.Second,
		Faults: &sim.FaultPlan{
			Failures: []sim.NodeFailure{
				{Node: 1, At: 20 * units.Second, RecoverAfter: 10 * units.Second},
				{Node: 1, At: 60 * units.Second, RecoverAfter: 10 * units.Second},
			},
			Stragglers: []sim.Straggler{
				{Node: 0, At: 40 * units.Second, Factor: 0.1, Duration: 30 * units.Second},
			},
			Tasks: &sim.TaskFaults{Rate: 0.05, Seed: 11},
		},
		BlacklistThreshold: 1.9,
		Speculation:        &sim.Speculation{},
		Observer:           o,
	}, genWorkload(t, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResilienceGoldenAndCounters pins the audit JSONL of a faulted run
// and cross-checks the resilience counters against the engine's result.
func TestResilienceGoldenAndCounters(t *testing.T) {
	ctr := NewCounters()
	var buf bytes.Buffer
	aw := NewAuditWriter(&buf)
	res := faultedSim(t, sim.Observers{ctr, aw})
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "audit_resilience.golden.jsonl", buf.Bytes())

	if res.Retries == 0 || res.Speculations == 0 || res.Blacklistings == 0 {
		t.Fatalf("fixture too tame: retries=%d specs=%d blacklistings=%d",
			res.Retries, res.Speculations, res.Blacklistings)
	}
	checks := []struct {
		name string
		got  int64
		want int
	}{
		{"retries", ctr.Count(sim.EvTaskRetried), res.Retries},
		{"terminal failures", ctr.Count(sim.EvTaskFailedTerminally), res.TerminalFailures},
		{"spec launches", ctr.Count(sim.EvSpeculationLaunched), res.Speculations},
		{"spec wins", ctr.Count(sim.EvSpeculationWon), res.SpeculationWins},
		{"spec cancels", ctr.Count(sim.EvSpeculationCancelled), res.SpeculationCancels},
		{"blacklistings", ctr.Count(sim.EvNodeBlacklisted), res.Blacklistings},
	}
	for _, c := range checks {
		if c.got != int64(c.want) {
			t.Errorf("counter %s = %d, result says %d", c.name, c.got, c.want)
		}
	}

	// The audit log, reparsed, agrees too.
	events := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("audit line not valid JSON: %v\n%s", err, sc.Text())
		}
		ev, _ := line["ev"].(string)
		events[ev]++
	}
	if events["retried"] != res.Retries {
		t.Errorf("audit retried lines = %d, want %d", events["retried"], res.Retries)
	}
	if events["spec-launched"] != res.Speculations {
		t.Errorf("audit spec-launched lines = %d, want %d", events["spec-launched"], res.Speculations)
	}
	if events["blacklisted"] != res.Blacklistings {
		t.Errorf("audit blacklisted lines = %d, want %d", events["blacklisted"], res.Blacklistings)
	}
}

// TestResilienceTraceAndSeries drives the faulted fixture through the
// trace and series exporters: the trace must stay valid Chrome JSON with
// the new instant categories present, the series must grow the retry and
// speculation columns.
func TestResilienceTraceAndSeries(t *testing.T) {
	tb := NewTraceBuilder()
	sr := NewSeriesRecorder()
	faultedSim(t, sim.Observers{tb, sr})
	var buf bytes.Buffer
	if err := tb.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("faulted trace not valid JSON: %v", err)
	}
	cats := map[string]int{}
	for _, ev := range ct.TraceEvents {
		cats[ev.Cat]++
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Errorf("span %s has negative duration", ev.Name)
		}
	}
	if cats["resilience"] == 0 || cats["speculation"] == 0 || cats["fault"] == 0 {
		t.Fatalf("trace missing resilience categories: %v", cats)
	}
	csv := sr.CSV()
	if !strings.Contains(csv, "retries") || !strings.Contains(csv, "speculations") {
		t.Errorf("series CSV missing resilience columns:\n%.200s", csv)
	}
}

func TestStartPprof(t *testing.T) {
	if addr, err := StartPprof(""); err != nil || addr != "" {
		t.Fatalf("empty addr should be a no-op, got %q, %v", addr, err)
	}
	addr, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" || !strings.Contains(addr, ":") {
		t.Fatalf("bad bound address %q", addr)
	}
	if _, err := StartPprof("127.0.0.1:999999"); err == nil {
		t.Error("expected error for invalid port")
	}
}
