package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dsp/internal/attrib"
	"dsp/internal/cluster"
	"dsp/internal/preempt"
	"dsp/internal/prof"
	"dsp/internal/sched"
	"dsp/internal/sim"
	"dsp/internal/units"
)

// get fetches path from the server and returns the body.
func get(t *testing.T, addr, path string) string {
	t.Helper()
	body, _ := getFull(t, addr, path)
	return body
}

// getFull fetches path and returns the body plus response headers.
func getFull(t *testing.T, addr, path string) (string, http.Header) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header
}

// checkPromText asserts the body parses as Prometheus text exposition:
// every non-comment line is "name[{labels}] value", every sample name is
// preceded by a TYPE declaration.
func checkPromText(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Errorf("blank line %d in exposition", i+1)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || (parts[3] != "counter" && parts[3] != "gauge") {
				t.Errorf("malformed TYPE line: %s", line)
				continue
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("sample line %d not 'name value': %s", i+1, line)
			continue
		}
		name := fields[0]
		if k := strings.IndexByte(name, '{'); k >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("unterminated label set: %s", line)
			}
			name = name[:k]
		}
		if !strings.HasPrefix(name, "dsp_") {
			t.Errorf("metric %q missing dsp_ prefix", name)
		}
		if !typed[name] {
			t.Errorf("sample %q has no preceding TYPE declaration", name)
		}
	}
}

// fakePhaseTimer builds a deterministically populated phase timer: one
// 2ms ilp-solve sample nested in an 8ms schedule pass.
func fakePhaseTimer() *prof.Timer {
	var now int64
	tm := prof.NewWithClock(func() int64 { return now })
	tm.Enter(prof.PhaseSchedule)
	now += 6e6
	tm.Enter(prof.PhaseILPSolve)
	now += 2e6
	tm.Exit()
	tm.Exit()
	return tm
}

// TestServerEndpoints drives a simulation with the telemetry server
// attached and scrapes all three endpoints: /metrics must be Prometheus
// text whose counters match the live registry, whose attribution gauges
// are present and whose phase profile matches the attached timer;
// /snapshot must decode and carry the schema marker; /healthz must
// answer ok. Every response must be marked uncacheable.
func TestServerEndpoints(t *testing.T) {
	ctr := NewCounters()
	rec := attrib.NewRecorder()
	srv, err := StartServer("127.0.0.1:0", ctr, rec, fakePhaseTimer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(srv.Addr(), ":") {
		t.Fatalf("bad bound address %q", srv.Addr())
	}
	res := twoJobSim(t, sim.Observers{ctr, rec, srv})

	for _, path := range []string{"/metrics", "/snapshot", "/healthz"} {
		_, hdr := getFull(t, srv.Addr(), path)
		if cc := hdr.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s Cache-Control = %q, want no-store", path, cc)
		}
	}
	if got := get(t, srv.Addr(), "/healthz"); strings.TrimSpace(got) != "ok" {
		t.Errorf("/healthz = %q, want ok", got)
	}

	body := get(t, srv.Addr(), "/metrics")
	checkPromText(t, body)
	for _, want := range []string{
		`dsp_schema_info{schema="` + TelemetrySchema + `"} 1`,
		"dsp_task_starts ",
		"dsp_attrib_jobs ",
		`dsp_attrib_seconds{cause="service"}`,
		"dsp_total_slots ",
		`dsp_phase_count{phase="schedule"} 1`,
		`dsp_phase_count{phase="ilp-solve"} 1`,
		`dsp_phase_seconds_total{phase="schedule"} 0.006`,
		`dsp_phase_seconds_total{phase="ilp-solve"} 0.002`,
		`dsp_phase_seconds{phase="ilp-solve",quantile="max"} 0.002`,
		`dsp_phase_seconds{phase="ilp-solve",quantile="0.95"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	wantLine := "dsp_task_completions " + strconv.FormatInt(ctr.Count(sim.EvTaskCompleted), 10)
	if !strings.Contains(body, wantLine+"\n") {
		t.Errorf("/metrics does not carry the live counter value %q", wantLine)
	}

	var snap struct {
		Schema   string           `json:"schema"`
		Epoch    EpochSnapshot    `json:"epoch"`
		Counters map[string]int64 `json:"counters"`
		Attrib   *struct {
			Jobs  int          `json:"jobs"`
			Blame attrib.Blame `json:"blame"`
		} `json:"attrib"`
		Phases []prof.PhaseBreakdown `json:"phases"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.Addr(), "/snapshot")), &snap); err != nil {
		t.Fatalf("/snapshot not valid JSON: %v", err)
	}
	if snap.Schema != TelemetrySchema {
		t.Errorf("snapshot schema = %q, want %q", snap.Schema, TelemetrySchema)
	}
	if snap.Counters["task-completions"] != ctr.Count(sim.EvTaskCompleted) {
		t.Errorf("snapshot counter %d, registry %d",
			snap.Counters["task-completions"], ctr.Count(sim.EvTaskCompleted))
	}
	if snap.Attrib == nil || snap.Attrib.Jobs != res.JobsCompleted {
		t.Errorf("snapshot attrib = %+v, want %d jobs", snap.Attrib, res.JobsCompleted)
	}
	if snap.Epoch.TotalSlots == 0 {
		t.Error("snapshot epoch gauges never sampled")
	}
	if len(snap.Phases) != 2 || snap.Phases[0].Phase != "schedule" || snap.Phases[0].TotalUS != 6000 {
		t.Errorf("snapshot phases = %+v, want schedule 6000µs first", snap.Phases)
	}
}

// TestServerConcurrentScrapeDuringRun hammers all three endpoints from
// goroutines while a simulation records into the same counters and phase
// timer the server is exposing. Under -race this proves a scrape never
// tears live stats; afterwards the exposition must still parse and carry
// the hot-path phases the run populated.
func TestServerConcurrentScrapeDuringRun(t *testing.T) {
	ctr := NewCounters()
	tm := prof.New()
	srv, err := StartServer("127.0.0.1:0", ctr, nil, tm)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/snapshot", "/healthz"} {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get("http://" + srv.Addr() + p)
					if err != nil {
						t.Errorf("GET %s during run: %v", p, err)
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining a scrape
					resp.Body.Close()
				}
			}(path)
		}
	}

	res, err := sim.Run(sim.Config{
		Cluster:    cluster.RealCluster(2),
		Scheduler:  sched.NewDSP(),
		Preemptor:  preempt.NewDSP(),
		Checkpoint: testCheckpoint(),
		Period:     units.Minute,
		Epoch:      units.Second,
		Observer:   sim.Observers{ctr, srv},
		Prof:       tm,
	}, genWorkload(t, 2, 1))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted == 0 {
		t.Fatal("fixture completed no jobs")
	}

	body := get(t, srv.Addr(), "/metrics")
	checkPromText(t, body)
	for _, phase := range []string{"setup", "schedule", "epoch-policy", "event-pump"} {
		if !strings.Contains(body, `dsp_phase_count{phase="`+phase+`"}`) {
			t.Errorf("/metrics after run missing phase %q:\n%.400s", phase, body)
		}
	}
}

// TestSinkListen exercises the Sink wiring: ListenAddr implies counters,
// starts the server with the configured phase timer, and Close shuts it
// down.
func TestSinkListen(t *testing.T) {
	sink, err := Open(Options{ListenAddr: "127.0.0.1:0", Prof: fakePhaseTimer()})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Counters == nil || sink.Attrib == nil || sink.Telemetry == nil {
		t.Fatal("ListenAddr did not attach counters+attrib+server")
	}
	if !sink.Enabled() {
		t.Fatal("sink with server reports disabled")
	}
	twoJobSim(t, sink)
	addr := sink.Telemetry.Addr()
	body := get(t, addr, "/metrics")
	if !strings.Contains(body, "dsp_job_completions ") {
		t.Errorf("/metrics via sink missing job completions:\n%.300s", body)
	}
	if !strings.Contains(body, `dsp_phase_seconds{phase="ilp-solve",quantile="0.99"}`) {
		t.Errorf("/metrics via sink missing phase quantiles:\n%.300s", body)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still serving after Close")
	}
}
