package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dsp/internal/dag"
	"dsp/internal/experiments"
	"dsp/internal/serve"
	"dsp/internal/trace"
	"dsp/internal/units"
)

// Serving workloads run an in-process serve.Daemon behind a loopback
// listener the benchmark owns. The daemon's wall-clock pacer (Daemon.Run)
// never runs: the benchmark advances virtual time itself with
// Daemon.Step, one scheduling period at a time, so the simulated work of
// a round is fixed by the seed and does not depend on how fast the host
// serves requests.

// servingShape sizes a serving round.
type servingShape struct {
	platform experiments.Platform
	jobs     int
	// durable enables the daemon's checkpoint directory: submission
	// journal with fsync, engine snapshots and the write-ahead log.
	durable bool
	// maxPending bounds the daemon's task backlog (429 beyond it).
	maxPending int
	// perStep is how many accepted jobs the backlog submitter offers per
	// scheduling period.
	perStep int
}

var (
	durableShape = servingShape{platform: experiments.Real, jobs: 2000, durable: true}
	backlogShape = servingShape{platform: experiments.Real, jobs: 1500, maxPending: 1500, perStep: 60}
)

// scratchDir holds the durable workload's checkpoint directory, inside
// the checkout's build directory.
const scratchDir = ".bench_build/perfbench-scratch"

// serveDurable offers about as many jobs per period as the trace's
// arrival rate (3.5 jobs/min, under RealCluster(50)'s capacity) from two
// closed-loop connections; each sends a POST and then a GET of a seeded
// random earlier job. Durability is on, so every accepted job is
// journaled and fsynced.
func serveDurable(seed int64, traced bool) (*roundResult, error) {
	return runServing(durableShape, seed, traced)
}

// serveBacklog offers several times capacity from one submitting
// connection, which steps the clock on every 429 and every perStep
// accepted jobs, while a second connection reads statuses. No journal.
func serveBacklog(seed int64, traced bool) (*roundResult, error) {
	return runServing(backlogShape, seed, traced)
}

// submitDoc and statusDoc mirror the daemon's POST /jobs and
// GET /jobs/{id} response bodies.
type submitDoc struct {
	ID      int    `json:"id"`
	StampUS int64  `json:"stamp_us"`
	Status  string `json:"status"`
}

type statusDoc struct {
	ID         int    `json:"id"`
	State      string `json:"state"`
	ArrivalUS  int64  `json:"arrival_us"`
	DoneAtUS   int64  `json:"done_at_us"`
	TasksTotal int    `json:"tasks_total"`
	TasksDone  int    `json:"tasks_done"`
}

// rig is one daemon with its HTTP server.
type rig struct {
	d      *serve.Daemon
	srv    *http.Server
	base   string
	served chan error
	ht     *handlerTimer // nil when untraced
	stepMS []float64
}

func startRig(cfg serve.Config, traced bool) (*rig, error) {
	d, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{d: d, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	h := d.Handler()
	if traced {
		r.ht = newHandlerTimer()
		h = r.ht.wrap(h)
	}
	r.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { r.served <- r.srv.Serve(ln) }()
	return r, nil
}

// step advances the daemon's clock to target.
func (r *rig) step(target units.Time) error {
	t0 := time.Now()
	err := r.d.Step(target)
	r.stepMS = append(r.stepMS, msSince(t0, time.Now()))
	return err
}

// close stops the HTTP server and waits for it to exit.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// conn is one client connection with its own latency record.
type conn struct {
	hc       *http.Client
	base     string
	ht       *handlerTimer
	seq      *atomic.Int64
	submitMS []float64
	statusMS []float64
	wireSub  []float64
	wireStat []float64
	accepted map[int]submitDoc
	docs     map[int][]statusDoc
	posts    int
	reads    int
	refused  int
	errs     []error
}

func newConn(r *rig, seq *atomic.Int64) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{
		hc:       &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base:     r.base,
		ht:       r.ht,
		seq:      seq,
		accepted: map[int]submitDoc{},
		docs:     map[int][]statusDoc{},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns its status code and body, recording
// the round trip into lat and, when traced, its wire share into wire.
func (c *conn) do(req *http.Request, lat, wire *[]float64) (int, []byte, error) {
	seq := ""
	if c.ht != nil {
		seq = strconv.FormatInt(c.seq.Add(1), 10)
		req.Header.Set(seqHeader, seq)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := msSince(t0, time.Now())
	if err != nil {
		return 0, nil, err
	}
	*lat = append(*lat, rtt)
	if seq != "" {
		if h, ok := c.ht.take(seq); ok {
			*wire = append(*wire, rtt-h)
		}
	}
	return resp.StatusCode, body, nil
}

// submit posts one job body. It returns true when the daemon accepted it
// and false on a 429; anything else is recorded as an error.
func (c *conn) submit(id int, body []byte) bool {
	c.posts++
	req, err := http.NewRequest(http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		c.errs = append(c.errs, err)
		return false
	}
	code, resp, err := c.do(req, &c.submitMS, &c.wireSub)
	switch {
	case err != nil:
		c.errs = append(c.errs, fmt.Errorf("POST job %d: %w", id, err))
	case code == http.StatusTooManyRequests:
		c.refused++
	case code != http.StatusAccepted:
		c.errs = append(c.errs, fmt.Errorf("POST job %d: status %d: %s", id, code, resp))
	default:
		var doc submitDoc
		if err := json.Unmarshal(resp, &doc); err != nil || doc.ID != id || doc.Status != "accepted" {
			c.errs = append(c.errs, fmt.Errorf("POST job %d: bad body %q (%v)", id, resp, err))
			return false
		}
		c.accepted[id] = doc
		return true
	}
	return false
}

// read fetches one job's status and keeps the document for the
// post-drain comparison.
func (c *conn) read(id int) {
	c.reads++
	req, err := http.NewRequest(http.MethodGet, c.base+"/jobs/"+strconv.Itoa(id), nil)
	if err != nil {
		c.errs = append(c.errs, err)
		return
	}
	code, resp, err := c.do(req, &c.statusMS, &c.wireStat)
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("GET job %d: %w", id, err))
		return
	}
	var doc statusDoc
	if code != http.StatusOK {
		c.errs = append(c.errs, fmt.Errorf("GET job %d: status %d: %s", id, code, resp))
	} else if err := json.Unmarshal(resp, &doc); err != nil || doc.ID != id || doc.TasksDone > doc.TasksTotal {
		c.errs = append(c.errs, fmt.Errorf("GET job %d: bad body %q (%v)", id, resp, err))
	} else {
		c.docs[id] = append(c.docs[id], doc)
	}
}

// runServing runs one serving round: set up the jobs and a fresh daemon,
// drive the load, drain, then check every acknowledged job.
func runServing(sh servingShape, seed int64, traced bool) (*roundResult, error) {
	res := &roundResult{}
	t0 := time.Now()
	w, err := genWorkload(sh.jobs, seed)
	if err != nil {
		return nil, err
	}
	// Clients submit "now": a zero arrival makes the daemon stamp each
	// job with its current virtual clock. periodOf keeps the trace's
	// arrival pattern as the period each job is offered in.
	bodies := make([][]byte, len(w.Jobs))
	periodOf := make([]int, len(w.Jobs))
	for i, j := range w.Jobs {
		periodOf[i] = int(j.Arrival / period)
		j.Arrival = 0
		if bodies[i], err = trace.EncodeJob(j); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	cfg := serve.Config{
		Platform: sh.platform, Scheduler: "DSP", Preemptor: "DSP",
		Period: period, Epoch: epoch, MaxPendingTasks: sh.maxPending,
	}
	if sh.durable {
		cfg.CheckpointDir = filepath.Join(scratchDir, fmt.Sprintf("checkpoint-%d", os.Getpid()))
		if err := os.RemoveAll(cfg.CheckpointDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(cfg.CheckpointDir)
	}
	r, err := startRig(cfg, traced)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	res.workloadS, res.prepareS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	res.setupS = res.workloadS + res.prepareS

	var seq atomic.Int64
	conns := []*conn{newConn(r, &seq), newConn(r, &seq)}
	runtime.GC() // the load starts from a collected heap, as in batch rounds
	ioBefore, ioErr := writeBytes()
	start := time.Now()
	var loadErr error
	if sh.durable {
		loadErr = durableLoad(r, conns, bodies, periodOf, seed)
	} else {
		loadErr = backlogLoad(r, conns, bodies, sh.perStep, seed)
	}
	loadEnd := time.Now()
	final, drainErr := r.d.Drain()
	end := time.Now()
	ioAfter, ioErr2 := writeBytes()
	for _, c := range conns {
		c.close()
	}
	closeErr := r.close()
	if err := errors.Join(loadErr, drainErr, closeErr); err != nil {
		return nil, err
	}
	res.loadS = loadEnd.Sub(start).Seconds()
	res.runS = end.Sub(start).Seconds()
	res.makespanS = final.Makespan.Seconds()

	outcome := fnv.New64a()
	fmt.Fprintf(outcome, "makespan=%d ", final.Makespan)
	posts := 0
	for _, c := range conns {
		posts += c.posts
		res.attempted += c.posts + c.reads
		res.refused += c.refused
		res.errors += len(c.errs)
		for _, e := range c.errs {
			fmt.Fprintln(os.Stderr, "perfbench:", e)
		}
		res.submitMS = append(res.submitMS, c.submitMS...)
		res.statusMS = append(res.statusMS, c.statusMS...)
	}
	// Every acknowledged job must have settled, and every response the
	// clients saw must agree with the final state.
	for id := range w.Jobs {
		var ack submitDoc
		acked := false
		var reads []statusDoc
		for _, c := range conns {
			if a, ok := c.accepted[id]; ok {
				ack, acked = a, true
			}
			reads = append(reads, c.docs[id]...)
		}
		if !acked {
			continue
		}
		res.accepted++
		st, _, ok := r.d.Status(dag.JobID(id))
		bad := !ok || st.State != "completed" || int64(st.Arrival) != ack.StampUS
		for _, doc := range reads {
			bad = bad || doc.ArrivalUS != int64(st.Arrival) || doc.TasksTotal != st.TasksTotal ||
				(doc.State == "completed" && doc.DoneAtUS != int64(st.DoneAt))
		}
		if bad {
			res.errors++
			fmt.Fprintf(os.Stderr, "perfbench: job %d: final status %+v disagrees with acknowledgement %+v or reads %+v\n", id, st, ack, reads)
			continue
		}
		settle := st.DoneAt - st.Arrival
		res.settleS = append(res.settleS, settle.Seconds())
		fmt.Fprintf(outcome, "%d:%d:%d ", id, st.Arrival, settle)
	}
	// Every POST ended as exactly one of 202, 429 or a failure.
	if postErrs := posts - res.accepted - res.refused; postErrs < 0 || postErrs > res.errors {
		res.errors++
		fmt.Fprintf(os.Stderr, "perfbench: %d POSTs != %d accepted + %d refused + failures\n", posts, res.accepted, res.refused)
	}
	res.outcome = fmt.Sprintf("accepted=%d refused=%d jobs=%x", res.accepted, res.refused, outcome.Sum64())

	if traced {
		perJob := 0.0
		if ioErr == nil && ioErr2 == nil && res.accepted > 0 {
			perJob = float64(ioAfter-ioBefore) / float64(res.accepted)
		}
		r.ht.mu.Lock()
		defer r.ht.mu.Unlock()
		var wireSub, wireStat []float64
		for _, c := range conns {
			wireSub = append(wireSub, c.wireSub...)
			wireStat = append(wireStat, c.wireStat...)
		}
		res.samples = map[string]int{
			"serve.submit_handler_ms": len(r.ht.submitMS),
			"serve.status_handler_ms": len(r.ht.statusMS),
			"serve.step_ms":           len(r.stepMS),
			"http.submit_wire_ms":     len(wireSub),
			"http.status_wire_ms":     len(wireStat),
		}
		res.layers = map[string]float64{
			"setup.workload_s":            res.workloadS,
			"setup.prepare_s":             res.prepareS,
			"serve.submit_handler_ms.p50": percentile(r.ht.submitMS, 50),
			"serve.submit_handler_ms.p99": percentile(r.ht.submitMS, 99),
			"serve.status_handler_ms.p50": percentile(r.ht.statusMS, 50),
			"serve.status_handler_ms.p99": percentile(r.ht.statusMS, 99),
			"serve.step_ms.p50":           percentile(r.stepMS, 50),
			"serve.step_ms.p99":           percentile(r.stepMS, 99),
			"serve.step_calls":            float64(len(r.stepMS)),
			"serve.drain_s":               end.Sub(loadEnd).Seconds(),
			"http.submit_wire_ms.p50":     percentile(wireSub, 50),
			"http.status_wire_ms.p50":     percentile(wireStat, 50),
			"serve.accepted":              float64(res.accepted),
			"serve.refused":               float64(res.refused),
			"storage.write_bytes_per_job": perJob,
			"sim.tasks_completed":         float64(final.TasksCompleted),
		}
	}
	return res, nil
}

// durableLoad offers each job in the scheduling period its trace arrival
// falls in. Within a period the two connections take alternate jobs,
// each sending a POST and then a GET of a seeded random job from an
// earlier period (or of the job itself in the first period). When both
// are done the clock steps to the next period boundary.
func durableLoad(r *rig, conns []*conn, bodies [][]byte, periodOf []int, seed int64) error {
	rngs := make([]*rand.Rand, len(conns))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed*31 + int64(i)))
	}
	first := 0
	for p := 0; first < len(bodies); p++ {
		end := first
		for end < len(bodies) && periodOf[end] == p {
			end++
		}
		var wg sync.WaitGroup
		for ci, c := range conns {
			wg.Add(1)
			go func(ci int, c *conn) {
				defer wg.Done()
				for id := first + ci; id < end; id += len(conns) {
					if !c.submit(id, bodies[id]) {
						continue
					}
					target := id
					if first > 0 {
						target = rngs[ci].Intn(first)
					}
					c.read(target)
				}
			}(ci, c)
		}
		wg.Wait()
		if err := r.step(units.Time(p+1) * period); err != nil {
			return err
		}
		first = end
	}
	return nil
}

// backlogLoad submits every job in order from the first connection,
// stepping the clock one period on each 429 (then retrying the job) and
// after every perStep accepted jobs. The second connection reads the
// status of seeded random accepted jobs until the submitter finishes.
// Reads never change engine state, so the refusal count and every
// virtual outcome depend on the seed alone.
func backlogLoad(r *rig, conns []*conn, bodies [][]byte, perStep int, seed int64) error {
	sub, rd := conns[0], conns[1]
	var acked atomic.Int64
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rng := rand.New(rand.NewSource(seed*31 + 1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := acked.Load(); n > 0 {
				rd.read(rng.Intn(int(n)))
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var err error
	clock := units.Time(0)
	accepted := 0
	for id := 0; id < len(bodies) && err == nil; {
		errsBefore := len(sub.errs)
		ok := sub.submit(id, bodies[id])
		switch {
		case ok:
			id++
			accepted++
			acked.Store(int64(id))
			if accepted%perStep == 0 {
				clock += period
				err = r.step(clock)
			}
		case len(sub.errs) > errsBefore:
			id++ // failed outright; counted, not retried
		default: // 429: let a period drain the backlog, then retry
			clock += period
			err = r.step(clock)
		}
	}
	close(stop)
	<-readerDone
	return err
}
