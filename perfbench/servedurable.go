package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"sync"
	"time"

	"shortcutmining/internal/core"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/serve"
)

const (
	// durableCheckpointLayers is the engine's checkpoint interval in
	// layer boundaries (scm-serve -checkpoint-layers).
	durableCheckpointLayers = 16
	// durablePlanRate sizes the plan: ops per second of --seconds
	// across all connections, over five times what the engine sustains
	// on a 2-vCPU host, so a run never runs out of distinct keys.
	durablePlanRate = 8000
)

// serveDurable drives nproc connections in a closed loop against an
// engine journaling to a fresh directory on the real filesystem with
// checkpointing on. Every simulation is a distinct cache key. In every
// block of ten ops one is a schedule job, one a journaled simulate
// job and the rest synchronous simulations (see blockOps). For a job
// the caller posts it, waits on Engine.Job(id).Done(), then reads the
// result with one GET /v1/jobs/{id}. Results are fingerprinted during
// the timed window and recomputed directly after it.
type serveDurable struct {
	s      *server
	nets   []*nn.Network // durableNetworks, for the direct recompute
	plan   [][]durableOp
	cursor []int
	phases map[*phase]*durableRecords

	growthMu   sync.Mutex
	lastBytes  int64 // guarded by growthMu: journal footprint at the last sample
	growthSeen int64 // guarded by growthMu: sum of footprint increases
}

type durableRecords struct {
	lanes        []*durableLane
	cache        cacheDelta
	jr0, jr1     journal.Stats
	ckpt0, ckpt1 int64
	growth0      int64
	growth1      int64
}

type durableLane struct {
	l         *lane
	ops       []durableRec
	bytes     int64
	journaled int64     // async jobs, the ops the engine journals
	queueMS   []float64 // started − created, simulate jobs
	runMS     []float64 // finished − started, simulate jobs
	schedMS   []float64 // finished − started, schedule jobs
}

// durableRec is one completed job: its plan entry and the fingerprint
// of the result the server returned.
type durableRec struct {
	op  *durableOp
	crc uint32
}

// jobView is the part of the GET /v1/jobs/{id} document the benchmark
// reads.
type jobView struct {
	State    string          `json:"state"`
	Error    string          `json:"error"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Stats    json.RawMessage `json:"stats"`
	Schedule json.RawMessage `json:"schedule"`
}

// prepareServeDurable generates each connection's distinct-key op
// sequence, sized by --seconds. Jobs are consumed, not cycled, so the
// setups of one run share the plan but each starts an engine with a
// fresh journal and an empty cache.
func prepareServeDurable(e *env) setupFunc {
	perConn := int(e.seconds*durablePlanRate)/e.procs + 64
	plan := durablePlan(e.seed, e.procs, perConn)
	return func(ctx context.Context, tr *tracer) (workload, error) {
		return setupServeDurable(ctx, e, plan, tr)
	}
}

func setupServeDurable(ctx context.Context, e *env, plan [][]durableOp, tr *tracer) (workload, error) {
	nets, err := buildNetworks(durableNetworks, tr)
	if err != nil {
		return nil, err
	}
	w := &serveDurable{
		nets:   nets,
		plan:   plan,
		cursor: make([]int, e.procs),
		phases: map[*phase]*durableRecords{},
	}
	dir, err := os.MkdirTemp(e.work, "journal-")
	if err != nil {
		return nil, err
	}
	opts := serve.Options{Workers: e.procs, CheckpointLayers: durableCheckpointLayers}
	if w.s, err = startServer(opts, dir, e.procs, tr); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	// Warm-up: one job per (network, strategy) and per schedule policy
	// on inputs the plan never draws, each checked in full.
	var buf bytes.Buffer
	st := newStepper(tr, 0)
	for i, op := range durableWarmOps() {
		v, _, _, err := w.submit(ctx, 0, &op, &buf, nil, int64(-1-i))
		if err == nil {
			err = w.checkView(ctx, st, &op, v, int64(-1-i))
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up %s: %w", op.body, err), w.s.close())
		}
	}
	return w, nil
}

// submit sends op on connection c. A synchronous simulation is one
// POST whose reply carries the result. An async job is posted, waited
// on through Engine.Job(id).Done(), then read back with one GET. It
// returns the result document (and, for jobs, the job's timestamps) and
// the instants the POST was sent and the result was ready.
func (w *serveDurable) submit(ctx context.Context, c int, op *durableOp, buf *bytes.Buffer, tr *tracer, id int64) (v jobView, sent, done time.Time, err error) {
	path, name := "/v1/simulate", "http.POST /v1/simulate"
	if op.schedule {
		path, name = "/v1/schedule", "http.POST /v1/schedule"
	}
	sent = time.Now()
	status, err := w.s.do(ctx, c, http.MethodPost, path, op.body, buf)
	posted := time.Now()
	if tr != nil {
		tr.record(name, c, id, sent, posted)
	}
	want := http.StatusAccepted
	if !op.async {
		want = http.StatusOK
	}
	switch {
	case err != nil:
		return v, sent, done, err
	case status == http.StatusTooManyRequests:
		return v, sent, done, errRefused
	case status != want:
		return v, sent, done, fmt.Errorf("POST %s: status %d: %s", path, status, buf.Bytes())
	}
	if !op.async {
		v.State = string(serve.JobDone)
		return v, sent, posted, json.Unmarshal(buf.Bytes(), &v)
	}
	var accepted struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(buf.Bytes(), &accepted); err != nil {
		return v, sent, done, err
	}
	j, ok := w.s.eng.Job(accepted.Job)
	if !ok {
		return v, sent, done, fmt.Errorf("job %q unknown to the engine", accepted.Job)
	}
	select {
	case <-j.Done():
	case <-ctx.Done():
		return v, sent, done, ctx.Err()
	}
	done = time.Now()
	if tr != nil {
		tr.record("serve.Job.Done", c, id, posted, done)
	}
	status, err = w.s.do(ctx, c, http.MethodGet, "/v1/jobs/"+accepted.Job, nil, buf)
	if tr != nil {
		tr.record("http.GET /v1/jobs", c, id, done, time.Now())
	}
	if err != nil {
		return v, sent, done, err
	}
	if status != http.StatusOK {
		return v, sent, done, fmt.Errorf("GET job %s: status %d", accepted.Job, status)
	}
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		return v, sent, done, err
	}
	if v.State != string(serve.JobDone) {
		return v, sent, done, fmt.Errorf("job %s ended %s: %s", accepted.Job, v.State, v.Error)
	}
	return v, sent, done, nil
}

var errRefused = errors.New("refused with 429")

// expected computes op's result directly and returns its compact JSON.
func (w *serveDurable) expected(ctx context.Context, st *stepper, op *durableOp, id int64) ([]byte, modelSum, error) {
	if op.schedule {
		spec, err := sched.ParseSpec(op.spec)
		if err != nil {
			return nil, modelSum{}, err
		}
		res, err := sched.RunContext(ctx, core.Default(), spec, nil)
		if err != nil {
			return nil, modelSum{}, err
		}
		b, err := json.Marshal(res)
		return b, modelSum{}, err
	}
	res, err := st.simulate(ctx, w.nets[op.net], op.config(), op.strat, id)
	if err != nil {
		return nil, modelSum{}, err
	}
	b, err := json.Marshal(res)
	return b, modelOf(res), err
}

// payload is the result document a job view carries for op.
func payload(op *durableOp, v jobView) json.RawMessage {
	if op.schedule {
		return v.Schedule
	}
	return v.Stats
}

// checkView compares a finished job's result with the direct one.
func (w *serveDurable) checkView(ctx context.Context, st *stepper, op *durableOp, v jobView, id int64) error {
	want, _, err := w.expected(ctx, st, op, id)
	if err != nil {
		return err
	}
	return sameJSON(payload(op, v), want)
}

func (w *serveDurable) run(ctx context.Context, ph *phase) error {
	rec := &durableRecords{}
	w.phases[ph] = rec
	rec.cache.before = w.s.eng.CacheStats()
	rec.jr0 = w.s.jr.Stats()
	rec.ckpt0 = w.s.reg.SumCounter(serve.MetricJournalCheckpoints)
	rec.growth0 = w.sampleJournal()
	var wg sync.WaitGroup
	for c := range w.plan {
		dl := &durableLane{l: ph.newLane()}
		rec.lanes = append(rec.lanes, dl)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.drive(ctx, ph, c, dl)
		}(c)
	}
	wg.Wait()
	rec.cache.after = w.s.eng.CacheStats()
	rec.jr1 = w.s.jr.Stats()
	rec.ckpt1 = w.s.reg.SumCounter(serve.MetricJournalCheckpoints)
	rec.growth1 = w.sampleJournal()
	return nil
}

// drive is one connection's closed loop.
func (w *serveDurable) drive(ctx context.Context, ph *phase, c int, dl *durableLane) {
	l := dl.l
	var buf bytes.Buffer
	var fp bytes.Buffer
	deadline := ph.deadline()
	for time.Now().Before(deadline) {
		i := w.cursor[c]
		if i >= len(w.plan[c]) {
			l.fail("connection %d ran out of planned ops", c)
			return
		}
		w.cursor[c]++
		op := &w.plan[c][i]
		id := int64(c)<<32 | int64(i)
		v, sent, done, err := w.submit(ctx, c, op, &buf, ph.tr, id)
		if errors.Is(err, errRefused) {
			l.rejected++
		}
		if err != nil {
			l.miss("op %d/%d: %v", c, i, err)
			continue
		}
		l.complete(sent, done, ph, 1)
		dl.bytes += int64(buf.Len())
		if op.async {
			dl.journaled++
			w.sampleJournal()
		}
		if v.Started != nil && v.Finished != nil {
			run := float64(v.Finished.Sub(*v.Started)) / float64(time.Millisecond)
			if op.schedule {
				dl.schedMS = append(dl.schedMS, run)
			} else {
				dl.queueMS = append(dl.queueMS, float64(v.Started.Sub(v.Created))/float64(time.Millisecond))
				dl.runMS = append(dl.runMS, run)
			}
		}
		fp.Reset()
		if err := json.Compact(&fp, payload(op, v)); err != nil {
			l.fail("op %d/%d: result: %v", c, i, err)
			continue
		}
		dl.ops = append(dl.ops, durableRec{op: op, crc: crc32.Checksum(fp.Bytes(), castagnoli)})
	}
}

// sampleJournal folds the journal's current on-disk footprint into the
// running sum of its increases and returns that sum. Appends grow the
// footprint and compactions shrink it, so summing the increases seen
// between samples (one per finished job) measures bytes appended.
func (w *serveDurable) sampleJournal() int64 {
	w.growthMu.Lock()
	defer w.growthMu.Unlock()
	b := w.s.jr.Stats().Bytes
	if b > w.lastBytes {
		w.growthSeen += b - w.lastBytes
	}
	w.lastBytes = b
	return w.growthSeen
}

func (w *serveDurable) verify(ctx context.Context, ph *phase) error {
	rec := w.phases[ph]
	st := newStepper(ph.tr, 0)
	var ops, jobs, bytesRead int64
	var queueMS, runMS, schedMS []float64
	for _, dl := range rec.lanes {
		for i, r := range dl.ops {
			want, m, err := w.expected(ctx, st, r.op, int64(i))
			if err != nil {
				return err
			}
			if crc32.Checksum(want, castagnoli) != r.crc {
				dl.l.fail("job result for %s differs from the direct result", r.op.body)
				continue
			}
			dl.l.model.add(m)
		}
		ops += int64(len(dl.ops))
		jobs += dl.journaled
		bytesRead += dl.bytes
		queueMS = append(queueMS, dl.queueMS...)
		runMS = append(runMS, dl.runMS...)
		schedMS = append(schedMS, dl.schedMS...)
	}
	if ops == 0 || jobs == 0 {
		return nil
	}
	perJob := func(v int64) float64 { return float64(v) / float64(jobs) }
	ph.extra["serve.cache_hit_ratio"] = rec.cache.hitRatio()
	ph.extra["serve.cache_evictions_per_kop"] = float64(rec.cache.evictions()) * 1000 / float64(ops)
	ph.extra["serve.resp_kb"] = float64(bytesRead) / 1024 / float64(ops)
	ph.extra["serve.queue_wait_ms_p50"] = median(queueMS)
	ph.extra["serve.run_ms_p50"] = median(runMS)
	ph.extra["sched.job_ms_p50"] = median(schedMS)
	ph.extra["journal.appends_per_job"] = perJob(rec.jr1.Appends - rec.jr0.Appends)
	ph.extra["journal.bytes_per_job"] = perJob(rec.growth1 - rec.growth0)
	ph.extra["journal.checkpoints_per_job"] = perJob(rec.ckpt1 - rec.ckpt0)
	ph.extra["journal.compactions"] = float64(rec.jr1.Compactions - rec.jr0.Compactions)
	return nil
}

func (w *serveDurable) close() error { return w.s.close() }
