package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"sync"
	"time"

	"shortcutmining/internal/core"
	"shortcutmining/internal/serve"
)

// hotPerConn is the length of each connection's request sequence; a
// run that outlasts it starts the sequence over.
const hotPerConn = 4096

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	statsField = []byte(`"stats":`)
)

// serveHot drives nproc keep-alive connections in a closed loop of
// synchronous POST /v1/simulate requests over a fixed key set that
// setup has already cached, so every request is a cache hit and core
// never runs. Each reply's stats are fingerprinted (CRC-32C of the
// body from the "stats" field on) during the timed window; afterwards
// one reply per distinct (key, fingerprint) is decoded and compared
// with the direct core result, and every op carrying a fingerprint
// that failed the comparison counts as failed.
type serveHot struct {
	s      *server
	keys   []hotKey
	want   [][]byte   // compact JSON of the direct core result, per key
	model  []modelSum // per key
	plan   [][]int
	cursor []int
	phases map[*phase]*hotRecords
}

// hotRecords is what one phase's callers captured for verification.
type hotRecords struct {
	lanes []*hotLane
	stats cacheDelta
}

type hotLane struct {
	l       *lane
	counts  map[hotOp]int64  // replies per (key, fingerprint)
	samples map[hotOp][]byte // first reply body per (key, fingerprint)
	bytes   int64
}

type hotOp struct {
	key int
	crc uint32
}

// cacheDelta is the change of Engine.CacheStats over a phase.
type cacheDelta struct{ before, after serve.CacheStats }

func (d cacheDelta) hitRatio() float64 {
	hits := d.after.Hits - d.before.Hits
	lookups := hits + d.after.Misses - d.before.Misses
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

func (d cacheDelta) evictions() int64 { return d.after.Evictions - d.before.Evictions }

// prepareServeHot generates each connection's seeded key order.
func prepareServeHot(e *env) setupFunc {
	plan := hotPlan(e.seed, len(hotKeys()), e.procs, hotPerConn)
	return func(ctx context.Context, tr *tracer) (workload, error) {
		return setupServeHot(ctx, e, plan, tr)
	}
}

func setupServeHot(ctx context.Context, e *env, plan [][]int, tr *tracer) (workload, error) {
	nets, err := buildNetworks(hotNetworks, tr)
	if err != nil {
		return nil, err
	}
	w := &serveHot{keys: hotKeys(), plan: plan, phases: map[*phase]*hotRecords{}}
	w.cursor = make([]int, e.procs)
	// The direct results stay untraced: core must not show up in the
	// per-layer figures of a workload where the server never runs it.
	st := newStepper(nil, 0)
	for i, k := range w.keys {
		res, err := st.simulate(ctx, nets[k.net], core.Default(), k.strat, int64(-1-i))
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		w.want = append(w.want, b)
		w.model = append(w.model, modelOf(res))
	}
	if w.s, err = startServer(serve.Options{Workers: e.procs}, "", e.procs, tr); err != nil {
		return nil, err
	}
	// Warm-up: every key once, which fills the cache; each reply is
	// checked in full.
	var buf bytes.Buffer
	for i, k := range w.keys {
		status, err := w.s.do(ctx, 0, http.MethodPost, "/v1/simulate", k.body, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, buf.Bytes())
		}
		if err == nil {
			err = w.checkReply(i, buf.Bytes())
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up %s: %w", k.body, err), w.s.close())
		}
	}
	return w, nil
}

// checkReply decodes a /v1/simulate reply and compares its stats with
// the direct core result for key.
func (w *serveHot) checkReply(key int, body []byte) error {
	var reply struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	return sameJSON(reply.Stats, w.want[key])
}

// sameJSON reports whether got (any formatting) encodes exactly want
// (compact).
func sameJSON(got, want []byte) error {
	var c bytes.Buffer
	if err := json.Compact(&c, got); err != nil {
		return err
	}
	if !bytes.Equal(c.Bytes(), want) {
		return fmt.Errorf("reply differs from the direct result")
	}
	return nil
}

func (w *serveHot) run(ctx context.Context, ph *phase) error {
	rec := &hotRecords{}
	w.phases[ph] = rec
	rec.stats.before = w.s.eng.CacheStats()
	var wg sync.WaitGroup
	for c := range w.plan {
		hl := &hotLane{l: ph.newLane(), counts: map[hotOp]int64{}, samples: map[hotOp][]byte{}}
		rec.lanes = append(rec.lanes, hl)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.drive(ctx, ph, c, hl)
		}(c)
	}
	wg.Wait()
	rec.stats.after = w.s.eng.CacheStats()
	return nil
}

// drive is one connection's closed loop.
func (w *serveHot) drive(ctx context.Context, ph *phase, c int, hl *hotLane) {
	l := hl.l
	var buf bytes.Buffer
	deadline := ph.deadline()
	for time.Now().Before(deadline) {
		op := w.cursor[c]
		k := w.plan[c][op%len(w.plan[c])]
		w.cursor[c]++
		start := time.Now()
		status, err := w.s.do(ctx, c, http.MethodPost, "/v1/simulate", w.keys[k].body, &buf)
		end := time.Now()
		if ph.tr != nil {
			ph.tr.record("http.POST /v1/simulate", l.id, int64(op), start, end)
		}
		switch {
		case err != nil:
			l.miss("op %d: %v", op, err)
			continue
		case status == http.StatusTooManyRequests:
			l.rejected++
			l.miss("op %d: refused with 429", op)
			continue
		case status != http.StatusOK:
			l.miss("op %d: status %d", op, status)
			continue
		}
		l.complete(start, end, ph, 1)
		body := buf.Bytes()
		hl.bytes += int64(len(body))
		i := bytes.Index(body, statsField)
		if i < 0 {
			l.fail("op %d: reply has no stats", op)
			continue
		}
		o := hotOp{key: k, crc: crc32.Checksum(body[i:], castagnoli)}
		hl.counts[o]++
		if hl.counts[o] == 1 {
			hl.samples[o] = append([]byte(nil), body...)
		}
	}
}

func (w *serveHot) verify(_ context.Context, ph *phase) error {
	rec := w.phases[ph]
	good := map[hotOp]bool{}
	var replies, bytesRead int64
	for _, hl := range rec.lanes {
		for o, body := range hl.samples {
			if _, seen := good[o]; !seen {
				good[o] = w.checkReply(o.key, body) == nil
			}
		}
		for o, n := range hl.counts {
			replies += n
			if !good[o] {
				hl.l.fail("%d replies for %s differ from the direct core result", n, w.keys[o.key].body)
				hl.l.failed += n - 1
				continue
			}
			m := w.model[o.key]
			for i := int64(0); i < n; i++ {
				hl.l.model.add(m)
			}
		}
		bytesRead += hl.bytes
	}
	ph.extra["serve.cache_hit_ratio"] = rec.stats.hitRatio()
	if replies > 0 {
		ph.extra["serve.cache_evictions_per_kop"] = float64(rec.stats.evictions()) * 1000 / float64(replies)
		ph.extra["serve.resp_kb"] = float64(bytesRead) / 1024 / float64(replies)
	}
	return nil
}

func (w *serveHot) close() error { return w.s.close() }
