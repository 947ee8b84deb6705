package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// bench is one run of one workload.
type bench struct {
	spec    spec
	cfg     server.Config
	feed    *feed
	dir     string
	seconds float64
	trace   bool
	tr      *tracer

	// baseHeap is the live heap with only the generated input resident;
	// heap_live_mb reports what the serving path holds beyond it.
	baseHeap uint64

	attempted, failed int64
	// gates lists every correctness check that failed.
	gates []string
	// corrupt alters each answer before it is checked (self-test only).
	corrupt func(*server.QueryResult)
	// refs memoizes reference answers and coverage ratios by batch count.
	refs map[int]checked
	t0   time.Time
}

// logf reports progress on standard error, stamped with the run's age.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.2fs %s\n", time.Since(b.t0).Seconds(), fmt.Sprintf(format, args...))
}

func newBench(s spec, seed uint64, dir string, seconds float64, trace bool) *bench {
	b := &bench{
		spec:    s,
		cfg:     s.config(),
		dir:     dir,
		seconds: seconds,
		trace:   trace,
		tr:      newTracer(false),
		refs:    map[int]checked{},
		t0:      time.Now(),
	}
	b.feed = newFeed(s, seed)
	b.logf("generated %d edges in %d batches", len(b.feed.edges), b.feed.batches())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.baseHeap = ms.HeapAlloc
	return b
}

// note counts one attempted operation and, if err is set, its failure.
func (b *bench) note(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
	}
	return err
}

func (b *bench) gate(format string, args ...any) {
	b.gates = append(b.gates, fmt.Sprintf(format, args...))
}

// round is one set-up followed by one timed phase.
type round struct {
	traced bool
	// spans delimits the tracer spans the round recorded.
	spanFrom, spanTo int

	setupS     float64
	timedOps   int64
	timedS     float64
	allocPerOp float64
	heapLiveMB float64
	fresh      []float64 // write-to-visible latencies, ms

	batches int // batches sent, warm-up included
	answer  *server.QueryResult
	ratio   float64

	wireStats wire.Stats
	counters  server.Counters
	walSyncs  int64
}

func (b *bench) send(c *wire.Conn, i int) error {
	id := b.tr.begin("wire.send", int64(i))
	err := b.feed.send(c, i)
	b.tr.end(id)
	return b.note(err)
}

func (b *bench) flush(c *wire.Conn, req int64) error {
	id := b.tr.begin("wire.flush", req)
	err := c.Flush()
	b.tr.end(id)
	return b.note(err)
}

func (b *bench) query(st *stack, fresh bool, req int64) (*server.QueryResult, error) {
	name := "http.query"
	if fresh {
		name = "http.query_fresh"
	}
	id := b.tr.begin(name, req)
	res, err := st.query(fresh)
	b.tr.end(id)
	return res, b.note(err)
}

// freshStep sends count batches from batch j on, the last one timed to
// the fresh answer that covers it, and returns the next batch index.
// Traced and untraced rounds make the same calls; only the tracer's
// recording differs.
func (b *bench) freshStep(st *stack, conn *wire.Conn, r *round, j, count int) (int, error) {
	for ; count > 1; count-- {
		if err := b.send(conn, j); err != nil {
			return j, err
		}
		j++
	}
	req := int64(j)
	root := b.tr.begin("fresh", req)
	t := time.Now()
	if err := b.send(conn, j); err != nil {
		return j, err
	}
	j++
	if err := b.flush(conn, req); err != nil {
		return j, err
	}
	res, err := b.query(st, true, req)
	if err != nil {
		return j, err
	}
	r.fresh = append(r.fresh, float64(time.Since(t).Nanoseconds())/1e6)
	b.tr.end(root)
	if want := b.feed.opCount(j); res.SnapshotEdges < want {
		b.gate("fresh answer after batch %d reflects %d ops, want at least %d", j-1, res.SnapshotEdges, want)
	}
	r.answer = res
	return j, nil
}

// probes is the number of layer probes a round of a traced run makes
// after its timed phase.
const probes = 40

// probe splits a fresh answer's path into its layers with one call each,
// after the timed phase so that none of them falls inside a timed
// figure: it sends batch j and flushes, then drains the shard mailboxes
// (Engine.Stats right after the flush is a collect without clone),
// merges (Engine.Refresh), and queries twice without refresh: the
// first query runs greedy on the new snapshot, the second is answered
// from the query cache, so it costs only HTTP and JSON. Every round of
// a traced run probes, traced or not.
func (b *bench) probe(st *stack, conn *wire.Conn, j int) error {
	req := int64(j)
	if err := b.send(conn, j); err != nil {
		return err
	}
	if err := b.flush(conn, req); err != nil {
		return err
	}
	if err := b.tr.do("server.mailbox_drain", req, func() error {
		_, err := st.eng.Stats()
		return b.note(err)
	}); err != nil {
		return err
	}
	if err := b.tr.do("server.refresh", req, func() error {
		_, err := st.eng.Refresh()
		return b.note(err)
	}); err != nil {
		return err
	}
	if _, err := b.query(st, false, req); err != nil {
		return err
	}
	id := b.tr.begin("http.query_cached", req)
	_, err := st.query(false)
	b.tr.end(id)
	return b.note(err)
}

// settle lets the bulk's after-effects pass before latencies are taken:
// it drains the shard mailboxes, merges, waits until the WAL's interval
// syncer has made the log durable, and collects garbage.
func (b *bench) settle(st *stack) error {
	if _, err := st.eng.Stats(); b.note(err) != nil {
		return err
	}
	if _, err := st.eng.Refresh(); b.note(err) != nil {
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ws := st.eng.WALStats()
		if ws.SyncedOffset >= ws.NextOffset {
			break
		}
		if time.Now().After(deadline) {
			return b.note(fmt.Errorf("WAL synced to %d of %d ops after 10s", ws.SyncedOffset, ws.NextOffset))
		}
	}
	runtime.GC()
	return nil
}

// setUp brings the serving path up in the empty directory dir, up to
// the first published snapshot over the warm-up prefix. On error it
// returns whatever it opened, for the caller to close.
func (b *bench) setUp(dir string) (st *stack, conn *wire.Conn, err error) {
	if st, err = startStack(dir, &b.cfg, b.spec.k); b.note(err) != nil {
		return nil, nil, err
	}
	if conn, err = st.dial(); b.note(err) != nil {
		return st, nil, err
	}
	for j := 0; j < b.spec.warmBatches; j++ {
		if err = b.send(conn, j); err != nil {
			return st, conn, err
		}
	}
	if err = b.flush(conn, -1); err != nil {
		return st, conn, err
	}
	_, err = b.query(st, true, -1)
	return st, conn, err
}

// setUpOnly times spec.setups set-ups, each torn down again, so that
// setup_s is a median over more samples than there are rounds.
func (b *bench) setUpOnly() ([]float64, error) {
	var times []float64
	for i := 0; i < b.spec.setups; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", i))
		runtime.GC()
		t0 := time.Now()
		st, conn, err := b.setUp(dir)
		d := time.Since(t0).Seconds()
		if conn != nil {
			conn.Abort()
		}
		if st != nil {
			st.close()
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		times = append(times, d)
	}
	return times, nil
}

// runRound sets the serving path up, runs one timed phase and tears
// the path down again.
func (b *bench) runRound(idx int, traced bool, budget time.Duration) (r *round, err error) {
	s, f := b.spec, b.feed
	dir := filepath.Join(b.dir, fmt.Sprintf("round%d", idx))
	var (
		st   *stack
		conn *wire.Conn
	)
	defer func() {
		if conn != nil {
			conn.Abort()
		}
		if st != nil {
			st.close()
		}
		os.RemoveAll(dir)
	}()
	b.tr.on = traced
	defer func() { b.tr.on = false }()
	r = &round{traced: traced, spanFrom: b.tr.mark()}

	runtime.GC()
	t0 := time.Now()
	if st, conn, err = b.setUp(dir); err != nil {
		return nil, err
	}
	r.setupS = time.Since(t0).Seconds()
	j := s.warmBatches

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	// A traced run keeps the stream's last batches for the probes.
	last := f.batches()
	if b.trace {
		last -= probes
	}
	if s.bulk {
		end := last - s.roundSamples
		for ; j < end; j++ {
			if err = b.send(conn, j); err != nil {
				return nil, err
			}
		}
		if err = b.flush(conn, int64(j)); err != nil {
			return nil, err
		}
		r.timedS = time.Since(start).Seconds()
		r.timedOps = f.opCount(end) - f.opCount(s.warmBatches)
		if err = b.settle(st); err != nil {
			return nil, err
		}
		for j < end+s.roundSamples {
			if j, err = b.freshStep(st, conn, r, j, 1); err != nil {
				return nil, err
			}
		}
	} else {
		deadline := start.Add(budget)
		for j+s.queryEvery <= last && (time.Now().Before(deadline) || len(r.fresh) < s.roundSamples) {
			if j, err = b.freshStep(st, conn, r, j, s.queryEvery); err != nil {
				return nil, err
			}
		}
		r.timedS = time.Since(start).Seconds()
		r.timedOps = f.opCount(j) - f.opCount(s.warmBatches)
	}
	// Allocation covers the whole timed phase: on ingest-bulk the bulk
	// and the fresh queries after it.
	runtime.ReadMemStats(&m1)
	r.allocPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(f.opCount(j)-f.opCount(s.warmBatches))
	r.heapLiveMB = b.liveHeapMB()
	r.batches = j
	if len(r.fresh) < s.roundSamples {
		b.gate("round %d took %d fresh samples, want %d: the stream ran out", idx, len(r.fresh), s.roundSamples)
	}
	b.checkCounts(st, conn, j)
	r.wireStats = st.wire.Stats()
	r.counters = st.eng.Counters()
	r.walSyncs = st.eng.WALStats().Syncs
	if b.trace {
		hits := r.counters.QueryCacheHits
		for ; j < r.batches+probes; j++ {
			if err = b.probe(st, conn, j); err != nil {
				return nil, err
			}
		}
		b.checkCounts(st, conn, j)
		if got := st.eng.Counters().QueryCacheHits - hits; got != probes {
			b.gate("round %d: %d of %d probes' second queries hit the query cache", idx, got, probes)
		}
	}
	r.spanTo = b.tr.mark()
	return r, nil
}

// checkCounts gates that every op of batches [0, nb) is acknowledged
// and counted by the engine.
func (b *bench) checkCounts(st *stack, conn *wire.Conn, nb int) {
	want := b.feed.opCount(nb)
	if got := conn.Watermark(); got != want {
		b.gate("acknowledged watermark %d after %d batches, sent %d ops", got, nb, want)
	}
	if got := st.eng.IngestedEdges(); got != want {
		b.gate("engine counted %d ingested ops after %d batches, acknowledged %d", got, nb, want)
	}
}

// liveHeapMB forces a collection and returns the live heap beyond the
// generated input, in MB.
func (b *bench) liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(b.baseHeap)) / (1 << 20)
}

// run executes the workload's rounds, the crash-recovery phase, the
// correctness gates and, when tracing, the staged replay.
func (b *bench) run() (*result, error) {
	res := &result{Metrics: map[string]metric{}, notes: map[string]string{}}
	var (
		setups  []float64
		rs      []*round
		stateKB float64
		err     error
	)
	if !b.trace {
		setups, err = b.setUpOnly()
		b.logf("set up %d times", len(setups))
	}
	if err == nil {
		rs, err = b.runRounds()
	}
	if err == nil {
		stateKB, err = b.recoveryRound()
	}
	if err == nil {
		for _, r := range rs {
			b.check(r)
		}
		b.logf("checked %d rounds", len(rs))
		if b.trace {
			err = b.perLayer(res, rs)
		} else {
			b.endToEnd(res, rs, setups, stateKB)
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	res.Correct = err == nil && b.failed == 0 && len(b.gates) == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(res.Metrics, name)
			res.Correct = false
		}
	}
	return res, err
}

// runRounds runs the rounds. ingest-bulk repeats rounds until the
// run's seconds are spent; the other workloads split the seconds over
// a fixed number of rounds.
func (b *bench) runRounds() ([]*round, error) {
	s := b.spec
	n := s.rounds
	if b.trace && n%2 == 1 {
		n++ // as many traced as untraced rounds
	}
	budget := time.Duration(b.seconds / float64(s.rounds) * float64(time.Second))
	start := time.Now()
	var rs []*round
	for i := 0; i < n; i++ {
		traced := b.trace && i%2 == 1
		r, err := b.runRound(i, traced, budget)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
		b.logf("round %d (traced %v): %d batches, %d fresh samples, setup %.4fs, eps %.4g, alloc %.4g B/op, heap %.3f MB, fresh p50 %.3f",
			i, traced, r.batches, len(r.fresh), r.setupS, float64(r.timedOps)/r.timedS, r.allocPerOp, r.heapLiveMB, median(r.fresh))
		if s.bulk && i == 0 && !b.trace {
			// Fill the run's seconds with whole rounds.
			if more := int(b.seconds/time.Since(start).Seconds() + 0.5); more > n {
				n = more
			}
		}
	}
	return rs, nil
}

// recoveries is the number of times the recovery round recovers.
const recoveries = 5

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// recoveryRound sets up once more and sends the first
// spec.recoverBatches batches as fast as the server takes them, so the
// WAL holds the same input on every run. It checks the fresh answer,
// measures the state size, crashes the stack (no checkpoint, so the WAL
// holds everything) and recovers it several times, each timed (for the
// per-layer server.recover_ms) from reopening to the first fresh answer,
// which must equal the answer before the crash.
func (b *bench) recoveryRound() (stateKB float64, err error) {
	dir := filepath.Join(b.dir, "recovery")
	defer os.RemoveAll(dir)
	st, conn, err := b.setUp(dir)
	crash := func() error {
		if conn != nil {
			conn.Abort()
		}
		if st == nil {
			return nil
		}
		err := st.close()
		st = nil
		return err
	}
	defer crash()
	if err != nil {
		return 0, err
	}
	nb := min(b.spec.recoverBatches, b.feed.batches())
	for j := b.spec.warmBatches; j < nb; j++ {
		if err := b.send(conn, j); err != nil {
			return 0, err
		}
	}
	if err := b.flush(conn, int64(nb)); err != nil {
		return 0, err
	}
	before, err := b.query(st, true, int64(nb))
	if err != nil {
		return 0, err
	}
	b.checkCounts(st, conn, nb)
	b.check(&round{batches: nb, answer: before})
	var cw countingWriter
	if _, err := st.eng.WriteSnapshot(&cw); b.note(err) != nil {
		return 0, err
	}
	if err := b.note(crash()); err != nil {
		return 0, err
	}
	// Closing synced the log, so no writeback overlaps a recovery. Each
	// recovery reopens the same directory: reopening only adds an empty
	// segment, which leaves the replayed state unchanged.
	b.tr.on = b.trace
	defer func() { b.tr.on = false }()
	for i := 0; i < recoveries; i++ {
		runtime.GC()
		id := b.tr.begin("server.recover", int64(i))
		t := time.Now()
		if st, err = startStack(dir, nil, b.spec.k); b.note(err) != nil {
			return 0, err
		}
		got, err := b.query(st, true, int64(i))
		d := time.Since(t).Seconds()
		b.tr.end(id)
		if err != nil {
			return 0, err
		}
		if err := b.note(crash()); err != nil {
			return 0, err
		}
		b.logf("recovery %d: %.3f s", i, d)
		if !sameAnswer(got, before) {
			b.gate("recovery %d answered %v (covers %d, %d ops), before the crash %v (covers %d, %d ops)",
				i, got.Sets, got.SketchCoverage, got.SnapshotEdges, before.Sets, before.SketchCoverage, before.SnapshotEdges)
		}
	}
	return float64(cw.n) / 1024, nil
}

// sameAnswer compares everything a k-cover answer states about the
// solution and the snapshot it came from, except the snapshot sequence
// number.
func sameAnswer(a, b *server.QueryResult) bool {
	if len(a.Sets) != len(b.Sets) {
		return false
	}
	for i := range a.Sets {
		if a.Sets[i] != b.Sets[i] {
			return false
		}
	}
	return a.SketchCoverage == b.SketchCoverage && a.EstimatedCoverage == b.EstimatedCoverage &&
		a.SampledElements == b.SampledElements && a.PStar == b.PStar && a.SnapshotEdges == b.SnapshotEdges
}
