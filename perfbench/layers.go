package main

import (
	"fmt"
	"math"
)

// perLayer fills the traced run's metrics: live spans and counters from
// the traced rounds, the staged replay of the last traced round (gated
// on its answer and on its stages adding up), a side replay of the
// other engine mode's state layer on the same input, and the tracing
// overhead against the untraced rounds.
func (b *bench) perLayer(res *result, rs []*round) error {
	var traced, untraced []*round
	for _, r := range rs {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return fmt.Errorf("trace run needs traced and untraced rounds, have %d and %d", len(traced), len(untraced))
	}
	m := map[string]float64{}
	live := func(name string) []float64 {
		var out []float64
		for _, r := range traced {
			out = append(out, b.tr.durations(name, r.spanFrom, r.spanTo)...)
		}
		return out
	}
	p50 := func(xs []float64) float64 {
		v, _ := percentile(xs, 0.5)
		return v
	}
	m["wire.send_us_p50"] = p50(live("wire.send")) * 1e3
	m["wire.flush_ms_p50"] = p50(live("wire.flush"))
	m["server.mailbox_drain_ms_p50"] = p50(live("server.mailbox_drain"))
	m["server.refresh_ms_p50"] = p50(live("server.refresh"))
	m["server.http_query_ms_p50"] = p50(live("http.query_cached"))
	m["server.recover_ms"] = median(b.tr.durations("server.recover", 0, len(b.tr.spans)))

	t := traced[len(traced)-1]
	m["wire.bytes_per_op"] = float64(t.wireStats.BytesReceived) / float64(t.wireStats.Edges)
	m["wire.backpressure_stalls"] = float64(t.wireStats.IngestStalls)
	m["wal.syncs"] = float64(t.walSyncs)
	m["server.ingest_stalls"] = float64(t.counters.IngestStalls)
	m["server.refreshes"] = float64(t.counters.Refreshes)
	m["server.refresh_skips"] = float64(t.counters.RefreshSkips)
	m["server.cache_hits"] = float64(t.counters.QueryCacheHits)

	var fresh [2][]float64
	var eps [2][]float64
	for _, r := range rs {
		i := 0
		if r.traced {
			i = 1
		}
		fresh[i] = append(fresh[i], r.fresh...)
		eps[i] = append(eps[i], float64(r.timedOps)/r.timedS)
	}
	m["trace.overhead_fresh_ms_p50"] = p50(fresh[1]) - p50(fresh[0])
	m["trace.overhead_ingest_eps"] = median(eps[1]) - median(eps[0])

	b.tr.on = true
	defer func() { b.tr.on = false }()
	const req = -2
	root := b.tr.begin("staged", req)
	ans, parts, err := b.staged(t.batches, req, m)
	b.tr.end(root)
	if err != nil {
		return fmt.Errorf("staged replay: %w", err)
	}
	got := t.answer
	if fmt.Sprint(ans.sets) != fmt.Sprint(got.Sets) || ans.covered != got.SketchCoverage ||
		ans.pStar != got.PStar || ans.elements != got.SampledElements {
		b.gate("staged replay answered sets %v covering %d of %d sampled (p*=%v); engine: sets %v covering %d of %d (p*=%v)",
			ans.sets, ans.covered, ans.elements, ans.pStar, got.Sets, got.SketchCoverage, got.SampledElements, got.PStar)
	}
	wall := b.tr.spanMS(root)
	selfSum := 0.0
	for layer, ms := range b.tr.layerSelf(root) {
		m[layer+".self_ms"] = ms
		selfSum += ms
	}
	m["staged.wall_ms"] = wall
	m["staged.self_share"] = selfSum / wall
	if math.Abs(selfSum-wall) > 0.10*wall {
		b.gate("staged stages' self times sum to %.1f ms of %.1f ms wall", selfSum, wall)
	}

	// The other mode's state layer on the same routed input, outside the
	// gated replay: l0 on the sketch workloads, core on dynamic-churn.
	side := b.tr.begin("side", req-1)
	if b.spec.dynamic {
		_, _, err = b.coreReplay(parts, req-1, m)
	} else {
		_, err = b.l0Replay(parts, req-1, m)
	}
	b.tr.end(side)
	if err != nil {
		return fmt.Errorf("side replay: %w", err)
	}
	sideSelf := b.tr.layerSelf(side)
	for _, layer := range []string{"core", "l0"} {
		if _, ok := m[layer+".self_ms"]; !ok {
			m[layer+".self_ms"] = sideSelf[layer]
		}
	}
	for name, v := range m {
		res.set(name, v, unitOf(name), "")
	}
	return nil
}

// unitOf derives a per-layer metric's unit from its name's suffix.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us_p50", "us"}, {"_us_per_batch", "us"}, {"_ms_p50", "ms"}, {"_ms", "ms"},
		{"_ns_per_op", "ns"}, {"_ns_per_edge", "ns"}, {"bytes_per_op", "B"},
		{"_eps", "1/s"},
	} {
		if len(name) >= len(u.suffix) && name[len(name)-len(u.suffix):] == u.suffix {
			return u.unit
		}
	}
	switch name {
	case "distributed.shard_skew", "core.kept_per_seen", "core.drop_hash_ratio", "staged.self_share":
		return "ratio"
	}
	return "count"
}
