package main

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/greedy"
	"repro/internal/server"
	"repro/streamcover"
)

// edgeStream streams an edge slice to streamcover's offline algorithms.
type edgeStream struct {
	edges []bipartite.Edge
	pos   int
}

func (s *edgeStream) Next() (streamcover.Edge, bool) {
	if s.pos >= len(s.edges) {
		return streamcover.Edge{}, false
	}
	e := s.edges[s.pos]
	s.pos++
	return streamcover.Edge{Set: e.Set, Elem: e.Elem}, true
}

// reference computes, independently of the serving path, the answer a
// round that sent batches [0, nb) must return. Sketch workloads run the
// offline single-pass streamcover.MaxCoverage with the same options
// over the same stream. dynamic-churn feeds only the surviving inserts
// to a fresh in-memory dynamic engine: the L0 sampler is linear, so the
// two samplers, and the answers, are identical.
func (b *bench) reference(nb int) (*server.QueryResult, error) {
	live := b.feed.live(nb)
	if !b.spec.dynamic {
		res, err := streamcover.MaxCoverage(&edgeStream{edges: live}, b.cfg.NumSets, b.cfg.K, streamcover.Options{
			Eps:        b.cfg.Eps,
			Seed:       b.cfg.Seed,
			NumElems:   b.cfg.NumElems,
			EdgeBudget: b.cfg.EdgeBudget,
		})
		if err != nil {
			return nil, err
		}
		return &server.QueryResult{Sets: res.Sets, EstimatedCoverage: res.EstimatedCoverage}, nil
	}
	cfg := b.cfg
	eng, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	for lo := 0; lo < len(live); lo += batchSize {
		if _, err := eng.Ingest(live[lo : lo+batchSize]); err != nil {
			return nil, err
		}
	}
	return eng.Query(server.Query{Algo: server.AlgoKCover, K: b.cfg.K, Refresh: true})
}

// checked is a reference answer and the coverage ratio it implies.
type checked struct {
	want *server.QueryResult
	// best is offline greedy's coverage of the live instance, g that
	// instance.
	best int
	g    *bipartite.Graph
}

// check gates a round's final answer against its reference and fills
// the round's coverage ratio: the answer's true coverage on the live
// instance over offline greedy's.
func (b *bench) check(r *round) {
	got := r.answer
	if b.corrupt != nil {
		c := *got
		c.Sets = append([]int(nil), got.Sets...)
		b.corrupt(&c)
		got = &c
	}
	ref, ok := b.refs[r.batches]
	if !ok {
		want, err := b.reference(r.batches)
		if err != nil {
			b.gate("reference after %d batches: %v", r.batches, err)
			return
		}
		g, err := bipartite.FromEdges(b.cfg.NumSets, b.cfg.NumElems, b.feed.live(r.batches))
		if err != nil {
			b.gate("live instance after %d batches: %v", r.batches, err)
			return
		}
		ref = checked{want: want, best: greedy.MaxCover(g, b.cfg.K).Covered, g: g}
		b.refs[r.batches] = ref
	}
	if !sameSolution(got, ref.want, b.spec.dynamic) {
		b.gate("answer after %d batches: sets %v estimate %v covers %d; reference: sets %v estimate %v covers %d",
			r.batches, got.Sets, got.EstimatedCoverage, got.SketchCoverage, ref.want.Sets, ref.want.EstimatedCoverage, ref.want.SketchCoverage)
	}
	r.ratio = float64(ref.g.Coverage(got.Sets)) / float64(ref.best)
}

// sameSolution compares an answer with its reference: the chosen sets
// and the coverage estimate, plus, for the dynamic engine, the sample
// the estimate came from.
func sameSolution(got, want *server.QueryResult, dynamic bool) bool {
	if fmt.Sprint(got.Sets) != fmt.Sprint(want.Sets) || got.EstimatedCoverage != want.EstimatedCoverage {
		return false
	}
	if dynamic {
		return got.SketchCoverage == want.SketchCoverage && got.SampledElements == want.SampledElements && got.PStar == want.PStar
	}
	return true
}

// endToEnd fills the untraced run's metrics.
func (b *bench) endToEnd(res *result, rs []*round, setup []float64, stateKB float64) {
	var eps, alloc, heap, ratio, p50s, p95s []float64
	samples := 0
	for _, r := range rs {
		setup = append(setup, r.setupS)
		eps = append(eps, float64(r.timedOps)/r.timedS)
		alloc = append(alloc, r.allocPerOp)
		heap = append(heap, r.heapLiveMB)
		ratio = append(ratio, r.ratio)
		p50, _ := percentile(r.fresh, 0.50)
		p95, beyond := percentile(r.fresh, 0.95)
		if beyond < 10 {
			b.gate("a round's fresh_ms_p95 has %d samples beyond it, want at least 10", beyond)
		}
		p50s = append(p50s, p50)
		p95s = append(p95s, p95)
		samples += len(r.fresh)
	}
	// Interference from other tenants of the machine only ever adds
	// time, so timings take the better quartile over rounds and set-ups
	// rather than the median; sizes and ratios repeat and take the
	// median.
	perRound := fmt.Sprintf("median of %d rounds", len(rs))
	res.set("setup_s", quartile(setup, 0.25), "s", fmt.Sprintf("lower quartile of %d set-ups", len(setup)))
	res.set("ingest_eps", quartile(eps, 0.75), "1/s", fmt.Sprintf("upper quartile of %d rounds", len(rs)))
	res.set("fresh_ms_p50", quartile(p50s, 0.25), "ms", fmt.Sprintf("lower quartile of %d rounds' p50, %d samples", len(rs), samples))
	res.set("fresh_ms_p95", quartile(p95s, 0.25), "ms", fmt.Sprintf("lower quartile of %d rounds' p95, %d samples, at least %d per round", len(rs), samples, b.spec.roundSamples))
	res.set("alloc_b_per_op", median(alloc), "B", perRound)
	res.set("heap_live_mb", median(heap), "MB", perRound)
	res.set("state_kb", stateKB, "KB", "recovery round")
	res.set("coverage_ratio", median(ratio), "ratio", perRound)
	res.set("success_ratio", 1-float64(b.failed)/float64(max(b.attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d operations failed", b.failed, b.attempted))
}
