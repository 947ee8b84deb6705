package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/greedy"
	"repro/internal/l0"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The staged replay feeds a traced round's exact input through each
// module's public functions in the order the serving path calls them,
// one span per stage: wire decode, WAL append and replay, routing, the
// mode's shard apply / clone / merge / materialize, cover index and
// greedy. Its answer must equal the engine's bit for bit, and the
// stages' self times must add up to the replay's wall time.

// stagedAnswer is the replay's k-cover answer.
type stagedAnswer struct {
	sets     []int
	covered  int
	pStar    float64
	elements int
}

// shardParts holds each batch's share per shard: edges on the sketch
// workloads, ops on dynamic-churn.
type shardParts struct {
	edges [][][]bipartite.Edge
	ops   [][][]bipartite.Op
}

// route splits batches [0, nb) over the shards as the engine does, with
// the partitioner the engine seeds from its config: Split on edge
// batches, Route per op on op batches.
func (b *bench) route(batches [][]bipartite.Op, req int64) shardParts {
	part := distributed.NewPartitioner(b.cfg.Shards, b.cfg.Seed+0x5eed)
	var p shardParts
	b.tr.do("distributed.route", req, func() error {
		if !b.spec.dynamic {
			p.edges = make([][][]bipartite.Edge, len(batches))
			for j := range batches {
				p.edges[j] = part.Split(b.feed.chunk(j))
			}
			return nil
		}
		p.ops = make([][][]bipartite.Op, len(batches))
		for j, ops := range batches {
			p.ops[j] = make([][]bipartite.Op, b.cfg.Shards)
			for _, op := range ops {
				w := part.Route(op.Edge)
				p.ops[j][w] = append(p.ops[j][w], op)
			}
		}
		return nil
	})
	return p
}

// shardCounts is the number of ops routed to each shard.
func (p shardParts) shardCounts(shards int) []float64 {
	counts := make([]float64, shards)
	for _, bs := range p.edges {
		for w, es := range bs {
			counts[w] += float64(len(es))
		}
	}
	for _, bs := range p.ops {
		for w, ops := range bs {
			counts[w] += float64(len(ops))
		}
	}
	return counts
}

// coreReplay runs the sketch layer over routed inserts (the inserts of
// op batches, on dynamic-churn's side replay): AddEdges per shard and
// batch, Clone, MergeAll and Graph.
func (b *bench) coreReplay(p shardParts, req int64, m map[string]float64) (*core.Sketch, *bipartite.Graph, error) {
	params := b.cfg.Params()
	edges := p.edges
	if edges == nil {
		b.tr.do("bench.unpack", req, func() error {
			edges = make([][][]bipartite.Edge, len(p.ops))
			for j, bs := range p.ops {
				edges[j] = make([][]bipartite.Edge, len(bs))
				for w, ops := range bs {
					edges[j][w] = bipartite.InsertEdges(nil, ops)
				}
			}
			return nil
		})
	}
	shards := make([]*core.Sketch, b.cfg.Shards)
	for w := range shards {
		shards[w] = core.MustNewSketch(params)
	}
	applied := 0
	applyID := b.tr.begin("core.apply", req)
	for _, bs := range edges {
		for w, es := range bs {
			shards[w].AddEdges(es)
			applied += len(es)
		}
	}
	b.tr.end(applyID)
	clones := make([]*core.Sketch, len(shards))
	cloneID := b.tr.begin("core.clone", req)
	for w, sk := range shards {
		clones[w] = sk.Clone()
	}
	b.tr.end(cloneID)
	mergeID := b.tr.begin("core.merge", req)
	merged, err := core.MergeAll(params, clones...)
	b.tr.end(mergeID)
	if err != nil {
		return nil, nil, err
	}
	graphID := b.tr.begin("core.graph", req)
	g, _ := merged.Graph()
	b.tr.end(graphID)
	var seen, dropHash int64
	for _, sk := range shards {
		st := sk.Stats()
		seen += st.EdgesSeen
		dropHash += st.DropHash
	}
	m["core.apply_ns_per_edge"] = b.tr.spanMS(applyID) * 1e6 / float64(applied)
	m["core.clone_ms"] = b.tr.spanMS(cloneID)
	m["core.merge_ms"] = b.tr.spanMS(mergeID)
	m["core.graph_ms"] = b.tr.spanMS(graphID)
	m["core.kept_per_seen"] = float64(merged.Stats().EdgesKept) / float64(seen)
	m["core.drop_hash_ratio"] = float64(dropHash) / float64(seen)
	return merged, g, nil
}

// l0Replay runs the dynamic mode's sampler layer over routed ops (or
// routed edges, inserted as the dynamic engine inserts edge batches, on
// the sketch workloads' side replay): Apply per shard and batch, Clone,
// Merge into a fresh sampler, Recover.
func (b *bench) l0Replay(p shardParts, req int64, m map[string]float64) (l0.RecoverResult, error) {
	params := b.cfg.DynamicParams()
	shards := make([]*l0.Sampler, b.cfg.Shards)
	for w := range shards {
		shards[w] = l0.NewSampler(params)
	}
	applied := 0
	applyID := b.tr.begin("l0.apply", req)
	for _, bs := range p.ops {
		for w, ops := range bs {
			shards[w].Apply(ops)
			applied += len(ops)
		}
	}
	for _, bs := range p.edges {
		for w, es := range bs {
			shards[w].AddEdges(es)
			applied += len(es)
		}
	}
	b.tr.end(applyID)
	clones := make([]*l0.Sampler, len(shards))
	cloneID := b.tr.begin("l0.clone", req)
	for w, s := range shards {
		clones[w] = s.Clone()
	}
	b.tr.end(cloneID)
	merged := l0.NewSampler(params)
	mergeID := b.tr.begin("l0.merge", req)
	for _, c := range clones {
		if err := merged.Merge(c); err != nil {
			b.tr.end(mergeID)
			return l0.RecoverResult{}, err
		}
	}
	b.tr.end(mergeID)
	recoverID := b.tr.begin("l0.recover", req)
	rec, err := merged.Recover()
	b.tr.end(recoverID)
	if err != nil {
		return l0.RecoverResult{}, err
	}
	m["l0.apply_ns_per_op"] = b.tr.spanMS(applyID) * 1e6 / float64(applied)
	m["l0.clone_ms"] = b.tr.spanMS(cloneID)
	m["l0.merge_ms"] = b.tr.spanMS(mergeID)
	m["l0.recover_ms"] = b.tr.spanMS(recoverID)
	m["l0.nonzero_cells"] = float64(merged.NonZeroCells())
	return rec, nil
}

// sampleGraph renumbers a recovered sample's elements densely in
// ascending id order, as the dynamic engine does, and builds its graph.
func (b *bench) sampleGraph(edges []bipartite.Edge, req int64) (*bipartite.Graph, int, error) {
	var renum []bipartite.Edge
	var elems int
	b.tr.do("bench.renumber", req, func() error {
		ids := make([]uint32, 0, len(edges))
		for _, e := range edges {
			ids = append(ids, e.Elem)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		idx := make(map[uint32]uint32, len(ids))
		for _, id := range ids {
			if _, ok := idx[id]; !ok {
				idx[id] = uint32(len(idx))
			}
		}
		renum = make([]bipartite.Edge, len(edges))
		for i, e := range edges {
			renum[i] = bipartite.Edge{Set: e.Set, Elem: idx[e.Elem]}
		}
		elems = len(idx)
		return nil
	})
	var g *bipartite.Graph
	err := b.tr.do("bipartite.from_edges", req, func() error {
		var err error
		g, err = bipartite.FromEdges(b.cfg.NumSets, elems, renum)
		return err
	})
	return g, elems, err
}

// walReplay appends the batches to a fresh log as the engine does (edge
// frames for insert-only batches, op frames otherwise), then reopens it
// with a replay callback that only counts.
func (b *bench) walReplay(batches [][]bipartite.Op, req int64, m map[string]float64) error {
	dir := filepath.Join(b.dir, "staged-wal")
	defer os.RemoveAll(dir)
	opts := wal.Options{Dir: dir, Policy: wal.SyncEvery}
	count := func(int64, []bipartite.Op) error { return nil }
	var log *wal.Log
	if err := b.tr.do("wal.open", req, func() error {
		var err error
		log, err = wal.OpenOps(opts, 0, count)
		return err
	}); err != nil {
		return err
	}
	appendID := b.tr.begin("wal.append", req)
	for j, ops := range batches {
		var err error
		if b.spec.dynamic && j >= b.spec.window {
			_, err = log.AppendOps(ops)
		} else {
			_, err = log.Append(b.feed.chunk(j))
		}
		if err != nil {
			b.tr.end(appendID)
			log.Close()
			return err
		}
	}
	b.tr.end(appendID)
	if err := b.tr.do("wal.close", req, log.Close); err != nil {
		return err
	}
	var bytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
	}
	var replayed int64
	replayID := b.tr.begin("wal.replay", req)
	log, err = wal.OpenOps(opts, 0, func(_ int64, ops []bipartite.Op) error {
		replayed += int64(len(ops))
		return nil
	})
	b.tr.end(replayID)
	if err != nil {
		return err
	}
	if err := b.tr.do("wal.close", req, log.Close); err != nil {
		return err
	}
	ops := b.feed.opCount(len(batches))
	if replayed != ops {
		return fmt.Errorf("staged WAL replayed %d ops, appended %d", replayed, ops)
	}
	m["wal.append_us_per_batch"] = b.tr.spanMS(appendID) * 1e3 / float64(len(batches))
	m["wal.bytes_per_op"] = float64(bytes) / float64(ops)
	m["wal.replay_ns_per_op"] = b.tr.spanMS(replayID) * 1e6 / float64(ops)
	return nil
}

// staged replays batches [0, nb) stage by stage, fills the per-layer
// metrics the stages measure and returns the replay's answer and its
// routed shard input.
func (b *bench) staged(nb int, req int64, m map[string]float64) (*stagedAnswer, shardParts, error) {
	f := b.feed
	batches := make([][]bipartite.Op, nb)
	frames := make([][]byte, nb)
	if err := b.tr.do("bench.encode", req, func() error {
		off := int64(0)
		for j := range batches {
			batches[j] = f.opsOf(j, nil)
			var err error
			if f.dynamic {
				frames[j], err = wire.AppendOpBatch(nil, off, batches[j])
			} else {
				frames[j], err = wire.AppendBatch(nil, off, f.chunk(j))
			}
			if err != nil {
				return err
			}
			off += int64(len(batches[j]))
		}
		return nil
	}); err != nil {
		return nil, shardParts{}, err
	}
	ops := float64(f.opCount(nb))

	decodeID := b.tr.begin("wire.decode", req)
	var (
		edgeBuf []bipartite.Edge
		opBuf   []bipartite.Op
		err     error
	)
	for _, fr := range frames {
		if f.dynamic {
			_, err = wire.DecodeOpBatch(fr, &opBuf)
		} else {
			_, err = wire.DecodeBatch(fr, &edgeBuf)
		}
		if err != nil {
			break
		}
	}
	b.tr.end(decodeID)
	if err != nil {
		return nil, shardParts{}, err
	}
	frames = nil
	m["wire.decode_ns_per_op"] = b.tr.spanMS(decodeID) * 1e6 / ops

	if err := b.walReplay(batches, req, m); err != nil {
		return nil, shardParts{}, err
	}
	routeFrom := b.tr.mark()
	parts := b.route(batches, req)
	batches = nil
	m["distributed.route_ns_per_op"] = b.tr.total("distributed.route", routeFrom) * 1e6 / ops
	counts := parts.shardCounts(b.cfg.Shards)
	m["distributed.shard_skew"] = max(counts[0], counts[1]) / (sum(counts) / float64(len(counts)))

	var (
		g   *bipartite.Graph
		ans stagedAnswer
	)
	if f.dynamic {
		rec, err := b.l0Replay(parts, req, m)
		if err != nil {
			return nil, shardParts{}, err
		}
		if g, ans.elements, err = b.sampleGraph(rec.Edges, req); err != nil {
			return nil, shardParts{}, err
		}
		ans.pStar = rec.PStar
	} else {
		merged, sg, err := b.coreReplay(parts, req, m)
		if err != nil {
			return nil, shardParts{}, err
		}
		g, ans.pStar, ans.elements = sg, merged.PStar(), merged.Elements()
		// Sketch.Graph builds its graph with bipartite.FromEdges; time
		// that build on its own, on the merged sketch's kept edges.
		var kept []bipartite.Edge
		b.tr.do("core.for_each_edge", req, func() error {
			merged.ForEachEdge(func(e bipartite.Edge) { kept = append(kept, e) })
			return nil
		})
		if _, _, err := b.sampleGraph(kept, req); err != nil {
			return nil, shardParts{}, err
		}
	}
	m["bipartite.from_edges_ms"] = b.tr.total("bipartite.from_edges", routeFrom)
	indexID := b.tr.begin("bipartite.cover_index", req)
	g.BuildCoverIndex()
	b.tr.end(indexID)
	greedyID := b.tr.begin("greedy.kcover", req)
	res := greedy.MaxCover(g, b.cfg.K)
	b.tr.end(greedyID)
	m["bipartite.cover_index_ms"] = b.tr.spanMS(indexID)
	m["greedy.kcover_ms"] = b.tr.spanMS(greedyID)
	ans.sets, ans.covered = res.Sets, res.Covered
	return &ans, parts, nil
}
