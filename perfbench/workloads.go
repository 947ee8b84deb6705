package main

import (
	"repro/internal/bipartite"
	"repro/internal/hashing"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// batchSize is the number of edges a batch carries on the wire. On
// dynamic-churn a batch also carries the deletes of one older batch.
const batchSize = 1024

// spec sizes one workload. Every workload streams a shuffled Zipf
// instance (heavy-tailed set sizes and element popularity) into two
// shards, the load for a two-core machine.
type spec struct {
	name    string
	dynamic bool

	// The instance: sets over elems elements with Zipf-shaped set sizes
	// (largest maxSize, exponent sizeAlpha) and element popularity
	// (exponent elemAlpha), as workload.Zipf generates them.
	sets, elems, maxSize int
	sizeAlpha, elemAlpha float64

	// The engine: k-cover size and the per-shard sketch edge budget (on
	// dynamic-churn it sizes the L0 sampler's cells instead).
	k, budget int

	// warmBatches are sent during set-up, before the timed phase.
	warmBatches int
	// bulk sends the stream, up to its last roundSamples batches, as
	// fast as the server takes it; each batch of that tail is then
	// followed by a fresh query. Without bulk, the timed phase repeats
	// queryEvery batches and one fresh query for the round's share of
	// the run time, and for at least roundSamples queries.
	bulk       bool
	queryEvery int
	// window: batch i deletes the edges batch i−window inserted.
	window int

	// rounds is the least number of rounds (a set-up and a timed phase)
	// per run; setups the number of further set-ups a run times alone.
	// roundSamples is the least number of fresh-query latencies a round
	// takes, so that its p95 has at least ten samples beyond it.
	rounds, setups, roundSamples int
	// recoverBatches is the stream prefix the recovery round logs.
	recoverBatches int
}

func (s spec) config() server.Config {
	cfg := server.Config{
		NumSets:    s.sets,
		K:          s.k,
		Eps:        0.5,
		Seed:       7,
		NumElems:   s.elems,
		EdgeBudget: s.budget,
		Shards:     2,
	}
	if s.dynamic {
		cfg.Engine = server.ModeDynamic
	}
	return cfg
}

var specs = map[string]spec{
	// The paper's sampled regime: a ~10M-edge stream into sketches of 16k
	// edges per shard. Wire decode, WAL append, routing and the sketch's
	// bar-first filter do almost all the work; refresh and greedy almost
	// none.
	"ingest-bulk": {
		name: "ingest-bulk",
		sets: 4000, elems: 400_000, maxSize: 80_000, sizeAlpha: 0.5, elemAlpha: 0.8,
		k: 20, budget: 16_384,
		warmBatches: 64, bulk: true,
		rounds: 4, setups: 10, roundSamples: 200,
		recoverBatches: 1 << 20,
	},
	// A kept state of 30k edges per shard, so one refresh (clone, merge,
	// graph, cover index, greedy, JSON) costs tens of milliseconds; one
	// batch is written before every fresh query.
	"fresh-query": {
		name: "fresh-query",
		sets: 2000, elems: 200_000, maxSize: 45_000, sizeAlpha: 0.6, elemAlpha: 0.8,
		k: 20, budget: 30_000,
		warmBatches: 512, queryEvery: 1,
		rounds: 4, setups: 15, roundSamples: 200,
		recoverBatches: 2048,
	},
	// Dynamic (L0) mode over a sliding window of 64 batches: every batch
	// inserts 1024 new edges and deletes the 1024 inserted 64 batches
	// earlier; a fresh query follows every fourth batch.
	"dynamic-churn": {
		name: "dynamic-churn", dynamic: true,
		sets: 2000, elems: 200_000, maxSize: 60_000, sizeAlpha: 0.6, elemAlpha: 0.8,
		k: 20, budget: 8000,
		warmBatches: 64, queryEvery: 4, window: 64,
		rounds: 4, setups: 15, roundSamples: 200,
		recoverBatches: 512,
	},
}

// feed is a workload's input: the shuffled instance stream, cut into
// batches. It is generated once per run, outside all timing.
type feed struct {
	edges   []bipartite.Edge
	dynamic bool
	window  int
	scratch []bipartite.Op
}

// newFeed generates the workload's instance with workload.Zipf and
// shuffles its edges, as stream.Shuffled does, both from the seed. The
// stream is cut to whole batches.
func newFeed(s spec, seed uint64) *feed {
	edges := workload.Zipf(s.sets, s.elems, s.maxSize, s.sizeAlpha, s.elemAlpha, seed).G.Edges(nil)
	hashing.NewRNG(seed).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	edges = edges[:len(edges)/batchSize*batchSize]
	return &feed{edges: edges, dynamic: s.dynamic, window: s.window}
}

// batches is the number of batches the stream holds.
func (f *feed) batches() int { return len(f.edges) / batchSize }

// chunk is the edges batch i inserts.
func (f *feed) chunk(i int) []bipartite.Edge { return f.edges[i*batchSize : (i+1)*batchSize] }

// opsOf appends batch i as ops to dst: its chunk inserted, then the
// chunk of batch i−window deleted (dynamic feeds only).
func (f *feed) opsOf(i int, dst []bipartite.Op) []bipartite.Op {
	for _, e := range f.chunk(i) {
		dst = append(dst, bipartite.Op{Kind: bipartite.OpInsert, Edge: e})
	}
	if f.dynamic && i >= f.window {
		for _, e := range f.chunk(i - f.window) {
			dst = append(dst, bipartite.Op{Kind: bipartite.OpDelete, Edge: e})
		}
	}
	return dst
}

// opCount is the number of ops in batches [0, nb).
func (f *feed) opCount(nb int) int64 {
	n := int64(nb) * batchSize
	if f.dynamic && nb > f.window {
		n += int64(nb-f.window) * batchSize
	}
	return n
}

// live is the edge set batches [0, nb) leave behind.
func (f *feed) live(nb int) []bipartite.Edge {
	lo := 0
	if f.dynamic && nb > f.window {
		lo = nb - f.window
	}
	return f.edges[lo*batchSize : nb*batchSize]
}

// send writes batch i on the connection.
func (f *feed) send(c *wire.Conn, i int) error {
	if !f.dynamic {
		return c.Send(f.chunk(i))
	}
	f.scratch = f.opsOf(i, f.scratch[:0])
	return c.SendOps(f.scratch)
}
