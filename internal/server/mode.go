package server

// This file is the pluggable engine-mode plane. The service used to
// hard-code a two-way branch ("exactly one of merged/bank is non-nil")
// across the engine, the snapshot framing, the HTTP query plane and the
// cluster blob validation; every branch point now dispatches through
// two interfaces instead:
//
//   - ShardState is the per-shard (and per-snapshot) state object with
//     the lifecycle verbs all modes share: batched ingest, deep clone,
//     merge, uniform accounting, the consumed-edge override the
//     coordinator uses to pin true totals, and serialization.
//   - Mode is the engine-mode singleton: it names the mode, fingerprints
//     its configuration for cluster compatibility, constructs / merges /
//     decodes shard states, materializes a merged state into the
//     queryable graph, and executes validated queries against a
//     Snapshot.
//
// Three modes implement the plane: "sketch" (the paper's H≤n sketch,
// the default), "weighted" (the per-weight-class bank, selected by
// Config.Weights) and "dynamic" (the insert/delete L0 sampler of
// internal/l0, selected by Config.Engine; see dynamic.go). The sketch
// and weighted modes are pure re-expressions of the pre-plane engine —
// same types, same merge policy, same wire bytes — so their behavior
// and snapshot frames are unchanged.

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/weighted"
)

// ModeName identifies an engine mode (Config.Engine, the HTTP "engine"
// field, and the X-Cov-Engine cluster header).
type ModeName string

const (
	// ModeSketch is the default: one H≤n sketch per shard, exactly the
	// paper's Algorithm 3 summary (internal/core).
	ModeSketch ModeName = "sketch"
	// ModeWeighted serves weighted coverage: one sketch per geometric
	// weight class (internal/weighted). Selected by Config.Weights.
	ModeWeighted ModeName = "weighted"
	// ModeDynamic serves insert/delete (turnstile) streams with the
	// leveled L0 edge sampler (internal/l0), after Chakrabarti–McGregor–
	// Wirth. The only mode whose ApplyOps accepts deletes.
	ModeDynamic ModeName = "dynamic"
)

// ErrDeletesUnsupported is returned (wrapped, with the engine name)
// when a delete op reaches an append-only engine mode. The paper's H≤n
// sketch — and the weighted bank built on the same shape —
// subsample and *discard* stream suffix information; once an edge has
// been dropped by the eviction bar there is nothing to subtract a
// delete from, so these modes reject deletes outright rather than
// silently corrupt their estimates. Only the dynamic mode's linear
// sampler supports retraction.
var ErrDeletesUnsupported = errors.New("deletes unsupported")

// rejectDeletes is the shared ApplyOps implementation for the
// append-only modes: insert-only batches forward to AddEdges, any
// delete fails the whole batch with the typed error.
func rejectDeletes(name ModeName, add func([]bipartite.Edge), ops []bipartite.Op) error {
	if bipartite.HasDeletes(ops) {
		return fmt.Errorf("server: engine %q: %w", name, ErrDeletesUnsupported)
	}
	add(bipartite.InsertEdges(make([]bipartite.Edge, 0, len(ops)), ops))
	return nil
}

// ShardState is the state a single ingest shard owns — and, after a
// coordinator merge, the state a Snapshot carries. The engine modes
// (H≤n sketch, weighted class bank, dynamic L0 sampler) implement it
// with the lifecycle verbs they share.
type ShardState interface {
	// AddEdges absorbs one routed batch of inserts. Only the owning
	// shard goroutine calls it.
	AddEdges(edges []bipartite.Edge)
	// ApplyOps absorbs one routed op batch (inserts and deletes).
	// Append-only modes return ErrDeletesUnsupported (wrapped) if the
	// batch contains a delete; the engine gates op routing on
	// Mode.SupportsDeletes so shard goroutines never see that error.
	ApplyOps(ops []bipartite.Op) error
	// CloneState returns a deep copy, taken inside the shard mailbox so
	// it is a consistent cut of the shard's stream.
	CloneState() ShardState
	// MergeFrom folds other (a state of the same mode and configuration)
	// into the receiver. The receiver's consumed-edge counter is left
	// untouched — replayed kept edges were already counted upstream.
	MergeFrom(other ShardState) error
	// Stats reports the state's accounting in the uniform core.Stats
	// shape (EdgesSeen/EdgesKept/ElementsKept/PStar/…).
	Stats() core.Stats
	// SetEdgesSeen pins the consumed-edge counter: a merged state only
	// replays kept edges, so the coordinator overrides it with the true
	// ingested total before publishing or persisting.
	SetEdgesSeen(n int64)
	// WriteTo serializes the state — exactly the bytes WriteSnapshot
	// persists and /v1/cluster/sketch serves. Pure reads on a published
	// state.
	WriteTo(w io.Writer) (int64, error)
}

// materialized is a merged state rendered queryable: the bipartite
// graph greedy runs on, the graph-id → original-element mapping, and
// (weighted mode only) the per-element weights of the scaled union.
type materialized struct {
	graph   *bipartite.Graph
	ids     []uint32
	weights []float64
}

// Mode is an engine mode: the factory, merge policy, wire codec, query
// validator/executor and compatibility fingerprint behind one engine
// configuration. Engine, Snapshot, the snapshot-v2 container and the
// cluster exchange all dispatch through it; adding an engine mode means
// implementing Mode + ShardState and listing the name in EngineMode.
type Mode interface {
	// Name is the mode's wire name.
	Name() ModeName
	// SupportsDeletes reports whether ApplyOps accepts delete ops. The
	// engine, the HTTP plane and the wire server gate op ingest on it
	// so append-only modes reject deletes before any state mutates.
	SupportsDeletes() bool
	// Signature fingerprints mode configuration that the serialized
	// state cannot carry itself (the weighted mode's weight table; 0
	// otherwise). Cluster peers refuse blobs whose signature disagrees.
	Signature() uint64
	// NewShardState returns an empty state for one ingest shard.
	NewShardState() (ShardState, error)
	// MergeStates folds shard states (owned by the caller) into one
	// merged state without modifying the inputs.
	MergeStates(states []ShardState) (ShardState, error)
	// ReadState decodes WriteTo bytes, validating that the blob was
	// built with this mode's configuration.
	ReadState(r io.Reader) (ShardState, error)
	// Materialize renders a merged state queryable.
	Materialize(st ShardState) (*materialized, error)
	// Execute runs a validated query against a snapshot of this mode.
	Execute(s *Snapshot, q Query) (*QueryResult, error)
}

// ErrModeRemoved is returned (wrapped, with the mode name) when a
// configuration names an engine mode this build no longer serves. Every
// entry point that can name a mode — POST /v1/ns, a snapshot-v2
// container frame, a WAL config.json sidecar, covserved -engine and
// streamcover.ServiceOptions.Engine — resolves it through
// Config.EngineMode, so an old config fails here with this typed error
// instead of "unknown engine".
var ErrModeRemoved = errors.New("engine mode removed")

// removedSieve is the edge-arrival sieve-streaming mode. Its swap buffer
// assumed each set arrives whole; under edge arrival it kept no
// guarantee (0.254× offline greedy in the mode comparison, and an
// estimate below the true coverage of its own answer). The set-arrival
// baseline stays as baselines.SieveKCover.
const removedSieve ModeName = "sieve"

// EngineMode resolves the config to its engine mode: Config.Engine when
// set ("" defaults to "weighted" iff Weights is configured, else
// "sketch"), validated against the weight configuration — the weighted
// mode requires Weights, the other modes refuse it. A removed mode name
// fails with ErrModeRemoved.
func (c Config) EngineMode() (Mode, error) {
	name := c.engineName()
	switch name {
	case ModeSketch, ModeDynamic:
		if c.Weights != nil {
			return nil, fmt.Errorf("server: engine %q does not take Weights (use the weighted engine)", name)
		}
	case ModeWeighted:
		if c.Weights == nil {
			return nil, fmt.Errorf("server: the weighted engine requires Weights")
		}
	case removedSieve:
		return nil, fmt.Errorf("server: engine %q: %w (its edge-arrival answers carried no guarantee; use %q)",
			name, ErrModeRemoved, ModeSketch)
	default:
		return nil, fmt.Errorf("server: unknown engine %q (known: %q, %q, %q)",
			name, ModeSketch, ModeWeighted, ModeDynamic)
	}
	switch name {
	case ModeWeighted:
		return weightedMode{
			numSets: c.NumSets,
			k:       c.K,
			opt:     c.WeightedOptions(),
			fn:      c.Weights.Fn(),
			sig:     c.Weights.Signature(),
		}, nil
	case ModeDynamic:
		return dynamicMode{numSets: c.NumSets, params: c.DynamicParams()}, nil
	}
	return sketchMode{params: c.Params()}, nil
}

// engineName resolves the effective mode name without validating it.
func (c Config) engineName() ModeName {
	if c.Engine != "" {
		return c.Engine
	}
	if c.Weights != nil {
		return ModeWeighted
	}
	return ModeSketch
}

// engineField is the value of the omitempty "engine" field in stats,
// snapshot responses, namespace listings and snapshot-v2 config frames:
// the mode name when it cannot be re-derived from the other fields
// ("sketch" is the default, "weighted" is implied by the weights), else
// empty — so sketch and weighted shapes and bytes predate the field.
func engineField(name ModeName) ModeName {
	if name == ModeSketch || name == ModeWeighted {
		return ""
	}
	return name
}

// ---- sketch mode (unweighted H≤n sketch, the default) ----

type sketchState struct{ sk *core.Sketch }

func (s sketchState) AddEdges(edges []bipartite.Edge) { s.sk.AddEdges(edges) }
func (s sketchState) ApplyOps(ops []bipartite.Op) error {
	return rejectDeletes(ModeSketch, s.AddEdges, ops)
}
func (s sketchState) CloneState() ShardState { return sketchState{s.sk.Clone()} }
func (s sketchState) Stats() core.Stats      { return s.sk.Stats() }
func (s sketchState) SetEdgesSeen(n int64)   { s.sk.SetEdgesSeen(n) }
func (s sketchState) WriteTo(w io.Writer) (int64, error) {
	return s.sk.WriteTo(w)
}

func (s sketchState) MergeFrom(other ShardState) error {
	o, ok := other.(sketchState)
	if !ok {
		return fmt.Errorf("server: cannot merge %T state into a sketch engine", other)
	}
	return s.sk.Merge(o.sk)
}

type sketchMode struct{ params core.Params }

func (m sketchMode) Name() ModeName        { return ModeSketch }
func (m sketchMode) SupportsDeletes() bool { return false }
func (m sketchMode) Signature() uint64     { return 0 }

func (m sketchMode) NewShardState() (ShardState, error) {
	sk, err := core.NewSketch(m.params)
	if err != nil {
		return nil, err
	}
	return sketchState{sk}, nil
}

func (m sketchMode) MergeStates(states []ShardState) (ShardState, error) {
	sketches := make([]*core.Sketch, len(states))
	for i, st := range states {
		s, ok := st.(sketchState)
		if !ok {
			return nil, fmt.Errorf("server: cannot merge %T state into a sketch engine", st)
		}
		sketches[i] = s.sk
	}
	// Parallel tree reduction (core.MergeAll); the inputs are read-only.
	merged, err := core.MergeAll(m.params, sketches...)
	if err != nil {
		return nil, err
	}
	return sketchState{merged}, nil
}

func (m sketchMode) ReadState(r io.Reader) (ShardState, error) {
	sk, err := core.ReadSketch(r)
	if err != nil {
		return nil, err
	}
	if sk.Params() != m.params {
		return nil, fmt.Errorf("sketch parameter mismatch (peer built with different options)")
	}
	return sketchState{sk}, nil
}

func (m sketchMode) Materialize(st ShardState) (*materialized, error) {
	s, ok := st.(sketchState)
	if !ok {
		return nil, fmt.Errorf("server: cannot materialize %T state on a sketch engine", st)
	}
	g, ids := s.sk.Graph()
	return &materialized{graph: g, ids: ids}, nil
}

func (m sketchMode) Execute(snap *Snapshot, q Query) (*QueryResult, error) {
	var res greedy.Result
	switch q.Algo {
	case AlgoKCover:
		res = greedy.MaxCover(snap.graph, q.K)
	case AlgoOutliers:
		// Ceiling, not truncation: a truncated target can leave the
		// covered fraction strictly below 1−λ (e.g. λ=0.001 over 999
		// elements truncates 998.001 to 998, i.e. 998/999 < 0.999). The
		// (1−1e-12) relative tolerance keeps float noise from rounding an
		// exactly-integral product up (10·0.3 evaluates above 3.0, which
		// a bare Ceil would turn into a target of 4).
		target := int(math.Ceil(float64(snap.graph.CoveredElems()) * (1 - q.Lambda) * (1 - 1e-12)))
		res = greedy.PartialCover(snap.graph, target)
	case AlgoGreedy:
		res = greedy.SetCover(snap.graph)
	}
	st := snap.state.Stats()
	return &QueryResult{
		Algo:              q.Algo,
		Sets:              res.Sets,
		SketchCoverage:    res.Covered,
		EstimatedCoverage: safeEstimate(res.Covered, st.PStar),
		SampledElements:   st.ElementsKept,
		PStar:             st.PStar,
		SnapshotSeq:       snap.Seq,
		SnapshotEdges:     snap.IngestedEdges,
	}, nil
}

// ---- weighted mode (per-weight-class bank, Config.Weights) ----

type bankState struct{ bank *weighted.Bank }

func (s bankState) AddEdges(edges []bipartite.Edge) { s.bank.AddEdges(edges) }
func (s bankState) ApplyOps(ops []bipartite.Op) error {
	return rejectDeletes(ModeWeighted, s.AddEdges, ops)
}
func (s bankState) CloneState() ShardState { return bankState{s.bank.Clone()} }
func (s bankState) Stats() core.Stats      { return s.bank.Stats() }
func (s bankState) SetEdgesSeen(n int64)   { s.bank.SetEdgesSeen(n) }
func (s bankState) WriteTo(w io.Writer) (int64, error) {
	return s.bank.WriteTo(w)
}

func (s bankState) MergeFrom(other ShardState) error {
	o, ok := other.(bankState)
	if !ok {
		return fmt.Errorf("server: cannot merge %T state into a weighted engine", other)
	}
	return s.bank.Merge(o.bank)
}

type weightedMode struct {
	numSets, k int
	opt        weighted.Options
	fn         func(uint32) float64
	sig        uint64
}

func (m weightedMode) Name() ModeName        { return ModeWeighted }
func (m weightedMode) SupportsDeletes() bool { return false }
func (m weightedMode) Signature() uint64     { return m.sig }

func (m weightedMode) NewShardState() (ShardState, error) {
	bk, err := weighted.NewBank(m.numSets, m.k, m.opt, m.fn)
	if err != nil {
		return nil, err
	}
	return bankState{bk}, nil
}

func (m weightedMode) MergeStates(states []ShardState) (ShardState, error) {
	banks := make([]*weighted.Bank, len(states))
	for i, st := range states {
		s, ok := st.(bankState)
		if !ok {
			return nil, fmt.Errorf("server: cannot merge %T state into a weighted engine", st)
		}
		banks[i] = s.bank
	}
	merged, err := weighted.MergeBanks(m.numSets, m.k, m.opt, m.fn, banks...)
	if err != nil {
		return nil, err
	}
	return bankState{merged}, nil
}

func (m weightedMode) ReadState(r io.Reader) (ShardState, error) {
	bk, err := weighted.ReadBank(r, m.numSets, m.k, m.opt, m.fn)
	if err != nil {
		return nil, err
	}
	return bankState{bk}, nil
}

func (m weightedMode) Materialize(st ShardState) (*materialized, error) {
	s, ok := st.(bankState)
	if !ok {
		return nil, fmt.Errorf("server: cannot materialize %T state on a weighted engine", st)
	}
	in, ids, err := s.bank.Assemble()
	if err != nil {
		return nil, err
	}
	return &materialized{graph: in.G, ids: ids, weights: in.W}, nil
}

func (m weightedMode) Execute(snap *Snapshot, q Query) (*QueryResult, error) {
	res := weighted.MaxCover(weighted.Instance{G: snap.graph, W: snap.weights}, q.K)
	return &QueryResult{
		Algo:              q.Algo,
		Sets:              res.Sets,
		SketchCoverage:    res.CoveredElems,
		EstimatedCoverage: res.Covered, // the weighted greedy scales per class already
		SampledElements:   snap.graph.NumElems(),
		PStar:             snap.pStar(),
		Weighted:          true,
		WeightClasses:     snap.Bank().Classes(),
		SnapshotSeq:       snap.Seq,
		SnapshotEdges:     snap.IngestedEdges,
	}, nil
}
