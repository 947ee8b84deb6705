package streamcover

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/server"
)

func TestServiceMatchesMaxCoverage(t *testing.T) {
	const n, m, k = 80, 4000, 6
	inst := GenerateZipf(n, m, 1000, 0.9, 0.7, 5)
	opt := Options{Eps: 0.4, Seed: 77, NumElems: m, EdgeBudget: 60 * n}

	offline, err := MaxCoverage(inst.EdgeStream(1), n, k, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4, 7} {
		svc, err := NewService(n, ServiceOptions{Options: opt, K: k, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.IngestStream(inst.EdgeStream(9), 300)
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(inst.NumEdges()) {
			t.Fatalf("shards=%d: ingested %d of %d edges", shards, got, inst.NumEdges())
		}
		res, err := svc.KCover(k, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.EstimatedCoverage != offline.EstimatedCoverage {
			t.Fatalf("shards=%d: service estimate %v != offline %v",
				shards, res.EstimatedCoverage, offline.EstimatedCoverage)
		}
		for i := range res.Sets {
			if res.Sets[i] != offline.Sets[i] {
				t.Fatalf("shards=%d: service sets %v != offline %v", shards, res.Sets, offline.Sets)
			}
		}
		svc.Close()
	}
}

func TestServiceConcurrentIngestAndQuery(t *testing.T) {
	const n, m, k = 40, 3000, 4
	inst := GeneratePlantedKCover(n, m, k, 0.9, 30, 7)
	svc, err := NewService(n, ServiceOptions{
		Options: Options{Eps: 0.4, Seed: 3, NumElems: m, EdgeBudget: 50 * n},
		K:       k, Shards: 4, BatchQueue: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	st := inst.EdgeStream(2)
	var edges []Edge
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		edges = append(edges, e)
	}
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		lo, hi := p*len(edges)/3, (p+1)*len(edges)/3
		wg.Add(1)
		go func(part []Edge) {
			defer wg.Done()
			for i := 0; i < len(part); i += 97 {
				j := i + 97
				if j > len(part) {
					j = len(part)
				}
				if err := svc.Ingest(part[i:j]); err != nil {
					t.Error(err)
					return
				}
			}
		}(edges[lo:hi])
	}
	// Queries must succeed while producers are still pushing.
	for q := 0; q < 4; q++ {
		if _, err := svc.KCover(k, true); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	res, err := svc.KCover(k, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotEdges != int64(len(edges)) {
		t.Fatalf("final snapshot at %d of %d edges", res.SnapshotEdges, len(edges))
	}
	stats, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.IngestedEdges != int64(len(edges)) || stats.Shards != 4 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestServiceSnapshotRestore(t *testing.T) {
	const n, m, k = 30, 2000, 3
	inst := GenerateUniform(n, m, 0.04, 11)
	opt := ServiceOptions{
		Options: Options{Eps: 0.4, Seed: 13, NumElems: m, EdgeBudget: 40 * n},
		K:       k, Shards: 3,
	}

	full, err := NewService(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if _, err := full.IngestStream(inst.EdgeStream(1), 200); err != nil {
		t.Fatal(err)
	}
	want, err := full.KCover(k, true)
	if err != nil {
		t.Fatal(err)
	}

	first, err := NewService(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := inst.EdgeStream(1)
	half := inst.NumEdges() / 2
	batch := make([]Edge, 0, half)
	for i := 0; i < half; i++ {
		e, _ := st.Next()
		batch = append(batch, e)
	}
	if err := first.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := first.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second, err := RestoreService(&buf, n, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	rest := make([]Edge, 0, inst.NumEdges()-half)
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		rest = append(rest, e)
	}
	if err := second.Ingest(rest); err != nil {
		t.Fatal(err)
	}
	got, err := second.KCover(k, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.EstimatedCoverage != want.EstimatedCoverage {
		t.Fatalf("restored estimate %v != uninterrupted %v",
			got.EstimatedCoverage, want.EstimatedCoverage)
	}
}

func TestServiceValidation(t *testing.T) {
	if _, err := NewService(0, ServiceOptions{K: 2}); err == nil {
		t.Fatal("numSets=0 accepted")
	}
	if _, err := NewService(5, ServiceOptions{}); err == nil {
		t.Fatal("K=0 accepted")
	}
	// The edge-arrival sieve mode was removed; naming it is a typed error.
	if _, err := NewService(5, ServiceOptions{K: 2, Engine: "sieve"}); !errors.Is(err, server.ErrModeRemoved) {
		t.Fatalf("Engine=sieve: err = %v, want ErrModeRemoved", err)
	}
	svc, err := NewService(5, ServiceOptions{K: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Ingest([]Edge{{Set: 9, Elem: 0}}); err == nil {
		t.Fatal("out-of-range set accepted")
	}
	svc.Close()
	if err := svc.Ingest([]Edge{{Set: 1, Elem: 0}}); err == nil {
		t.Fatal("ingest after close accepted")
	}
}

// TestServiceQueryCacheStats pins the query-cache passthrough: repeated
// identical queries against one snapshot register as cache hits in the
// service stats, and answers stay identical.
func TestServiceQueryCacheStats(t *testing.T) {
	const n, m, k = 40, 2000, 4
	inst := GenerateZipf(n, m, 500, 0.9, 0.7, 9)
	svc, err := NewService(n, ServiceOptions{
		Options: Options{Eps: 0.4, Seed: 11, NumElems: m, EdgeBudget: 50 * n},
		K:       k, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.IngestStream(inst.EdgeStream(3), 256); err != nil {
		t.Fatal(err)
	}
	first, err := svc.KCover(k, true)
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.KCover(k, false)
	if err != nil {
		t.Fatal(err)
	}
	if first.EstimatedCoverage != second.EstimatedCoverage || len(first.Sets) != len(second.Sets) {
		t.Fatalf("cached answer differs: %+v vs %+v", first, second)
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 2 || st.QueryCacheHits != 1 {
		t.Fatalf("stats queries=%d hits=%d, want 2 and 1", st.Queries, st.QueryCacheHits)
	}
}
