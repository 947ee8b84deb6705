package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/server"
)

// declared returns the metrics, as name:unit, BENCHMARK.json lists
// under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metrics {
		names = append(names, m.Name+":"+m.Unit)
	}
	sort.Strings(names)
	return names
}

// reported returns the metrics, as name:unit, a run reported.
func reported(res *result) []string {
	var names []string
	for n, m := range res.Metrics {
		names = append(names, n+":"+m.Unit)
	}
	sort.Strings(names)
	return names
}

// quick shrinks a workload to a run of about a second.
func quick(name string) spec {
	s := specs[name]
	s.sets, s.elems, s.maxSize = 200, 50_000, 20_000
	s.budget = 2000
	s.warmBatches, s.window, s.queryEvery = min(s.warmBatches, 8), min(s.window, 8), 1
	s.rounds, s.setups = 1, 1
	s.recoverBatches = 100
	return s
}

func TestQuickRunPassesGates(t *testing.T) {
	for _, name := range []string{"fresh-query", "dynamic-churn"} {
		t.Run(name, func(t *testing.T) {
			b := newBench(quick(name), 3, t.TempDir(), 0.1, false)
			res, err := b.run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(b.gates) > 0 {
				t.Fatalf("correct=%v, gates: %q", res.Correct, b.gates)
			}
			if got, want := strings.Join(reported(res), " "), strings.Join(declared(t, "end_to_end"), " "); got != want {
				t.Errorf("reported %s\nBENCHMARK.json declares %s", got, want)
			}
		})
	}
}

func TestCorruptedAnswerTripsGate(t *testing.T) {
	for _, name := range []string{"fresh-query", "dynamic-churn"} {
		t.Run(name, func(t *testing.T) {
			s := quick(name)
			b := newBench(s, 3, t.TempDir(), 0.1, false)
			b.corrupt = func(r *server.QueryResult) { r.Sets[0] = (r.Sets[0] + 1) % s.sets }
			res, err := b.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatal("a corrupted answer passed every gate")
			}
			tripped := false
			for _, g := range b.gates {
				tripped = tripped || strings.HasPrefix(g, "answer after")
			}
			if !tripped {
				t.Fatalf("answer gate did not trip; gates: %q", b.gates)
			}
		})
	}
}

func TestTracedRunPassesStagedGates(t *testing.T) {
	for _, name := range []string{"ingest-bulk", "dynamic-churn"} {
		t.Run(name, func(t *testing.T) {
			s := quick(name)
			b := newBench(s, 3, t.TempDir(), 0.1, true)
			res, err := b.run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(b.gates) > 0 {
				t.Fatalf("correct=%v, gates: %q", res.Correct, b.gates)
			}
			if got, want := strings.Join(reported(res), " "), strings.Join(declared(t, "per_layer"), " "); got != want {
				t.Errorf("reported %s\nBENCHMARK.json declares %s", got, want)
			}
		})
	}
}
