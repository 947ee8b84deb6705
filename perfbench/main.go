// Command perfbench is the repository's end-to-end benchmark. It
// assembles in one process the serving path covserved wires together —
// namespace directory with a WAL per namespace, binary wire ingest on
// loopback, HTTP queries — and drives it over one wire connection and
// one HTTP client from a single load goroutine:
//
//	perfbench --workload ingest-bulk --seed 1 --seconds 10 --trace 0
//
// It checks every answer against an independent reference, prints each
// metric by name with its unit, and prints as its last line one JSON
// object with the fields correct, attempted, failed and metrics. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 it
// alternates untraced and traced rounds, replays the traced round's
// input stage by stage through each module's public functions, and
// reports per-layer metrics instead. BENCHMARK.json at the repository
// root documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "workload name: ingest-bulk, fresh-query or dynamic-churn")
	seed := flag.Uint64("seed", 1, "seed of the generated instance and stream order")
	seconds := flag.Float64("seconds", 20, "time the timed phases of a run are given")
	traceOn := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build", "directory for the run's WAL and trace files")
	flag.Parse()

	s, ok := specs[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	runDir, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	b := newBench(s, *seed, runDir, *seconds, *traceOn == 1)
	res, err := b.run()
	if b.trace {
		path := filepath.Join(*dir, fmt.Sprintf("trace-%s-%d.jsonl", s.name, *seed))
		if werr := b.tr.write(path); werr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.tr.spans), path)
		}
	}
	os.RemoveAll(runDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
	}
	for _, g := range b.gates {
		fmt.Fprintf(os.Stderr, "perfbench: gate failed: %s\n", g)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes holds each metric's sample count or provenance, printed
	// beside it in the human-readable listing.
	notes map[string]string
}

func (r *result) set(name string, value float64, unit, note string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// printResult lists every metric, then the JSON summary as the last
// line of standard output.
func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-36s %14.6g %-6s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
