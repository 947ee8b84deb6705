package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateQueryAcrossModes pins the query-validation contract the
// engine and cluster query planes share: which (algo, mode) pairs are
// legal, and the parameter bounds each algo enforces. A case's want map
// names the modes expected to reject it (with an error substring);
// modes absent from the map must accept.
func TestValidateQueryAcrossModes(t *testing.T) {
	modes := []ModeName{ModeSketch, ModeWeighted, ModeDynamic}
	all := func(msg string) map[ModeName]string {
		return map[ModeName]string{ModeSketch: msg, ModeWeighted: msg, ModeDynamic: msg}
	}
	cases := []struct {
		name string
		q    Query
		want map[ModeName]string
	}{
		{"kcover valid everywhere", Query{Algo: AlgoKCover, K: 3}, nil},
		{"kcover needs positive k", Query{Algo: AlgoKCover},
			all("kcover query needs positive k")},
		{"kcover rejects negative k", Query{Algo: AlgoKCover, K: -1},
			all("kcover query needs positive k")},
		{"wkcover is weighted-only", Query{Algo: AlgoWeightedKCover, K: 2},
			map[ModeName]string{
				ModeSketch:  "wkcover requires a weighted engine",
				ModeDynamic: "wkcover requires a weighted engine",
			}},
		{"wkcover needs positive k", Query{Algo: AlgoWeightedKCover},
			map[ModeName]string{
				ModeSketch:   "wkcover requires a weighted engine",
				ModeWeighted: "wkcover query needs positive k",
				ModeDynamic:  "wkcover requires a weighted engine",
			}},
		{"outliers is sketch-only", Query{Algo: AlgoOutliers, Lambda: 0.1},
			map[ModeName]string{
				ModeWeighted: `algo "outliers" is not defined on a weighted engine`,
				ModeDynamic:  `algo "outliers" is not defined on a dynamic engine`,
			}},
		{"outliers lambda lower bound", Query{Algo: AlgoOutliers, Lambda: 0},
			all("lambda in (0,1)")},
		{"outliers lambda upper bound", Query{Algo: AlgoOutliers, Lambda: 1},
			all("lambda in (0,1)")},
		{"greedy is sketch-only", Query{Algo: AlgoGreedy},
			map[ModeName]string{
				ModeWeighted: `algo "greedy" is not defined on a weighted engine`,
				ModeDynamic:  `algo "greedy" is not defined on a dynamic engine`,
			}},
		{"unknown algo", Query{Algo: "coverme", K: 3},
			all(`unknown query algo "coverme"`)},
	}
	for _, c := range cases {
		for _, mode := range modes {
			err := ValidateQuery(c.q, mode)
			wantMsg, wantErr := c.want[mode]
			if !wantErr {
				if err != nil {
					t.Errorf("%s on %s: unexpected error %v", c.name, mode, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s on %s: accepted, want error containing %q", c.name, mode, wantMsg)
			} else if !strings.Contains(err.Error(), wantMsg) {
				t.Errorf("%s on %s: error %q does not contain %q", c.name, mode, err, wantMsg)
			}
		}
	}
}

func TestConfigEngineModeResolution(t *testing.T) {
	base := testConfig(10, 100, 3, 1, 1)

	if m, err := base.EngineMode(); err != nil || m.Name() != ModeSketch {
		t.Fatalf("default mode = %v, %v; want sketch", m, err)
	}
	w := base
	w.Weights = &WeightConfig{Default: 1}
	if m, err := w.EngineMode(); err != nil || m.Name() != ModeWeighted {
		t.Fatalf("weights-implied mode = %v, %v; want weighted", m, err)
	}
	dyn := base
	dyn.Engine = ModeDynamic
	if m, err := dyn.EngineMode(); err != nil || m.Name() != ModeDynamic {
		t.Fatalf("dynamic mode = %v, %v", m, err)
	}

	bad := []struct {
		cfg     func() Config
		want    string
		wantErr error // when set, the error must also match errors.Is
	}{
		{func() Config { c := base; c.Engine = ModeDynamic; c.Weights = &WeightConfig{Default: 1}; return c },
			"does not take Weights", nil},
		{func() Config { c := base; c.Engine = ModeSketch; c.Weights = &WeightConfig{Default: 1}; return c },
			"does not take Weights", nil},
		{func() Config { c := base; c.Engine = ModeWeighted; return c },
			"requires Weights", nil},
		{func() Config { c := base; c.Engine = "bogus"; return c },
			`unknown engine "bogus"`, nil},
		// The edge-arrival sieve mode was removed: configs that still name
		// it fail with the typed error, weights or not.
		{func() Config { c := base; c.Engine = "sieve"; return c },
			`engine "sieve": engine mode removed`, ErrModeRemoved},
		{func() Config { c := base; c.Engine = "sieve"; c.Weights = &WeightConfig{Default: 1}; return c },
			`engine "sieve": engine mode removed`, ErrModeRemoved},
	}
	for _, b := range bad {
		cfg := b.cfg()
		_, err := cfg.EngineMode()
		if err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("EngineMode() with Engine=%q Weights=%v: err %v, want substring %q",
				cfg.Engine, cfg.Weights != nil, err, b.want)
		}
		if b.wantErr != nil && !errors.Is(err, b.wantErr) {
			t.Errorf("EngineMode() with Engine=%q: err %v, want errors.Is %v", cfg.Engine, err, b.wantErr)
		}
		// New must refuse the same configs.
		_, err = New(cfg)
		if err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("New() with Engine=%q: err %v, want substring %q", cfg.Engine, err, b.want)
		}
		if b.wantErr != nil && !errors.Is(err, b.wantErr) {
			t.Errorf("New() with Engine=%q: err %v, want errors.Is %v", cfg.Engine, err, b.wantErr)
		}
	}
}

// TestRemovedModeRejectedOnRestore pins ErrModeRemoved on the two
// persistence inputs that can still name the removed sieve mode: a
// snapshot-v2 container frame (RestoreAll) and a WAL config.json
// sidecar (RecoverNamespaces). Neither creates the namespace, and the
// sidecar is left on disk for the operator.
func TestRemovedModeRejectedOnRestore(t *testing.T) {
	frame, err := json.Marshal(configFrame{NumSets: 10, K: 3, Engine: "sieve"})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("container", func(t *testing.T) {
		var buf bytes.Buffer
		buf.WriteString(MultiSnapshotMagic)
		binary.Write(&buf, binary.LittleEndian, uint32(1))
		writeChunk32(&buf, []byte("old"))
		writeChunk32(&buf, frame)
		binary.Write(&buf, binary.LittleEndian, uint64(0)) // empty state blob
		m := NewMulti("")
		defer m.Close()
		n, err := m.RestoreAll(&buf)
		if n != 0 || !errors.Is(err, ErrModeRemoved) {
			t.Fatalf("RestoreAll = %d, %v; want 0, ErrModeRemoved", n, err)
		}
		if _, ok := m.Get("old"); ok {
			t.Fatal("removed-mode namespace was created")
		}
	})

	t.Run("wal sidecar", func(t *testing.T) {
		root := t.TempDir()
		sidecar := filepath.Join(root, "old", walConfigName)
		if err := os.MkdirAll(filepath.Dir(sidecar), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sidecar, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		m := NewMulti("")
		m.SetDurability(&WALConfig{Dir: root, Fsync: "off"})
		defer m.Close()
		names, err := m.RecoverNamespaces()
		if len(names) != 0 || !errors.Is(err, ErrModeRemoved) {
			t.Fatalf("RecoverNamespaces = %v, %v; want none, ErrModeRemoved", names, err)
		}
		if _, ok := m.Get("old"); ok {
			t.Fatal("removed-mode namespace was created")
		}
		if got, err := os.ReadFile(sidecar); err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("sidecar changed by the failed recovery: %q, %v", got, err)
		}
	})
}
