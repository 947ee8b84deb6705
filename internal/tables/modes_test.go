package tables

import (
	"strconv"
	"testing"
)

func TestModeComparisonShape(t *testing.T) {
	tbls, err := Run("mode-comparison", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tbls[0].Rows
	if len(rows) != 3 {
		t.Fatalf("expected 3 mode rows, got %d", len(rows))
	}
	want := []string{"sketch", "weighted (uniform)", "dynamic"}
	for i, row := range rows {
		if row[0] != want[i] {
			t.Fatalf("row %d is %q, want %q", i, row[0], want[i])
		}
		eps, err1 := strconv.ParseFloat(row[2], 64)
		ratio, err2 := strconv.ParseFloat(row[7], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable row %v", row)
		}
		if eps <= 0 {
			t.Fatalf("non-positive ingest throughput in row %v", row)
		}
		if ratio <= 0 || ratio > 1.05 {
			t.Fatalf("ratio vs greedy %v implausible in row %v", ratio, row)
		}
	}
}
