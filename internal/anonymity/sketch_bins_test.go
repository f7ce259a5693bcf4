package anonymity_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/anonymity"
	"repro/internal/binning"
	"repro/internal/datagen"
	"repro/internal/ontology"
)

// TestSketchGeneralizedBinsMatchesOracle holds the sketch-backed
// GeneralizedBins — weighted quasi-tuples counted by leaf code — to the
// per-row oracle over the rows the search kept: all of them under the
// conservative rule, the unsuppressed ones under the aggressive rule.
func TestSketchGeneralizedBinsMatchesOracle(t *testing.T) {
	trees := ontology.Trees()
	suppressed := 0
	for seed := int64(1); seed <= 6; seed++ {
		tbl, err := datagen.Generate(datagen.Config{Rows: 500 * int(seed), Seed: seed, Correlate: true, ZipfS: 1.2})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := binning.NewSketch(tbl.Schema(), trees)
		if err != nil {
			t.Fatal(err)
		}
		segs := tbl.Segments(700)
		for {
			seg, err := segs.Next()
			if err != nil {
				break
			}
			if err := sk.Add(seg); err != nil {
				t.Fatal(err)
			}
		}
		quasi := tbl.Schema().QuasiColumns()
		for _, aggressive := range []bool{false, true} {
			name := fmt.Sprintf("seed %d, aggressive %v", seed, aggressive)
			res, err := binning.SearchSketch(context.Background(), sk, binning.Config{K: 10, Trees: trees, Aggressive: aggressive})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			suppressed += res.Suppressed
			kept := tbl.Clone()
			if _, err := binning.Suppress(kept, trees, res.SuppressValues); err != nil {
				t.Fatal(err)
			}
			// Reversed column order: the counter must follow cols, not
			// the sketch's column order.
			cols := make([]string, len(quasi))
			for i, c := range quasi {
				cols[len(quasi)-1-i] = c
			}
			got, err := res.GeneralizedBins(cols, res.UltiGens)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := anonymity.OracleBins(kept, cols, res.UltiGens, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d bins, want %d", name, len(got), len(want))
			}
			for key, n := range want {
				if got[key] != n {
					t.Fatalf("%s: bin %q = %d, want %d", name, key, got[key], n)
				}
			}
		}
	}
	if suppressed == 0 {
		t.Fatal("the aggressive rule suppressed no row: its case is vacuous")
	}
}
