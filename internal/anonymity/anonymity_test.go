package anonymity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// oracleBins is the per-row string loop bins were counted with before
// rows were counted by code tuple: every row spells its key from its
// cells — generalized through gens when gens is non-nil — and the key's
// count grows by the row's weight (1 when weights is nil). The
// differential tests hold every counter to it.
func oracleBins(tbl *relation.Table, cols []string, gens map[string]dht.GenSet, weights []int) (map[string]int, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		ci, err := tbl.Schema().Index(c)
		if err != nil {
			return nil, err
		}
		idx[i] = ci
	}
	out := make(map[string]int)
	var key []byte
	for row := 0; row < tbl.NumRows(); row++ {
		key = key[:0]
		for i, ci := range idx {
			v := tbl.CellAt(row, ci)
			if gens != nil {
				g, err := gens[cols[i]].GeneralizeValue(v)
				if err != nil {
					return nil, err
				}
				v = g
			}
			if i > 0 {
				key = append(key, keySep...)
			}
			key = append(key, v...)
		}
		w := 1
		if weights != nil {
			w = weights[row]
		}
		out[string(key)] += w
	}
	return out, nil
}

// OracleBins exports oracleBins to the external test package, which
// holds the sketch-backed counter to it.
var OracleBins = oracleBins

func makeTable(t *testing.T, rows [][]string) *relation.Table {
	t.Helper()
	tbl := relation.NewTable(relation.MustSchema(
		relation.Column{Name: "id", Kind: relation.Identifying},
		relation.Column{Name: "age", Kind: relation.QuasiNumeric},
		relation.Column{Name: "role", Kind: relation.QuasiCategorical},
	))
	for _, r := range rows {
		if err := tbl.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestBins(t *testing.T) {
	tbl := makeTable(t, [][]string{
		{"1", "[20,40)", "Nurse"},
		{"2", "[20,40)", "Nurse"},
		{"3", "[20,40)", "Doctor"},
		{"4", "[40,60)", "Nurse"},
	})
	bins, err := Bins(tbl, []string{"age", "role"})
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	if bins["[20,40)\x1fNurse"] != 2 {
		t.Errorf("bin sizes = %v", bins)
	}
	if _, err := Bins(tbl, []string{"missing"}); err == nil {
		t.Error("missing column accepted")
	}
}

func TestGeneralizedBins(t *testing.T) {
	roleTree, err := dht.NewCategorical("role", dht.Spec{Value: "AnyRole", Children: []dht.Spec{
		{Value: "Medical", Children: []dht.Spec{{Value: "Nurse"}, {Value: "Doctor"}}},
		{Value: "Admin", Children: []dht.Spec{{Value: "Clerk"}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ageTree, err := dht.NewNumeric("age", 0, 100, []float64{50})
	if err != nil {
		t.Fatal(err)
	}
	roleGen, err := dht.NewGenSetFromValues(roleTree, []string{"Medical", "Admin"})
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]dht.GenSet{"role": roleGen, "age": dht.RootGenSet(ageTree)}

	tbl := makeTable(t, [][]string{
		{"1", "34", "Nurse"},
		{"2", "67", "Doctor"},
		{"3", "12", "Clerk"},
		{"4", "45", "Nurse"},
	})
	cols := []string{"age", "role"}
	got, err := GeneralizedBins(tbl, cols, gens)
	if err != nil {
		t.Fatal(err)
	}

	// The contract: identical to Bins over the actually transformed
	// table.
	transformed := tbl.Clone()
	for _, col := range cols {
		ci, err := transformed.Schema().Index(col)
		if err != nil {
			t.Fatal(err)
		}
		gen := gens[col]
		if _, err := transformed.MapColumn(ci, gen.GeneralizeValue); err != nil {
			t.Fatal(err)
		}
	}
	want, err := Bins(transformed, cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("bins = %v, want %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("bin %q = %d, want %d", k, got[k], n)
		}
	}
	// Medical covers Nurse+Doctor: 3 tuples under (root age, Medical).
	foundMedical := false
	for k, n := range got {
		if n == 3 {
			foundMedical = true
			_ = k
		}
	}
	if !foundMedical {
		t.Errorf("expected a merged Medical bin of 3 tuples: %v", got)
	}

	// Error paths: missing frontier, unresolvable value.
	if _, err := GeneralizedBins(tbl, cols, map[string]dht.GenSet{"age": dht.RootGenSet(ageTree)}); err == nil {
		t.Error("missing frontier accepted")
	}
	bad := makeTable(t, [][]string{{"1", "34", "Astronaut"}})
	if _, err := GeneralizedBins(bad, cols, gens); err == nil {
		t.Error("out-of-domain value accepted")
	}

	// An orphaned out-of-domain dictionary entry — a value no surviving
	// row uses (here: the Astronaut row was deleted) — must not fail the
	// scan, exactly as the real transform path skips unused entries.
	orphan := makeTable(t, [][]string{
		{"1", "34", "Nurse"},
		{"2", "67", "Astronaut"},
	})
	if n := orphan.DeleteWhereView(func(v relation.RowView) bool {
		ci, _ := orphan.Schema().Index("role")
		return v.Cell(ci) == "Astronaut"
	}); n != 1 {
		t.Fatalf("deleted %d rows, want 1", n)
	}
	got2, err := GeneralizedBins(orphan, cols, gens)
	if err != nil {
		t.Fatalf("orphan dictionary entry failed the scan: %v", err)
	}
	if len(got2) != 1 {
		t.Fatalf("orphan-table bins = %v, want one bin", got2)
	}
}

func TestMinBinSizeAndSatisfiesK(t *testing.T) {
	tbl := makeTable(t, [][]string{
		{"1", "[20,40)", "Nurse"},
		{"2", "[20,40)", "Nurse"},
		{"3", "[20,40)", "Doctor"},
	})
	min, err := MinBinSize(tbl, []string{"age", "role"})
	if err != nil || min != 1 {
		t.Errorf("MinBinSize = %d, %v; want 1", min, err)
	}
	ok, err := SatisfiesK(tbl, []string{"age", "role"}, 2)
	if err != nil || ok {
		t.Error("k=2 should fail (Doctor bin has 1)")
	}
	ok, _ = SatisfiesK(tbl, []string{"age"}, 3)
	if !ok {
		t.Error("k=3 over age alone should hold")
	}
	// Single-column vs multi-column: the paper's §4.2 example — columns
	// can satisfy k individually while the combination does not.
	ok, _ = SatisfiesK(tbl, []string{"age", "role"}, 3)
	if ok {
		t.Error("combination must fail k=3")
	}
	// Empty table.
	empty := makeTable(t, nil)
	min, err = MinBinSize(empty, []string{"age"})
	if err != nil || min != 0 {
		t.Errorf("empty MinBinSize = %d, %v", min, err)
	}
	ok, _ = SatisfiesK(empty, []string{"age"}, 5)
	if ok {
		t.Error("empty table with k>0 should report false (no bins at all)")
	}
}

func TestCompare(t *testing.T) {
	before := map[string]int{"a": 5, "b": 3, "c": 4}
	after := map[string]int{"a": 5, "b": 2, "d": 1}
	s := Compare(before, after, 3)
	if s.Total != 3 {
		t.Errorf("Total = %d, want 3", s.Total)
	}
	// b changed (3->2), c changed (4->0): 2 changed.
	if s.Changed != 2 {
		t.Errorf("Changed = %d, want 2", s.Changed)
	}
	// below k=3 after: b(2), c(0), d(1) -> 3.
	if s.BelowK != 3 {
		t.Errorf("BelowK = %d, want 3", s.BelowK)
	}
	if s.NewBins != 1 {
		t.Errorf("NewBins = %d, want 1", s.NewBins)
	}
	if s.String() != "3 2 3" {
		t.Errorf("String = %q", s.String())
	}
}

func TestCompareNoChange(t *testing.T) {
	bins := map[string]int{"a": 5, "b": 7}
	s := Compare(bins, bins, 5)
	if s.Changed != 0 || s.BelowK != 0 || s.NewBins != 0 {
		t.Errorf("identity compare = %+v", s)
	}
}

func TestFlow(t *testing.T) {
	before := makeTable(t, [][]string{
		{"1", "[20,40)", "Nurse"},
		{"2", "[20,40)", "Nurse"},
		{"3", "[40,60)", "Doctor"},
	})
	after := makeTable(t, [][]string{
		{"1", "[20,40)", "Nurse"},  // unchanged
		{"2", "[40,60)", "Nurse"},  // moved bins
		{"3", "[40,60)", "Doctor"}, // unchanged
	})
	flows, err := Flow(before, after, []string{"age", "role"})
	if err != nil {
		t.Fatal(err)
	}
	src := flows["[20,40)\x1fNurse"]
	if src == nil || src.Before != 2 || src.After != 1 || src.Out != 1 || src.In != 0 {
		t.Errorf("source bin flow = %+v", src)
	}
	dst := flows["[40,60)\x1fNurse"]
	if dst == nil || dst.Before != 0 || dst.After != 1 || dst.In != 1 || dst.Out != 0 {
		t.Errorf("dest bin flow = %+v", dst)
	}
	// conservation: total out == total in
	totalOut, totalIn := 0, 0
	for _, f := range flows {
		totalOut += f.Out
		totalIn += f.In
	}
	if totalOut != totalIn {
		t.Errorf("flow not conserved: out=%d in=%d", totalOut, totalIn)
	}
}

func TestFlowErrors(t *testing.T) {
	a := makeTable(t, [][]string{{"1", "x", "y"}})
	b := makeTable(t, nil)
	if _, err := Flow(a, b, []string{"age"}); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, err := Flow(a, a, []string{"missing"}); err == nil {
		t.Error("missing column accepted")
	}
}

func TestBinKey(t *testing.T) {
	row := []string{"a", "b", "c"}
	if BinKey(row, []int{0, 2}) != "a\x1fc" {
		t.Errorf("BinKey = %q", BinKey(row, []int{0, 2}))
	}
	if BinKey(row, nil) != "" {
		t.Error("empty column set should give empty key")
	}
}

// sameBins fails t unless got and want hold the same bins.
func sameBins(t *testing.T, name string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bins, want %d", name, len(got), len(want))
	}
	for key, n := range want {
		if got[key] != n {
			t.Fatalf("%s: bin %q = %d, want %d", name, key, got[key], n)
		}
	}
}

// randomFrontier climbs from the leaves of tree by a random number of
// random merges, so distinct leaves share a frontier member.
func randomFrontier(t *testing.T, tree *dht.Tree, rng *rand.Rand) dht.GenSet {
	t.Helper()
	g := dht.LeafGenSet(tree)
	for steps := rng.Intn(tree.Size()); steps > 0; steps-- {
		cands := g.MergeCandidates()
		if len(cands) == 0 {
			break
		}
		var err error
		if g, err = g.MergeAt(cands[rng.Intn(len(cands))]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestBinsMatchOracle holds Bins, AddBins and GeneralizedBins to the
// per-row oracle over random tables: random row windows and deletions
// (which orphan dictionary entries), random column subsets in random
// order, and random frontiers (which generalize distinct codes to one
// key).
func TestBinsMatchOracle(t *testing.T) {
	trees := ontology.Trees()
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full, err := datagen.Generate(datagen.Config{Rows: 200 + rng.Intn(2000), Seed: seed, Correlate: true, ZipfS: 1.2})
		if err != nil {
			t.Fatal(err)
		}
		lo := rng.Intn(full.NumRows() / 2)
		tbl, err := full.Slice(lo, lo+1+rng.Intn(full.NumRows()-lo))
		if err != nil {
			t.Fatal(err)
		}
		tbl.DeleteWhereView(func(relation.RowView) bool { return rng.Intn(4) == 0 })
		quasi := tbl.Schema().QuasiColumns()
		cols := make([]string, 1+rng.Intn(len(quasi)))
		for i, j := range rng.Perm(len(quasi))[:len(cols)] {
			cols[i] = quasi[j]
		}
		gens := make(map[string]dht.GenSet, len(cols))
		for i, c := range cols {
			if i == 0 && seed%5 == 0 {
				gens[c] = dht.RootGenSet(trees[c])
				continue
			}
			gens[c] = randomFrontier(t, trees[c], rng)
		}
		name := fmt.Sprintf("seed %d, %d rows, cols %v", seed, tbl.NumRows(), cols)

		want, err := oracleBins(tbl, cols, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Bins(tbl, cols)
		if err != nil {
			t.Fatal(err)
		}
		sameBins(t, name+": Bins", got, want)

		// AddBins accumulates: two tables into one map sum their bins.
		if err := AddBins(got, full, cols); err != nil {
			t.Fatal(err)
		}
		fullWant, err := oracleBins(full, cols, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for key, n := range fullWant {
			want[key] += n
		}
		sameBins(t, name+": AddBins", got, want)

		wantGen, err := oracleBins(tbl, cols, gens, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotGen, err := GeneralizedBins(tbl, cols, gens)
		if err != nil {
			t.Fatal(err)
		}
		sameBins(t, name+": GeneralizedBins", gotGen, wantGen)
	}
}

// TestCountBinsWeightedAndWide holds CountBins to the oracle with row
// weights, on both key types: radix keys for a small code set, and the
// wide-key path for a table whose dictionary-size product overflows
// uint64. The spelling maps distinct codes onto shared keys, so the
// coinciding tuples must be summed on either path.
func TestCountBinsWeightedAndWide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name       string
		cols, vals int
		wide       bool
	}{
		{"radix", 3, 20, false},
		{"wide", 8, 600, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			schema := make([]relation.Column, tc.cols)
			cols := make([]string, tc.cols)
			for c := range schema {
				cols[c] = fmt.Sprintf("q%d", c)
				schema[c] = relation.Column{Name: cols[c], Kind: relation.QuasiCategorical}
			}
			tbl := relation.NewTable(relation.MustSchema(schema...))
			row := make([]string, tc.cols)
			for r := 0; r < 2000; r++ {
				for c := range row {
					row[c] = fmt.Sprint(rng.Intn(tc.vals))
				}
				if err := tbl.AppendRow(row); err != nil {
					t.Fatal(err)
				}
			}
			weights := make([]int, tbl.NumRows())
			for r := range weights {
				weights[r] = 1 + rng.Intn(5)
			}
			frontier := mod3Frontier(t, tc.vals)
			product := 1.0
			dicts := make([][]string, tc.cols)
			spell := make([][]string, tc.cols)
			codes := make([][]uint32, tc.cols)
			gens := make(map[string]dht.GenSet, tc.cols)
			for c := range spell {
				dicts[c] = tbl.DictValues(c)
				product *= float64(len(dicts[c]))
				// Spell each code as its value's frontier member: many
				// codes, three keys.
				spell[c] = make([]string, len(dicts[c]))
				for code, v := range dicts[c] {
					g, err := frontier.GeneralizeValue(v)
					if err != nil {
						t.Fatal(err)
					}
					spell[c][code] = g
				}
				codes[c] = tbl.Codes(c)
				gens[cols[c]] = frontier
			}
			if wide := product > math.MaxUint64; wide != tc.wide {
				t.Fatalf("dictionary-size product %g: wide path %v, want %v", product, wide, tc.wide)
			}

			got := make(map[string]int)
			CountBins(got, dicts, codes, tbl.NumRows(), weights)
			want, err := oracleBins(tbl, cols, nil, weights)
			if err != nil {
				t.Fatal(err)
			}
			sameBins(t, "CountBins", got, want)

			got = make(map[string]int)
			CountBins(got, spell, codes, tbl.NumRows(), weights)
			want, err = oracleBins(tbl, cols, gens, weights)
			if err != nil {
				t.Fatal(err)
			}
			sameBins(t, "CountBins over coinciding keys", got, want)
		})
	}
}

// TestCountBinsWideAllocs: on the wide-key path a row allocates only
// when its code tuple is first seen — 4096 rows over 16 distinct tuples
// must not allocate per row.
func TestCountBinsWideAllocs(t *testing.T) {
	const cols, vals, rows, distinct = 8, 600, 4096, 16
	spell := make([][]string, cols)
	codes := make([][]uint32, cols)
	for c := range spell {
		spell[c] = make([]string, vals)
		for v := range spell[c] {
			spell[c][v] = fmt.Sprint(v)
		}
		codes[c] = make([]uint32, rows)
		for r := range codes[c] {
			codes[c][r] = uint32((r%distinct)*(c+1)) % vals
		}
	}
	if _, fits := NewRadixKeys([]uint64{vals, vals, vals, vals, vals, vals, vals, vals}); fits {
		t.Fatal("radix fits; want the wide path")
	}
	bins := make(map[string]int)
	CountBins(bins, spell, codes, rows, nil)
	if len(bins) != distinct {
		t.Fatalf("%d bins, want %d", len(bins), distinct)
	}
	for key, n := range bins {
		if n != rows/distinct {
			t.Fatalf("bin %q holds %d rows, want %d", key, n, rows/distinct)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		CountBins(make(map[string]int), spell, codes, rows, nil)
	})
	if allocs > 10*distinct {
		t.Fatalf("%.0f allocs for %d rows over %d tuples; want allocation per distinct tuple, not per row", allocs, rows, distinct)
	}
}

// mod3Frontier is the frontier {m0, m1, m2} of a tree whose leaves
// "0".."vals-1" sit under m(value mod 3).
func mod3Frontier(t *testing.T, vals int) dht.GenSet {
	t.Helper()
	root := dht.Spec{Value: "any"}
	for m := 0; m < 3; m++ {
		root.Children = append(root.Children, dht.Spec{Value: fmt.Sprintf("m%d", m)})
	}
	for v := 0; v < vals; v++ {
		mid := &root.Children[v%3]
		mid.Children = append(mid.Children, dht.Spec{Value: fmt.Sprint(v)})
	}
	tree, err := dht.NewCategorical("mod3", root)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dht.NewGenSetFromValues(tree, []string{"m0", "m1", "m2"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBinsEmpty: an empty table has no bins on every path, adds nothing
// to an accumulating map, and zero columns put every row in one bin.
func TestBinsEmpty(t *testing.T) {
	empty := makeTable(t, nil)
	cols := []string{"age", "role"}
	if bins, err := Bins(empty, cols); err != nil || len(bins) != 0 {
		t.Fatalf("Bins(empty) = %v, %v", bins, err)
	}
	gens := map[string]dht.GenSet{"age": mod3Frontier(t, 3), "role": mod3Frontier(t, 3)}
	if bins, err := GeneralizedBins(empty, cols, gens); err != nil || len(bins) != 0 {
		t.Fatalf("GeneralizedBins(empty) = %v, %v", bins, err)
	}
	dst := map[string]int{"kept": 3}
	if err := AddBins(dst, empty, cols); err != nil || len(dst) != 1 || dst["kept"] != 3 {
		t.Fatalf("AddBins(empty) changed the map: %v, %v", dst, err)
	}
	CountBins(dst, [][]string{{}, {}}, [][]uint32{{}, {}}, 0, nil)
	if len(dst) != 1 || dst["kept"] != 3 {
		t.Fatalf("CountBins over no rows changed the map: %v", dst)
	}
	tbl := makeTable(t, [][]string{{"1", "a", "b"}, {"2", "c", "d"}})
	if bins, err := Bins(tbl, nil); err != nil || len(bins) != 1 || bins[""] != 2 {
		t.Fatalf("Bins over no columns = %v, %v", bins, err)
	}
}
