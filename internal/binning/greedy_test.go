package binning

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/anonymity"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/pool"
	"repro/internal/relation"
)

// greedyStep is one merge of an ascent: column index and parent.
type greedyStep struct {
	ci     int
	parent dht.NodeID
}

// greedyDiff runs multiGreedy and the rescan oracle on the same inputs
// and fails unless they agree on the verdict (error text included), the
// frontiers and the merge count. It returns the oracle's merge sequence
// and whether the ascent succeeded.
func greedyDiff(t *testing.T, label string, cols []string, ming, maxg map[string]dht.GenSet, k, workers int, rowLeaves [][]dht.NodeID, weights []int) ([]greedyStep, bool) {
	t.Helper()
	ctx := context.Background()
	var s1, s2 MultiStats
	var steps []greedyStep
	got, gotStats, gotErr := multiGreedy(ctx, cols, ming, maxg, k, workers, rowLeaves, weights, &s1)
	ref, refStats, refErr := multiGreedyRescan(ctx, cols, ming, maxg, k, workers, rowLeaves, weights, &s2, func(ci int, p dht.NodeID) {
		steps = append(steps, greedyStep{ci, p})
	})
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("%s: verdicts differ: dense %v, rescan %v", label, gotErr, refErr)
	}
	if gotErr != nil {
		if gotErr.Error() != refErr.Error() {
			t.Fatalf("%s: error text differs:\n  dense:  %v\n  rescan: %v", label, gotErr, refErr)
		}
		if !errors.Is(gotErr, ErrUnsatisfiable) {
			t.Fatalf("%s: unexpected error: %v", label, gotErr)
		}
		return steps, false
	}
	if err := gensEqual(got, ref); err != nil {
		t.Fatalf("%s: frontiers differ: %v", label, err)
	}
	if gotStats.GreedyMerges != refStats.GreedyMerges {
		t.Fatalf("%s: merges %d vs %d", label, gotStats.GreedyMerges, refStats.GreedyMerges)
	}
	return steps, true
}

func gensEqual(a, b map[string]dht.GenSet) error {
	if len(a) != len(b) {
		return fmt.Errorf("column counts differ: %d vs %d", len(a), len(b))
	}
	for col, ga := range a {
		gb, ok := b[col]
		if !ok {
			return fmt.Errorf("column %s missing", col)
		}
		na, nb := ga.Nodes(), gb.Nodes()
		if len(na) != len(nb) {
			return fmt.Errorf("column %s: %d vs %d members", col, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				return fmt.Errorf("column %s member %d: node %d vs %d", col, i, na[i], nb[i])
			}
		}
	}
	return nil
}

// randomQuasiTable builds a table of nCols quasi-categorical columns
// q0, q1, … over trees from newTree, with rows head-heavy values, and
// the leaf (min) and root (max) frontiers of every column.
func randomQuasiTable(t *testing.T, rng *rand.Rand, nCols, rows int, newTree func(*rand.Rand) *dht.Tree) (*relation.Table, []string, map[string]*dht.Tree, map[string]dht.GenSet, map[string]dht.GenSet) {
	t.Helper()
	cols := make([]string, nCols)
	schemaCols := make([]relation.Column, 0, nCols)
	for ci := range cols {
		cols[ci] = fmt.Sprintf("q%d", ci)
		schemaCols = append(schemaCols, relation.Column{Name: cols[ci], Kind: relation.QuasiCategorical})
	}
	schema, err := relation.NewSchema(schemaCols)
	if err != nil {
		t.Fatal(err)
	}
	trees := make(map[string]*dht.Tree, nCols)
	ming := make(map[string]dht.GenSet, nCols)
	maxg := make(map[string]dht.GenSet, nCols)
	colValues := make([][]string, nCols)
	for ci, col := range cols {
		tree := newTree(rng)
		trees[col] = tree
		ming[col] = dht.LeafGenSet(tree)
		maxg[col] = dht.RootGenSet(tree)
		colValues[ci] = randomValues(tree, rows, rng)
	}
	tbl := relation.NewTable(schema)
	row := make([]string, nCols)
	for r := 0; r < rows; r++ {
		for ci := range cols {
			row[ci] = colValues[ci][r]
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, cols, trees, ming, maxg
}

// sketchTuplesOf returns tbl's distinct quasi-tuples and their
// multiplicities, decoded from a sketch — the weighted form PlanStream
// feeds the ascent.
func sketchTuplesOf(t *testing.T, tbl *relation.Table, trees map[string]*dht.Tree) ([][]dht.NodeID, []int) {
	t.Helper()
	sk := sketchFromSegments(t, tbl, trees, 97)
	leaves, weights, err := sk.decodeTuples()
	if err != nil {
		t.Fatal(err)
	}
	return leaves, weights
}

// TestMultiGreedyMatchesRescan is the differential guard for the dense
// ascent over table rows: on random trees, random skewed data and random
// k, it must take exactly the merge sequence of the full-rescan
// reference — same frontiers, same merge count, same unsatisfiability
// verdicts.
func TestMultiGreedyMatchesRescan(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nCols := 2 + rng.Intn(2)
		tbl, cols, _, ming, maxg := randomQuasiTable(t, rng, nCols, 100+rng.Intn(900), randomCatTree)
		k := 1 + rng.Intn(20)
		workers := 1 + rng.Intn(4)
		rowLeaves, err := resolveRowLeaves(ctx, tbl, cols, ming)
		if err != nil {
			t.Fatal(err)
		}
		greedyDiff(t, fmt.Sprintf("seed %d", seed), cols, ming, maxg, k, workers, rowLeaves, nil)
	}
}

// foldCensus counts, over merge sequences, the groups of two or more
// bins that one merge folds into a single re-keyed bin, by the thin
// (< k) status of the members. The dense ascent keeps the first member
// it meets as the target, in slot order, so a mixed group folds a
// non-thin bin into a thin target or a thin bin into a non-thin one,
// depending on that order.
type foldCensus struct {
	thinStaysThin int // all members thin, and so is their sum
	thinLifted    int // all members thin, their sum reaches k
	mixed         int // thin and non-thin members together
}

// census replays steps from the frontiers ming on a map histogram and
// adds every fold group to c.
func (c *foldCensus) census(rowLeaves [][]dht.NodeID, weights []int, cols []string, ming map[string]dht.GenSet, steps []greedyStep, k int) error {
	var codec wideCodec
	cur := make([]dht.GenSet, len(cols))
	for ci, col := range cols {
		cur[ci] = ming[col]
	}
	comps := make([]uint32, len(cols))
	for _, st := range steps {
		hist := map[string]int{}
		for row := range rowLeaves[0] {
			for ci := range cols {
				m, ok := cur[ci].CoverOf(rowLeaves[ci][row])
				if !ok {
					return fmt.Errorf("leaf %d of column %d uncovered", rowLeaves[ci][row], ci)
				}
				comps[ci] = uint32(m) + 1
			}
			w := 1
			if weights != nil {
				w = weights[row]
			}
			hist[codec.Key(comps)] += w
		}
		tree := cur[st.ci].Tree()
		groups := map[string][]int{}
		for key, n := range hist {
			codec.Decode(key, comps)
			if tree.Parent(dht.NodeID(comps[st.ci]-1)) != st.parent {
				continue
			}
			comps[st.ci] = uint32(st.parent) + 1
			target := codec.Key(comps)
			groups[target] = append(groups[target], n)
		}
		for _, members := range groups {
			if len(members) < 2 {
				continue
			}
			sum, thin := 0, 0
			for _, n := range members {
				sum += n
				if n < k {
					thin++
				}
			}
			switch {
			case thin == len(members) && sum < k:
				c.thinStaysThin++
			case thin == len(members):
				c.thinLifted++
			case thin > 0:
				c.mixed++
			}
		}
		next, err := cur[st.ci].MergeAt(st.parent)
		if err != nil {
			return err
		}
		cur[st.ci] = next
	}
	return nil
}

// TestMultiGreedyWeightedMatchesRescan is the differential guard for
// the weighted form PlanStream runs: sketch tuples with multiplicities,
// 25 seeds and a range of k per seed, each under the root as maximal
// frontier and under the root's children, where the ascent can run out
// of moves. The census proves the runs cover every fold the thin
// counters must track: a thin bin into a thin target that stays thin, a
// thin target lifted to k, and mixed groups.
func TestMultiGreedyWeightedMatchesRescan(t *testing.T) {
	var c foldCensus
	unsat := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl, cols, trees, ming, rootg := randomQuasiTable(t, rng, 2+rng.Intn(2), 200+rng.Intn(1800), randomCatTree)
		capped := make(map[string]dht.GenSet, len(cols))
		for _, col := range cols {
			g, err := dht.NewGenSet(trees[col], trees[col].Children(trees[col].Root()))
			if err != nil {
				t.Fatal(err)
			}
			capped[col] = g
		}
		leaves, weights := sketchTuplesOf(t, tbl, trees)
		for _, k := range []int{2 + rng.Intn(4), 8 + rng.Intn(16), 30 + rng.Intn(70)} {
			for _, maxg := range []map[string]dht.GenSet{rootg, capped} {
				label := fmt.Sprintf("seed %d k %d", seed, k)
				steps, ok := greedyDiff(t, label, cols, ming, maxg, k, 1+rng.Intn(3), leaves, weights)
				if !ok {
					unsat++
				}
				if err := c.census(leaves, weights, cols, ming, steps, k); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
	t.Logf("fold groups: %+v; unsatisfiable runs: %d", c, unsat)
	if c.thinStaysThin == 0 || c.thinLifted == 0 || c.mixed < 20 || unsat == 0 {
		t.Fatalf("census %+v, %d unsatisfiable runs: misses a case the thin counters must handle", c, unsat)
	}
}

// wideTree is a two-level tree of 8–12 groups of 12–20 leaves each
// (105–253 nodes): ten such columns overflow the uint64 bin radix.
func wideTree(rng *rand.Rand) *dht.Tree {
	root := dht.Spec{Value: "all"}
	for g, groups := 0, 8+rng.Intn(5); g < groups; g++ {
		group := dht.Spec{Value: fmt.Sprintf("g%d", g)}
		for l, n := 0, 12+rng.Intn(9); l < n; l++ {
			group.Children = append(group.Children, dht.Spec{Value: fmt.Sprintf("g%dl%d", g, l)})
		}
		root.Children = append(root.Children, group)
	}
	tree, err := dht.NewCategorical("q", root)
	if err != nil {
		panic(err)
	}
	return tree
}

// TestMultiGreedyWideKeyMatchesRescan forces the ascent onto the wide
// string bin key — wide trees times many quasi columns, so the radix over
// nodeBases overflows — and holds it to the rescan oracle over rows and
// over weighted sketch tuples.
func TestMultiGreedyWideKeyMatchesRescan(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl, cols, trees, ming, maxg := randomQuasiTable(t, rng, 10, 1000+rng.Intn(1000), wideTree)
		if _, fits := anonymity.NewRadixKeys(nodeBases(cols, ming)); fits {
			t.Fatalf("seed %d: bin radix fits uint64; want the wide key", seed)
		}
		rowLeaves, err := resolveRowLeaves(ctx, tbl, cols, ming)
		if err != nil {
			t.Fatal(err)
		}
		leaves, weights := sketchTuplesOf(t, tbl, trees)
		k := 2 + rng.Intn(8)
		workers := 1 + rng.Intn(3)
		for _, in := range []struct {
			name    string
			leaves  [][]dht.NodeID
			weights []int
		}{{"rows", rowLeaves, nil}, {"tuples", leaves, weights}} {
			steps, ok := greedyDiff(t, fmt.Sprintf("seed %d %s k %d", seed, in.name, k), cols, ming, maxg, k, workers, in.leaves, in.weights)
			if !ok || len(steps) == 0 {
				t.Fatalf("seed %d %s: want a satisfiable ascent with merges, got ok=%v after %d merges", seed, in.name, ok, len(steps))
			}
		}
	}
}

// greedyBenchInputs builds the BenchmarkMultiBinGreedy fixture: 20k
// synthetic rows, per-column mono frontiers at k=25.
func greedyBenchInputs(tb testing.TB) (*relation.Table, []string, map[string]dht.GenSet, map[string]dht.GenSet) {
	tb.Helper()
	tbl, err := datagen.Generate(datagen.Config{Rows: 20000, Seed: 1, Correlate: true, ZipfS: 1.2})
	if err != nil {
		tb.Fatal(err)
	}
	trees := ontology.Trees()
	quasi := tbl.Schema().QuasiColumns()
	ming := map[string]dht.GenSet{}
	maxg := map[string]dht.GenSet{}
	for _, col := range quasi {
		values, err := tbl.Column(col)
		if err != nil {
			tb.Fatal(err)
		}
		mg := dht.RootGenSet(trees[col])
		g, _, err := MonoBin(trees[col], mg, values, 25, false)
		if err != nil {
			tb.Fatal(err)
		}
		ming[col] = g
		maxg[col] = mg
	}
	return tbl, quasi, ming, maxg
}

// TestMultiGreedyIncrementalFaster is the perf regression guard for the
// acceptance criterion: the dense ascent must beat the rescan
// reference by >= 1.3x on the 20k benchmark fixture (the measured gap
// is far larger; 1.3x keeps the bound robust on noisy CI runners).
func TestMultiGreedyIncrementalFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row ascent x4 in -short mode")
	}
	tbl, cols, ming, maxg := greedyBenchInputs(t)
	ctx := context.Background()
	rowLeaves, err := resolveRowLeaves(ctx, tbl, cols, ming)
	if err != nil {
		t.Fatal(err)
	}
	timeOf := func(fn func() error) time.Duration {
		best := time.Duration(0)
		for i := 0; i < 2; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	incDur := timeOf(func() error {
		var s MultiStats
		_, _, err := multiGreedy(ctx, cols, ming, maxg, 25, 1, rowLeaves, nil, &s)
		return err
	})
	refDur := timeOf(func() error {
		var s MultiStats
		_, _, err := multiGreedyRescan(ctx, cols, ming, maxg, 25, 1, rowLeaves, nil, &s, nil)
		return err
	})
	if incDur*13 > refDur*10 {
		t.Errorf("dense ascent = %v vs rescan = %v; want >= 1.3x speedup", incDur, refDur)
	}
}

// TestMultiGreedyWorkersIdentical pins determinism of the dense
// ascent across worker counts on the benchmark fixture.
func TestMultiGreedyWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-row ascent x3 in -short mode")
	}
	tbl, cols, ming, maxg := greedyBenchInputs(t)
	var baseline map[string]dht.GenSet
	for _, workers := range []int{1, 2, 8} {
		out, _, err := MultiBin(tbl, cols, ming, maxg, 25, StrategyGreedy, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = out
		} else if err := gensEqual(out, baseline); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// fnv64a is the partitioning hash for string bin keys.
func fnv64a(s string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// scanViolating computes, under the current covers, the per-column sets
// of frontier members (dense, indexed like gen.Nodes()) participating in
// bins below k. The table scan is sharded over workers and the bin
// counts are partitioned by key hash so the merge parallelizes too; bin
// counting is a (weight) sum and member collection a set union — both
// order-independent — so every worker count yields the same sets.
// weights nil counts every position once.
func scanViolating[K comparable](ctx context.Context, workers, k int, rowLeaves [][]dht.NodeID, covers [][]int32, weights []int, sizes []int, keyAt func(row int) K, hashOf func(K) uint64) ([][]bool, error) {
	rows := len(rowLeaves[0])
	chunks := pool.Chunks(workers, rows)
	nParts := len(chunks)
	keys := make([]K, rows)

	// Pass 1: every shard counts its rows into per-partition maps.
	shardParts := make([][]map[K]int, nParts)
	if err := pool.ForEachChunkCtx(ctx, workers, rows, func(si, lo, hi int) error {
		parts := make([]map[K]int, nParts)
		for p := range parts {
			parts[p] = make(map[K]int, (hi-lo)/(4*nParts)+1)
		}
		for row := lo; row < hi; row++ {
			if err := pool.CtxAt(ctx, row-lo); err != nil {
				return err
			}
			key := keyAt(row)
			keys[row] = key
			w := 1
			if weights != nil {
				w = weights[row]
			}
			parts[hashOf(key)%uint64(nParts)][key] += w
		}
		shardParts[si] = parts
		return nil
	}); err != nil {
		return nil, err
	}

	// Pass 2: merge each partition across shards — partitions are
	// disjoint key sets, so they merge concurrently.
	counts := make([]map[K]int, nParts)
	if err := pool.ForEachCtx(ctx, workers, nParts, func(p int) error {
		merged := shardParts[0][p]
		for si := 1; si < nParts; si++ {
			for key, n := range shardParts[si][p] {
				merged[key] += n
			}
		}
		counts[p] = merged
		return nil
	}); err != nil {
		return nil, err
	}

	// Pass 3: collect, per column, the frontier members of violating
	// rows into dense shard-local bitmaps, then OR them together.
	shardViol := make([][][]bool, nParts)
	if err := pool.ForEachChunkCtx(ctx, workers, rows, func(si, lo, hi int) error {
		viol := make([][]bool, len(covers))
		for ci := range viol {
			viol[ci] = make([]bool, sizes[ci])
		}
		for row := lo; row < hi; row++ {
			if err := pool.CtxAt(ctx, row-lo); err != nil {
				return err
			}
			key := keys[row]
			if counts[hashOf(key)%uint64(nParts)][key] < k {
				for ci := range covers {
					if mi := covers[ci][rowLeaves[ci][row]]; mi >= 0 {
						viol[ci][mi] = true
					}
				}
			}
		}
		shardViol[si] = viol
		return nil
	}); err != nil {
		return nil, err
	}
	violating := shardViol[0]
	for _, shard := range shardViol[1:] {
		for ci := range violating {
			for mi, v := range shard[ci] {
				if v {
					violating[ci][mi] = true
				}
			}
		}
	}
	return violating, nil
}

// multiGreedyRescan is the row-rescan reference ascent: every iteration
// re-derives the violating members with a full-table scan. It is the
// differential oracle multiGreedy is tested against; onMerge, when not
// nil, sees every merge it takes.
func multiGreedyRescan(
	ctx context.Context,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k, workers int,
	rowLeaves [][]dht.NodeID,
	weights []int,
	stats *MultiStats,
	onMerge func(ci int, parent dht.NodeID),
) (map[string]dht.GenSet, MultiStats, error) {
	cur := make([]dht.GenSet, len(cols))
	for ci, col := range cols {
		cur[ci] = mingends[col]
	}
	covers := make([][]int32, len(cols))
	for ci := range cur {
		covers[ci] = coverTable(cur[ci])
	}

	for {
		// Identify the members (per column) participating in bins under
		// k. The lattice ascent is inherently iterative — every merge
		// depends on the previous one — but each iteration's full-table
		// scan shards across workers with a deterministic merge.
		sizes := make([]int, len(cur))
		for ci := range cur {
			sizes[ci] = cur[ci].Len()
		}
		var violating [][]bool
		var err error
		if bases, fits := binKeyBases(covers); fits {
			violating, err = scanViolating(ctx, workers, k, rowLeaves, covers, weights, sizes, func(row int) uint64 {
				return radixKeyAt(rowLeaves, covers, bases, row)
			}, func(key uint64) uint64 { return key })
		} else {
			violating, err = scanViolating(ctx, workers, k, rowLeaves, covers, weights, sizes, func(row int) string {
				return stringKeyAt(rowLeaves, covers, row)
			}, fnv64a)
		}
		if err != nil {
			return nil, *stats, err
		}
		anyViolation := false
		for _, col := range violating {
			for _, v := range col {
				if v {
					anyViolation = true
					break
				}
			}
		}
		if !anyViolation {
			break
		}

		// Candidate moves: merge a parent whose children are all frontier
		// members, staying within the maximal nodes. Prefer moves whose
		// merged member covers a violating bin; among those, the smallest
		// specificity-loss increase; deterministic tie-break.
		type move struct {
			ci     int
			parent dht.NodeID
			delta  float64
			helps  bool
		}
		var bestMove *move
		better := func(a, b *move) bool {
			if a.helps != b.helps {
				return a.helps
			}
			if a.delta != b.delta {
				return a.delta < b.delta
			}
			if a.ci != b.ci {
				return a.ci < b.ci
			}
			return a.parent < b.parent
		}
		for ci, col := range cols {
			tree := cur[ci].Tree()
			memberIndex := make(map[dht.NodeID]int32, cur[ci].Len())
			for mi, m := range cur[ci].Nodes() {
				memberIndex[m] = int32(mi)
			}
			for _, p := range cur[ci].MergeCandidates() {
				if _, ok := maxgends[col].CoverOf(p); !ok {
					continue // would climb past the usage metrics
				}
				helps := false
				for _, c := range tree.Children(p) {
					if violating[ci][memberIndex[c]] {
						helps = true
						break
					}
				}
				delta := float64(len(tree.Children(p))-1) / float64(tree.NumLeaves())
				m := &move{ci: ci, parent: p, delta: delta, helps: helps}
				if bestMove == nil || better(m, bestMove) {
					bestMove = m
				}
			}
		}
		if bestMove == nil {
			return nil, *stats, fmt.Errorf(
				"binning: greedy ascent exhausted at k=%d without satisfying k-anonymity: %w", k, ErrUnsatisfiable)
		}
		next, err := cur[bestMove.ci].MergeAt(bestMove.parent)
		if err != nil {
			return nil, *stats, fmt.Errorf("binning: internal: %w", err)
		}
		cur[bestMove.ci] = next
		covers[bestMove.ci] = coverTable(next)
		if onMerge != nil {
			onMerge(bestMove.ci, bestMove.parent)
		}
		stats.GreedyMerges++
	}

	out := make(map[string]dht.GenSet, len(cols))
	for ci, col := range cols {
		out[col] = cur[ci]
	}
	return out, *stats, nil
}
