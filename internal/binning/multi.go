package binning

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/dht"
	"repro/internal/pool"
	"repro/internal/relation"
)

// Strategy selects how multi-attribute binning searches the space of
// allowable generalizations (§4.2.2).
type Strategy int

const (
	// StrategyAuto enumerates exhaustively when the candidate product is
	// within EnumLimit and falls back to greedy otherwise.
	StrategyAuto Strategy = iota
	// StrategyExhaustive implements Figure 7 literally: enumerate every
	// combination of allowable generalizations, filter by k-anonymity,
	// select the one with minimal specificity loss.
	StrategyExhaustive
	// StrategyGreedy ascends the generalization lattice from the minimal
	// nodes, merging the cheapest frontier member that covers a violating
	// bin, until joint k-anonymity holds.
	StrategyGreedy
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyExhaustive:
		return "exhaustive"
	case StrategyGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// MultiStats reports the work done by multi-attribute binning.
type MultiStats struct {
	// Strategy actually used (after Auto resolution).
	Strategy Strategy
	// Candidates is the number of joint generalizations evaluated
	// (exhaustive) and Valid how many satisfied k-anonymity.
	Candidates, Valid int
	// GreedyMerges is the number of lattice ascent steps (greedy).
	GreedyMerges int
}

// DefaultEnumLimit bounds the exhaustive candidate product in Auto mode.
const DefaultEnumLimit = 4096

// MultiBin implements GenUltiNd of Figure 7: given per-column minimal and
// maximal generalization nodes, it chooses the ultimate generalization —
// a per-column frontier between the bounds whose joint table satisfies
// k-anonymity with minimal specificity loss ((N−Ng)/N averaged over
// columns, the paper's efficient estimate).
//
// cols fixes the column order; every col must appear in trees, mingends
// and maxgends. Rows of tbl provide the joint distribution.
//
// workers bounds the goroutines used by the exhaustive search (each
// candidate frontier needs a full k-anonymity check over the table, so
// the search is embarrassingly parallel); <= 0 means GOMAXPROCS, 1 runs
// sequentially. The result is byte-identical for every worker count:
// candidates are ranked by (specificity loss, enumeration index).
func MultiBin(
	tbl *relation.Table,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k int,
	strategy Strategy,
	enumLimit int,
	workers int,
) (map[string]dht.GenSet, MultiStats, error) {
	return MultiBinContext(context.Background(), tbl, cols, mingends, maxgends, k, strategy, enumLimit, workers)
}

// MultiBinContext is MultiBin under a context: candidate evaluation
// (exhaustive) and the per-iteration table scans (greedy) stop once ctx
// is done and the context's error is returned. An exhaustive search over
// thousands of candidates — each a full-table k-anonymity check — aborts
// at the next candidate boundary; greedy scans abort at the next
// pool.CtxStride row batch.
func MultiBinContext(
	ctx context.Context,
	tbl *relation.Table,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k int,
	strategy Strategy,
	enumLimit int,
	workers int,
) (map[string]dht.GenSet, MultiStats, error) {
	var stats MultiStats
	if k < 1 {
		return nil, stats, fmt.Errorf("binning: k must be >= 1, got %d", k)
	}
	if len(cols) == 0 {
		return nil, stats, fmt.Errorf("binning: no columns to bin")
	}
	if enumLimit <= 0 {
		enumLimit = DefaultEnumLimit
	}
	for _, c := range cols {
		lo, ok := mingends[c]
		if !ok {
			return nil, stats, fmt.Errorf("binning: no minimal generalization nodes for %s", c)
		}
		hi, ok := maxgends[c]
		if !ok {
			return nil, stats, fmt.Errorf("binning: no maximal generalization nodes for %s", c)
		}
		if lo.Tree() != hi.Tree() || lo.Tree() == nil {
			return nil, stats, fmt.Errorf("binning: bounds for %s not over one tree", c)
		}
		if !lo.AtOrBelow(hi) {
			return nil, stats, fmt.Errorf("binning: minimal nodes for %s not below maximal nodes", c)
		}
	}

	rowLeaves, err := resolveRowLeaves(ctx, tbl, cols, mingends)
	if err != nil {
		return nil, stats, err
	}

	return multiBinLeaves(ctx, cols, mingends, maxgends, k, strategy, enumLimit, workers, rowLeaves, nil, &stats)
}

// multiBinLeaves is the strategy core MultiBinContext and SearchSketch
// share: the multi-attribute search over pre-resolved per-column leaf
// vectors. Each position of rowLeaves is one unit of the joint
// distribution — a table row (weights nil, every unit counts once) or a
// distinct quasi-tuple of a Sketch (weights holds its multiplicity).
// Bin sizes are weight sums, so the weighted tuple form yields exactly
// the histograms, violating sets and merge sequences of the expanded
// rows.
func multiBinLeaves(
	ctx context.Context,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k int,
	strategy Strategy,
	enumLimit int,
	workers int,
	rowLeaves [][]dht.NodeID,
	weights []int,
	stats *MultiStats,
) (map[string]dht.GenSet, MultiStats, error) {
	if enumLimit <= 0 {
		enumLimit = DefaultEnumLimit
	}

	// An empty table satisfies any k vacuously: keep the minimal nodes.
	if len(rowLeaves) == 0 || len(rowLeaves[0]) == 0 {
		out := make(map[string]dht.GenSet, len(cols))
		for _, c := range cols {
			out[c] = mingends[c]
		}
		stats.Strategy = strategy
		return out, *stats, nil
	}

	// Resolve Auto by counting the candidate product with a cap.
	resolved := strategy
	if resolved == StrategyAuto {
		product := 1
		for _, c := range cols {
			n, err := dht.CountBetween(mingends[c], maxgends[c], enumLimit+1)
			if err != nil {
				return nil, *stats, err
			}
			product *= n
			if product > enumLimit {
				break
			}
		}
		if product > enumLimit {
			resolved = StrategyGreedy
		} else {
			resolved = StrategyExhaustive
		}
	}
	stats.Strategy = resolved

	switch resolved {
	case StrategyExhaustive:
		return multiExhaustive(ctx, cols, mingends, maxgends, k, enumLimit, workers, rowLeaves, weights, stats)
	case StrategyGreedy:
		return multiGreedy(ctx, cols, mingends, maxgends, k, workers, rowLeaves, weights, stats)
	default:
		return nil, *stats, fmt.Errorf("binning: unknown strategy %v", strategy)
	}
}

// resolveRowLeaves maps every row and column to its DHT leaf once, so
// candidate evaluation is pure array work. Resolution runs per distinct
// dictionary entry — the paper's "essentially categorical" observation —
// and rows fan out by integer code.
func resolveRowLeaves(ctx context.Context, tbl *relation.Table, cols []string, gens map[string]dht.GenSet) ([][]dht.NodeID, error) {
	out := make([][]dht.NodeID, len(cols))
	for ci, col := range cols {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tree := gens[col].Tree()
		colIdx, err := tbl.Schema().Index(col)
		if err != nil {
			return nil, err
		}
		dict, codes := tbl.DictValues(colIdx), tbl.Codes(colIdx)
		used := make([]bool, len(dict))
		for _, code := range codes {
			used[code] = true
		}
		leafOf := make([]dht.NodeID, len(dict))
		for code, v := range dict {
			if !used[code] {
				continue
			}
			leaf, err := tree.ResolveLeaf(v)
			if err != nil {
				return nil, fmt.Errorf("binning: column %s value %q: %w", col, v, err)
			}
			leafOf[code] = leaf
		}
		leaves := make([]dht.NodeID, len(codes))
		for i, code := range codes {
			leaves[i] = leafOf[code]
		}
		out[ci] = leaves
	}
	return out, nil
}

// coverTable maps every tree node to the index (into gen.Nodes()) of its
// covering member, or -1. Leaf lookups then run in O(1).
func coverTable(gen dht.GenSet) []int32 {
	tree := gen.Tree()
	table := make([]int32, tree.Size())
	for i := range table {
		table[i] = -1
	}
	for mi, m := range gen.Nodes() {
		for _, leaf := range tree.LeavesUnder(m) {
			table[leaf] = int32(mi)
		}
		table[m] = int32(mi)
	}
	return table
}

// binKeyBases returns, per column, the radix base for composing a joint
// bin key from cover indices (shifted by one so an uncovered leaf's -1
// encodes as 0), and whether the full product fits in uint64 — it does
// for any realistic tree set; the string fallback exists for safety.
func binKeyBases(covers [][]int32) ([]uint64, bool) {
	bases := make([]uint64, len(covers))
	prod := uint64(1)
	fits := true
	for ci, table := range covers {
		var maxIdx int32 = -1
		for _, mi := range table {
			if mi > maxIdx {
				maxIdx = mi
			}
		}
		base := uint64(maxIdx) + 2
		bases[ci] = base
		if prod > math.MaxUint64/base {
			fits = false
		} else {
			prod *= base
		}
	}
	return bases, fits
}

// radixKeyAt composes the uint64 joint-bin key of one row.
func radixKeyAt(rowLeaves [][]dht.NodeID, covers [][]int32, bases []uint64, row int) uint64 {
	var key uint64
	for ci := range covers {
		key = key*bases[ci] + uint64(covers[ci][rowLeaves[ci][row]]+1)
	}
	return key
}

// stringKeyAt composes the string joint-bin key of one row (fallback for
// degenerate trees whose radix product overflows).
func stringKeyAt(rowLeaves [][]dht.NodeID, covers [][]int32, row int) string {
	buf := make([]byte, 0, 4*len(covers))
	for ci := range covers {
		buf = strconv.AppendInt(buf, int64(covers[ci][rowLeaves[ci][row]]), 10)
		buf = append(buf, '|')
	}
	return string(buf)
}

// jointMinBin computes the minimum non-empty joint bin size of the table
// under the per-column frontiers. weights nil counts every position once;
// otherwise position i contributes weights[i].
func jointMinBin(rowLeaves [][]dht.NodeID, covers [][]int32, weights []int) int {
	if len(rowLeaves) == 0 || len(rowLeaves[0]) == 0 {
		return 0
	}
	rows := len(rowLeaves[0])
	min := -1
	if bases, fits := binKeyBases(covers); fits {
		counts := make(map[uint64]int, rows/4+1)
		for row := 0; row < rows; row++ {
			w := 1
			if weights != nil {
				w = weights[row]
			}
			counts[radixKeyAt(rowLeaves, covers, bases, row)] += w
		}
		for _, n := range counts {
			if min < 0 || n < min {
				min = n
			}
		}
		return min
	}
	counts := make(map[string]int, rows/4+1)
	for row := 0; row < rows; row++ {
		w := 1
		if weights != nil {
			w = weights[row]
		}
		counts[stringKeyAt(rowLeaves, covers, row)] += w
	}
	for _, n := range counts {
		if min < 0 || n < min {
			min = n
		}
	}
	return min
}

// avgSpecificityLoss averages (N−Ng)/N across the chosen frontiers.
func avgSpecificityLoss(gens []dht.GenSet) float64 {
	if len(gens) == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range gens {
		sum += g.SpecificityLoss()
	}
	return sum / float64(len(gens))
}

func multiExhaustive(
	ctx context.Context,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k, enumLimit, workers int,
	rowLeaves [][]dht.NodeID,
	weights []int,
	stats *MultiStats,
) (map[string]dht.GenSet, MultiStats, error) {
	// Materialize per-column allowable generalizations (EnumGen of the
	// paper, bounded by enumLimit on the total product).
	perCol := make([][]dht.GenSet, len(cols))
	product := 1
	for ci, col := range cols {
		var list []dht.GenSet
		err := dht.EnumerateBetween(mingends[col], maxgends[col], func(g dht.GenSet) bool {
			list = append(list, g)
			return product*len(list) <= enumLimit
		})
		if err != nil {
			return nil, *stats, err
		}
		if len(list) == 0 {
			return nil, *stats, fmt.Errorf("binning: no allowable generalization for %s", col)
		}
		perCol[ci] = list
		product *= len(list)
		if product > enumLimit {
			return nil, *stats, fmt.Errorf(
				"binning: candidate product exceeds limit %d; use StrategyGreedy or raise EnumLimit", enumLimit)
		}
	}

	// Cover tables are a function of the frontier alone, so build each
	// once up front instead of per candidate (the sequential walk used to
	// rebuild them for every combination).
	perColCovers := make([][][]int32, len(cols))
	for ci, list := range perCol {
		perColCovers[ci] = make([][]int32, len(list))
		for gi, g := range list {
			perColCovers[ci][gi] = coverTable(g)
		}
	}

	// Candidates form a mixed-radix index space with column 0 as the most
	// significant digit — the exact order the recursive walk visited them
	// in. Each candidate's k-anonymity check is independent, so they are
	// evaluated in parallel; the reduction below runs in index order,
	// keeping the min-loss/first-wins tie-break byte-identical to the
	// sequential search.
	decode := func(c int, idx []int) {
		for ci := len(cols) - 1; ci >= 0; ci-- {
			idx[ci] = c % len(perCol[ci])
			c /= len(perCol[ci])
		}
	}
	type verdict struct {
		valid bool
		loss  float64
	}
	verdicts := make([]verdict, product)
	if err := pool.ForEachCtx(ctx, workers, product, func(c int) error {
		idx := make([]int, len(cols))
		decode(c, idx)
		covers := make([][]int32, len(cols))
		choice := make([]dht.GenSet, len(cols))
		for ci, gi := range idx {
			covers[ci] = perColCovers[ci][gi]
			choice[ci] = perCol[ci][gi]
		}
		if jointMinBin(rowLeaves, covers, weights) < k {
			return nil
		}
		verdicts[c] = verdict{valid: true, loss: avgSpecificityLoss(choice)}
		return nil
	}); err != nil {
		return nil, *stats, err
	}

	stats.Candidates = product
	bestIdx := -1
	bestLoss := 0.0
	for c, v := range verdicts {
		if !v.valid {
			continue
		}
		stats.Valid++
		if bestIdx < 0 || v.loss < bestLoss {
			bestIdx, bestLoss = c, v.loss
		}
	}
	if bestIdx < 0 {
		return nil, *stats, fmt.Errorf(
			"binning: no allowable generalization satisfies k=%d: %w", k, ErrUnsatisfiable)
	}
	idx := make([]int, len(cols))
	decode(bestIdx, idx)
	out := make(map[string]dht.GenSet, len(cols))
	for ci, col := range cols {
		out[col] = perCol[ci][idx[ci]]
	}
	return out, *stats, nil
}

// SortedColumns returns the quasi-identifying column names of the schema
// in deterministic (schema) order — the canonical cols argument for
// MultiBin and Run.
func SortedColumns(tbl *relation.Table) []string {
	cols := tbl.Schema().QuasiColumns()
	sorted := make([]string, len(cols))
	copy(sorted, cols)
	sort.Strings(sorted)
	return sorted
}
