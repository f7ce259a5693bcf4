package binning

import (
	"context"
	"fmt"
	"hash/maphash"

	"repro/internal/anonymity"
	"repro/internal/dht"
	"repro/internal/pool"
)

// The greedy lattice ascent.
//
// A merge changes the joint histogram in a purely local way: the only
// bins that move are those whose merged-column component is one of the
// merged parent's children, and they move to bins keyed by the parent —
// MergeCandidates only offers parents whose children are all frontier
// members, so every other key component is untouched and the parent
// itself keys no bin before the merge. multiGreedy therefore scans the
// rows once, to build the joint histogram keyed by per-column covering
// NodeIDs (stable across merges, unlike frontier member indices), and
// then works on a dense copy of it: one component slice per column and
// a count slice, with folded-away bins marked dead and compacted out
// once they make up a quarter of the slots.
//
// Per merge the cost is one sequential pass over the merged column's
// component slice (a byte and a uint32 load per bin, no key decoding)
// plus hashing of the moved bins alone, which group by re-keyed value
// in a scratch map cleared after the merge: every merge target is
// another moved bin, so no global key→bin index exists. The violating
// frontier members are never re-derived: a live counter per (column,
// member) holds the number of thin (< k) bins the member takes part
// in, updated only when a thin bin moves or dies or a target reaches
// k. A move helps when a child of its parent has a non-zero counter,
// and the ascent stops when no counter is non-zero — exactly the
// violating sets the row rescan derives, so the move selection takes
// the identical merge sequence: same frontier, same stats,
// byte-identical downstream output.
//
// Keys are a uint64 mixed radix of the components when the product of
// the tree sizes fits, and a fixed-width string of the components
// otherwise; only the build and the grouping of moved bins see them.

// greedyMove is one candidate lattice step.
type greedyMove struct {
	ci     int
	parent dht.NodeID
	delta  float64
	helps  bool
}

// betterGreedyMove is the ascent's strict move order: helping moves
// first, then smallest specificity-loss increase, then the
// deterministic (column, parent) tie-break.
func betterGreedyMove(a, b *greedyMove) bool {
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

// nodeBases returns the per-column radix bases (tree size + 1, so 0 can
// encode "uncovered") for composing a joint bin key from covering
// NodeIDs.
func nodeBases(cols []string, mingends map[string]dht.GenSet) []uint64 {
	bases := make([]uint64, len(cols))
	for ci, col := range cols {
		bases[ci] = uint64(mingends[col].Tree().Size()) + 1
	}
	return bases
}

// coverNodes maps every tree node to its covering frontier member's
// NodeID + 1, or 0 when uncovered — coverTable with stable node
// identities instead of frontier indices.
func coverNodes(gen dht.GenSet) []uint32 {
	tree := gen.Tree()
	table := make([]uint32, tree.Size())
	for _, m := range gen.Nodes() {
		for _, leaf := range tree.LeavesUnder(m) {
			table[leaf] = uint32(m) + 1
		}
		table[m] = uint32(m) + 1
	}
	return table
}

// binCodec composes a joint bin key from per-column components
// (covering NodeID + 1) and decomposes it again; hash partitions keys
// for the sharded build.
type binCodec[K comparable] interface {
	anonymity.TupleCodec[K]
	hash(key K) uint64
}

// radixCodec keys bins by the uint64 mixed radix over nodeBases.
type radixCodec struct{ anonymity.RadixKeys }

func (radixCodec) hash(key uint64) uint64 { return key }

// wideCodec keys bins by four bytes per component, for tree sets whose
// radix product overflows uint64.
type wideCodec struct {
	anonymity.WideKeys
	seed maphash.Seed
}

func (c wideCodec) hash(key string) uint64 { return maphash.String(c.seed, key) }

// greedyBins is the joint histogram in dense form: bin b has component
// comp[ci][b] in column ci and weight cnt[b]; a bin folded into another
// has cnt -1 until compaction drops it. thin[ci][v] counts the live
// thin bins with component v in column ci, and thinRefs sums thin.
type greedyBins struct {
	comp     [][]uint32
	cnt      []int
	dead     int
	thin     [][]int
	thinRefs int
}

// markThin adds delta to the thin counters of bin b's components.
func (g *greedyBins) markThin(b, delta int) {
	for ci := range g.comp {
		if v := g.comp[ci][b]; v != 0 {
			g.thin[ci][v] += delta
			g.thinRefs += delta
		}
	}
}

// compact drops the dead bins, keeping the live ones in order.
func (g *greedyBins) compact() {
	live := 0
	for b, n := range g.cnt {
		if n < 0 {
			continue
		}
		for ci := range g.comp {
			g.comp[ci][live] = g.comp[ci][b]
		}
		g.cnt[live] = n
		live++
	}
	for ci := range g.comp {
		g.comp[ci] = g.comp[ci][:live]
	}
	g.cnt = g.cnt[:live]
	g.dead = 0
}

// buildBins scans the rows once, sharded over workers, and returns the
// dense joint histogram. Shards count into hash-partitioned maps merged
// partition-parallel; the partitions hold disjoint keys, so each is
// appended to the dense slices and released in turn. Counts are
// (weight) sums, so every worker count yields the same bins, and the
// slot order never reaches the outcome. weights nil counts every
// position once.
func buildBins[K comparable, C binCodec[K]](ctx context.Context, workers int, rowLeaves [][]dht.NodeID, weights []int, cover [][]uint32, codec C) (*greedyBins, error) {
	rows := len(rowLeaves[0])
	chunks := pool.Chunks(workers, rows)
	nParts := len(chunks)
	shardParts := make([][]map[K]int, nParts)
	if err := pool.ForEachChunkCtx(ctx, workers, rows, func(si, lo, hi int) error {
		parts := make([]map[K]int, nParts)
		for p := range parts {
			parts[p] = make(map[K]int, (hi-lo)/(4*nParts)+1)
		}
		comps := make([]uint32, len(cover))
		for row := lo; row < hi; row++ {
			if err := pool.CtxAt(ctx, row-lo); err != nil {
				return err
			}
			for ci := range cover {
				comps[ci] = cover[ci][rowLeaves[ci][row]]
			}
			key := codec.Key(comps)
			w := 1
			if weights != nil {
				w = weights[row]
			}
			parts[codec.hash(key)%uint64(nParts)][key] += w
		}
		shardParts[si] = parts
		return nil
	}); err != nil {
		return nil, err
	}
	parts := make([]map[K]int, nParts)
	if err := pool.ForEachCtx(ctx, workers, nParts, func(p int) error {
		merged := shardParts[0][p]
		for si := 1; si < nParts; si++ {
			for key, n := range shardParts[si][p] {
				merged[key] += n
			}
			shardParts[si][p] = nil
		}
		parts[p] = merged
		return nil
	}); err != nil {
		return nil, err
	}

	total := 0
	for _, part := range parts {
		total += len(part)
	}
	g := &greedyBins{comp: make([][]uint32, len(cover)), cnt: make([]int, 0, total)}
	for ci := range g.comp {
		g.comp[ci] = make([]uint32, 0, total)
	}
	comps := make([]uint32, len(cover))
	for p, part := range parts {
		for key, n := range part {
			codec.Decode(key, comps)
			for ci, v := range comps {
				g.comp[ci] = append(g.comp[ci], v)
			}
			g.cnt = append(g.cnt, n)
		}
		parts[p] = nil
	}
	return g, nil
}

// greedyMoveCand is one memoized candidate merge of a column: the
// parent and its specificity-loss increase. Both are functions of the
// column's frontier alone, so the list is invalidated only when that
// column merges; whether the move helps depends on the current thin
// counters and is re-derived per iteration.
type greedyMoveCand struct {
	parent dht.NodeID
	delta  float64
}

func multiGreedy(
	ctx context.Context,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k, workers int,
	rowLeaves [][]dht.NodeID,
	weights []int,
	stats *MultiStats,
) (map[string]dht.GenSet, MultiStats, error) {
	if radix, fits := anonymity.NewRadixKeys(nodeBases(cols, mingends)); fits {
		return greedyAscend(ctx, cols, mingends, maxgends, k, workers, rowLeaves, weights, stats, radixCodec{radix})
	}
	return greedyAscend(ctx, cols, mingends, maxgends, k, workers, rowLeaves, weights, stats, wideCodec{seed: maphash.MakeSeed()})
}

func greedyAscend[K comparable, C binCodec[K]](
	ctx context.Context,
	cols []string,
	mingends, maxgends map[string]dht.GenSet,
	k, workers int,
	rowLeaves [][]dht.NodeID,
	weights []int,
	stats *MultiStats,
	codec C,
) (map[string]dht.GenSet, MultiStats, error) {
	cur := make([]dht.GenSet, len(cols))
	cover := make([][]uint32, len(cols))
	for ci, col := range cols {
		cur[ci] = mingends[col]
		cover[ci] = coverNodes(cur[ci])
	}
	bins, err := buildBins(ctx, workers, rowLeaves, weights, cover, codec)
	if err != nil {
		return nil, *stats, err
	}

	// isChild[ci] flags the components of the merging parent's children
	// during a merge; thin is indexed by component like it.
	isChild := make([][]bool, len(cols))
	bins.thin = make([][]int, len(cols))
	for ci := range cols {
		isChild[ci] = make([]bool, cur[ci].Tree().Size()+1)
		bins.thin[ci] = make([]int, cur[ci].Tree().Size()+1)
	}
	for b, n := range bins.cnt {
		if n < k {
			bins.markThin(b, 1)
		}
	}
	memo := make([][]greedyMoveCand, len(cols))
	group, groupPeak := make(map[K]int), 0
	comps := make([]uint32, len(cols))

	for {
		if err := ctx.Err(); err != nil {
			return nil, *stats, err
		}
		if bins.thinRefs == 0 {
			break
		}

		// Candidate moves: parents and deltas come from the per-column
		// memo; once a helping move is at hand, non-helping candidates
		// cannot win and are pruned without evaluation.
		var bestMove *greedyMove
		for ci, col := range cols {
			tree := cur[ci].Tree()
			if memo[ci] == nil {
				list := make([]greedyMoveCand, 0, 8)
				for _, p := range cur[ci].MergeCandidates() {
					if _, ok := maxgends[col].CoverOf(p); !ok {
						continue // would climb past the usage metrics
					}
					delta := float64(len(tree.Children(p))-1) / float64(tree.NumLeaves())
					list = append(list, greedyMoveCand{parent: p, delta: delta})
				}
				memo[ci] = list
			}
			for _, cand := range memo[ci] {
				helps := false
				for _, c := range tree.Children(cand.parent) {
					if bins.thin[ci][c+1] > 0 {
						helps = true
						break
					}
				}
				if bestMove != nil && bestMove.helps && !helps {
					continue
				}
				m := &greedyMove{ci: ci, parent: cand.parent, delta: cand.delta, helps: helps}
				if bestMove == nil || betterGreedyMove(m, bestMove) {
					bestMove = m
				}
			}
		}
		if bestMove == nil {
			return nil, *stats, fmt.Errorf(
				"binning: greedy ascent exhausted at k=%d without satisfying k-anonymity: %w", k, ErrUnsatisfiable)
		}

		ci, p := bestMove.ci, bestMove.parent
		next, err := cur[ci].MergeAt(p)
		if err != nil {
			return nil, *stats, fmt.Errorf("binning: internal: %w", err)
		}
		cur[ci] = next
		children := next.Tree().Children(p)
		for _, c := range children {
			isChild[ci][c+1] = true
		}

		// Re-key every bin on a child to the parent. The first moved bin
		// of each re-keyed value stays in place as the merge target; the
		// rest fold into it and die.
		to := uint32(p) + 1
		col, thin, child := bins.comp[ci], bins.thin[ci], isChild[ci]
		for b, v := range col {
			if !child[v] || bins.cnt[b] < 0 {
				continue
			}
			n := bins.cnt[b]
			if n < k {
				thin[v]--
				thin[to]++
			}
			col[b] = to
			for cj := range comps {
				comps[cj] = bins.comp[cj][b]
			}
			key := codec.Key(comps)
			t, ok := group[key]
			if !ok {
				group[key] = b
				continue
			}
			if n < k {
				bins.markThin(b, -1)
			}
			if m := bins.cnt[t]; m < k && m+n >= k {
				bins.markThin(t, -1)
			}
			bins.cnt[t] += n
			bins.cnt[b] = -1
			bins.dead++
		}
		for _, c := range children {
			isChild[ci][c+1] = false
		}
		// clear costs a map's whole capacity, so a scratch map grown by
		// an earlier, larger merge is dropped instead of cleared.
		groupPeak = max(groupPeak, len(group))
		if len(group)*4 < groupPeak {
			group, groupPeak = make(map[K]int), 0
		} else {
			clear(group)
		}
		if bins.dead*4 > len(bins.cnt) {
			bins.compact()
		}
		memo[ci] = nil
		stats.GreedyMerges++
	}

	out := make(map[string]dht.GenSet, len(cols))
	for ci, col := range cols {
		out[col] = cur[ci]
	}
	return out, *stats, nil
}
