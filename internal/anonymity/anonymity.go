// Package anonymity implements k-anonymity verification and the bin
// statistics of the paper. "Records containing the same value constitute
// a bin, and the size of every bin is at least equal to k" (Section 2).
// Figure 14's seamlessness experiment reports, per attribute, the total
// number of bins, the number of bins whose size changed under
// watermarking, and the number of bins that fell below k.
package anonymity

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dht"
	"repro/internal/relation"
)

// keySep joins cell values into a bin key; \x1f (unit separator) cannot
// appear in normal cell values.
const keySep = "\x1f"

// appendBinKey appends the keySep-joined bin key of the given cell
// values to dst — the single definition of the key shape that BinKey,
// Bins and Flow all share.
func appendBinKey(dst []byte, cellAt func(i int) string, n int) []byte {
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, keySep...)
		}
		dst = append(dst, cellAt(i)...)
	}
	return dst
}

// BinKey builds the bin identity of a row over the given column indices.
func BinKey(row []string, colIdx []int) string {
	return string(appendBinKey(nil, func(i int) string { return row[colIdx[i]] }, len(colIdx)))
}

// Bins returns the bin-size map of the table over the given columns:
// bin value-combination → number of tuples.
func Bins(tbl *relation.Table, cols []string) (map[string]int, error) {
	out := make(map[string]int)
	if err := AddBins(out, tbl, cols); err != nil {
		return nil, err
	}
	return out, nil
}

// AddBins adds the table's bin sizes over the given columns to dst —
// Bins accumulated across tables, as the streamed operations count
// their segments. Rows are counted by dictionary code (CountBins), so
// each bin's key is spelled once per table, not once per row.
func AddBins(dst map[string]int, tbl *relation.Table, cols []string) error {
	dicts := make([][]string, len(cols))
	codes := make([][]uint32, len(cols))
	for i, c := range cols {
		ci, err := tbl.Schema().Index(c)
		if err != nil {
			return err
		}
		dicts[i] = tbl.DictValues(ci)
		codes[i] = tbl.Codes(ci)
	}
	CountBins(dst, dicts, codes, tbl.NumRows(), nil)
	return nil
}

// GeneralizedBins returns the bin-size map tbl would have after
// generalizing each of cols to its frontier in gens — Bins of the
// would-be transformed table, computed without materializing it. The
// generalization is resolved once per distinct dictionary entry; rows
// contribute by code. Keys are identical to Bins over the transformed
// table, so the two maps are interchangeable.
func GeneralizedBins(tbl *relation.Table, cols []string, gens map[string]dht.GenSet) (map[string]int, error) {
	dicts := make([][]string, len(cols))
	codes := make([][]uint32, len(cols))
	for i, c := range cols {
		ci, err := tbl.Schema().Index(c)
		if err != nil {
			return nil, err
		}
		gen, ok := gens[c]
		if !ok {
			return nil, fmt.Errorf("anonymity: no generalization frontier for column %s", c)
		}
		colCodes := tbl.Codes(ci)
		dict := tbl.DictValues(ci)
		// Only entries some row still uses are generalized — deletions
		// can orphan dictionary entries, and an orphan must not be able
		// to fail the scan (MapColumnCtx skips them the same way on the
		// real transform path).
		inUse := make([]bool, len(dict))
		for _, code := range colCodes {
			inUse[code] = true
		}
		mapped := make([]string, len(dict))
		for code, v := range dict {
			if !inUse[code] {
				continue
			}
			g, err := gen.GeneralizeValue(v)
			if err != nil {
				return nil, fmt.Errorf("anonymity: column %s value %q: %w", c, v, err)
			}
			mapped[code] = g
		}
		dicts[i] = mapped
		codes[i] = colCodes
	}
	out := make(map[string]int)
	CountBins(out, dicts, codes, tbl.NumRows(), nil)
	return out, nil
}

// CountBins adds to dst the bin sizes of rows given as per-column codes:
// row r has code codes[c][r] in column c and weight weights[r] (1 when
// weights is nil), and spell[c][code] is the bin-key component of that
// code. Only codes some row uses are spelled.
//
// The rows are counted by their code tuple, keyed by RadixKeys (base =
// len(spell[c])) when the product of the bases fits and by WideKeys
// otherwise; then each distinct tuple's key is spelled once. Distinct
// tuples whose keys coincide — two codes generalized to one value,
// say — are summed.
func CountBins[C ~uint32 | ~int32](dst map[string]int, spell [][]string, codes [][]C, rows int, weights []int) {
	bases := make([]uint64, len(spell))
	for c := range spell {
		bases[c] = uint64(max(len(spell[c]), 1))
	}
	if radix, fits := NewRadixKeys(bases); fits {
		countTuples(dst, spell, codes, rows, weights, radix)
		return
	}
	countTuples(dst, spell, codes, rows, weights, &wideInterned{seen: make(map[string]string)})
}

// RadixKeys packs a tuple of per-column codes, each below its column's
// base, into a uint64 mixed radix, the first column most significant.
type RadixKeys struct{ bases, places []uint64 }

// NewRadixKeys returns the mixed radix over bases (each ≥ 1), and false
// when their product overflows uint64 — WideKeys then keys the tuples.
func NewRadixKeys(bases []uint64) (RadixKeys, bool) {
	places := make([]uint64, len(bases))
	place := uint64(1)
	for c := len(bases) - 1; c >= 0; c-- {
		places[c] = place
		if place > math.MaxUint64/bases[c] {
			return RadixKeys{}, false
		}
		place *= bases[c]
	}
	return RadixKeys{bases: bases, places: places}, true
}

// Key packs tuple.
func (r RadixKeys) Key(tuple []uint32) uint64 {
	var key uint64
	for c, v := range tuple {
		key += uint64(v) * r.places[c]
	}
	return key
}

// Decode unpacks key into tuple.
func (r RadixKeys) Decode(key uint64, tuple []uint32) {
	for c := range tuple {
		tuple[c] = uint32((key / r.places[c]) % r.bases[c])
	}
}

// WideKeys packs a tuple of codes as four little-endian bytes per code,
// for any bases.
type WideKeys struct{}

// Append appends tuple's key to buf.
func (WideKeys) Append(buf []byte, tuple []uint32) []byte {
	for _, v := range tuple {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	return buf
}

// Key packs tuple.
func (k WideKeys) Key(tuple []uint32) string {
	return string(k.Append(make([]byte, 0, 4*len(tuple)), tuple))
}

// Decode unpacks key into tuple.
func (WideKeys) Decode(key string, tuple []uint32) {
	for c := range tuple {
		b := key[4*c : 4*c+4]
		tuple[c] = uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
}

// TupleCodec packs a tuple of per-column codes into a map key and
// unpacks it again: RadixKeys or WideKeys.
type TupleCodec[K comparable] interface {
	Key(tuple []uint32) K
	Decode(key K, tuple []uint32)
}

// wideInterned is WideKeys returning one shared string per distinct
// tuple: the key is packed into a reused buffer and looked up, so only
// a tuple's first sight allocates.
type wideInterned struct {
	WideKeys
	buf  []byte
	seen map[string]string
}

func (w *wideInterned) Key(tuple []uint32) string {
	w.buf = w.Append(w.buf[:0], tuple)
	if key, ok := w.seen[string(w.buf)]; ok {
		return key
	}
	key := string(w.buf)
	w.seen[key] = key
	return key
}

// countTuples is CountBins over one key type: count the rows per code
// tuple, then spell each tuple's key once into dst.
func countTuples[C ~uint32 | ~int32, K comparable, T TupleCodec[K]](dst map[string]int, spell [][]string, codes [][]C, rows int, weights []int, keys T) {
	tuple := make([]uint32, len(codes))
	counts := make(map[K]int)
	for row := 0; row < rows; row++ {
		for c, col := range codes {
			tuple[c] = uint32(col[row])
		}
		w := 1
		if weights != nil {
			w = weights[row]
		}
		counts[keys.Key(tuple)] += w
	}
	var key []byte
	for k, n := range counts {
		keys.Decode(k, tuple)
		key = appendBinKey(key[:0], func(c int) string { return spell[c][tuple[c]] }, len(tuple))
		dst[string(key)] += n
	}
}

// MinBinSize returns the smallest bin size of the table over cols.
// An empty table has min bin size 0.
func MinBinSize(tbl *relation.Table, cols []string) (int, error) {
	bins, err := Bins(tbl, cols)
	if err != nil {
		return 0, err
	}
	if len(bins) == 0 {
		return 0, nil
	}
	min := -1
	for _, n := range bins {
		if min < 0 || n < min {
			min = n
		}
	}
	return min, nil
}

// SatisfiesK reports whether every bin over cols holds at least k tuples
// — the paper's k-anonymity specification.
func SatisfiesK(tbl *relation.Table, cols []string, k int) (bool, error) {
	if tbl.NumRows() == 0 {
		return k <= 0, nil
	}
	min, err := MinBinSize(tbl, cols)
	if err != nil {
		return false, err
	}
	return min >= k, nil
}

// Stats summarizes the effect of a transformation on a bin map — one
// column of Figure 14.
type Stats struct {
	// Total is the number of distinct bins before the transformation.
	Total int
	// Changed is the number of original bins whose size changed.
	Changed int
	// BelowK is the number of bins (before or after) whose size dropped
	// below k after the transformation.
	BelowK int
	// NewBins counts value-combinations present only after the
	// transformation (created, e.g., by boundary permutation).
	NewBins int
}

// Compare computes the Figure 14 statistics between the bin maps of a
// table before and after watermarking, against the anonymity parameter k.
// Bins present before count toward Total; a before-bin missing after has
// size 0 (changed, and below k if k > 0).
func Compare(before, after map[string]int, k int) Stats {
	s := Stats{Total: len(before)}
	for key, nb := range before {
		na := after[key]
		if na != nb {
			s.Changed++
		}
		if na < k {
			s.BelowK++
		}
	}
	for key := range after {
		if _, ok := before[key]; !ok {
			s.NewBins++
			if after[key] < k {
				s.BelowK++
			}
		}
	}
	return s
}

// String renders the stats like a Figure 14 cell: "total changed belowK".
func (s Stats) String() string {
	return fmt.Sprintf("%d %d %d", s.Total, s.Changed, s.BelowK)
}

// BinFlow records, for one bin, how watermarking moved tuples — the
// empirical counterpart of Lemmas 1 and 2 (Section 6): the per-embedding
// probability of a bin losing a tuple (Pr−) should equal that of gaining
// one (Pr+), so on average watermarking neither shrinks nor grows bins.
type BinFlow struct {
	// Before and After are the bin sizes before/after watermarking.
	Before, After int
	// Out counts tuples that left this bin; In counts tuples that entered.
	Out, In int
}

// Flow compares per-row bin keys before and after watermarking over the
// same (row-aligned) tables, returning per-bin flow statistics keyed by
// the bin's value combination. Both tables must have equal row counts;
// the watermarking agent permutes values in place, so rows stay aligned.
func Flow(before, after *relation.Table, cols []string) (map[string]*BinFlow, error) {
	if before.NumRows() != after.NumRows() {
		return nil, fmt.Errorf("anonymity: row count mismatch %d vs %d", before.NumRows(), after.NumRows())
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		ci, err := before.Schema().Index(c)
		if err != nil {
			return nil, err
		}
		if _, err := after.Schema().Index(c); err != nil {
			return nil, err
		}
		idx[i] = ci
	}
	flows := make(map[string]*BinFlow)
	get := func(key string) *BinFlow {
		f := flows[key]
		if f == nil {
			f = &BinFlow{}
			flows[key] = f
		}
		return f
	}
	binKeyAt := func(t *relation.Table, i int) string {
		v := t.View(i)
		return string(appendBinKey(nil, func(c int) string { return v.Cell(idx[c]) }, len(idx)))
	}
	for i := 0; i < before.NumRows(); i++ {
		kb := binKeyAt(before, i)
		ka := binKeyAt(after, i)
		get(kb).Before++
		get(ka).After++
		if kb != ka {
			get(kb).Out++
			get(ka).In++
		}
	}
	return flows, nil
}
