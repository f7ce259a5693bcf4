package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
)

// SegmentReader streams a CSV input as a sequence of bounded *Table
// segments instead of materializing one giant table. Segments share
// the reader's per-column dictionaries: a value seen in segment 1 keeps
// the same dictionary code in segment 400, so per-distinct-value work
// (encryption, generalization, embed preludes) amortizes across the
// whole stream while the resident row set stays bounded by the chunk
// size.
//
// A near-unique column (an identifying column, say) never repays that
// sharing: its dictionary would grow with the stream, not the chunk,
// and every consumer doing per-distinct-value work over a segment's
// dictionary would pay for the whole stream's history. Once a column is
// seen to be near-unique, every later segment gets a fresh dictionary
// of that column holding only its own values, and the reader clears and
// reuses the column's intern map, so the reader's state for the column
// stays bounded by the chunk size. Low-cardinality columns keep one
// shared dictionary for the whole stream, at every chunk size.
//
// Each segment is a self-contained Table over the reader's schema. Its
// dictionaries are capacity-capped views of the reader's: reads are
// plain lookups, and a consumer that interns new values (SetCellAt,
// MapColumn) re-allocates privately without clobbering the reader's
// backing — earlier segments and the reader itself stay valid. Quoted
// fields, embedded newlines and multi-byte runes are handled by the
// record-level CSV decoding, so a logical record never straddles two
// segments regardless of where its bytes fall.
type SegmentReader struct {
	schema  *Schema
	cr      *csv.Reader
	perm    []int // perm[csvCol] = schemaCol
	cols    []column
	unique  []bool // unique[col]: near-unique, one dictionary per segment
	chunk   int
	dictCap int
	lineNo  int
	rows    int
	done    bool
	err     error
}

// A shared dictionary is near-unique once it holds more than dictCap
// entries, or more than minUniqueDict entries and over one for every
// two rows read. dictCap is max(4·chunk, minDictCap). The floors keep
// low-cardinality columns shared under tiny chunk sizes, where the
// first rows of the stream are mostly new values of every column.
const (
	minDictCap    = 16384
	minUniqueDict = 1024
)

// NewSegmentReader prepares streaming ingest of r against schema,
// yielding at most chunk rows per segment (DefaultChunk when
// chunk <= 0). The CSV header is read and validated eagerly with the
// exact rules of ReadCSV: it must contain the schema's column names,
// each exactly once, in any order.
func NewSegmentReader(r io.Reader, schema *Schema, chunk int) (*SegmentReader, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading header: %w", err)
	}
	perm, err := headerPerm(header, schema)
	if err != nil {
		return nil, err
	}
	return &SegmentReader{
		schema:  schema,
		cr:      cr,
		perm:    perm,
		cols:    make([]column, schema.NumColumns()),
		unique:  make([]bool, schema.NumColumns()),
		chunk:   chunk,
		dictCap: max(4*chunk, minDictCap),
		lineNo:  2,
	}, nil
}

// headerPerm maps CSV column positions to schema positions, enforcing
// ReadCSV's header contract (exact column set, no duplicates).
func headerPerm(header []string, schema *Schema) ([]int, error) {
	if len(header) != schema.NumColumns() {
		return nil, fmt.Errorf("relation: header has %d columns, schema has %d", len(header), schema.NumColumns())
	}
	perm := make([]int, len(header))
	seen := make(map[string]bool)
	for i, name := range header {
		si, err := schema.Index(name)
		if err != nil {
			return nil, fmt.Errorf("relation: unexpected CSV column %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("relation: duplicate CSV column %q", name)
		}
		seen[name] = true
		perm[i] = si
	}
	return perm, nil
}

// Next returns the next segment of at most the configured chunk rows,
// or (nil, io.EOF) once the input is exhausted. A malformed record
// fails with the same "relation: line N" error ReadCSV reports, and
// the failure is sticky.
func (sr *SegmentReader) Next() (*Table, error) {
	if sr.err != nil {
		return nil, sr.err
	}
	if sr.done {
		return nil, io.EOF
	}
	codes := make([][]uint32, len(sr.cols))
	for ci := range codes {
		codes[ci] = make([]uint32, 0, sr.chunk)
	}
	n := 0
	for ; n < sr.chunk; n++ {
		rec, err := sr.cr.Read()
		if err == io.EOF {
			sr.done = true
			break
		}
		if err != nil {
			sr.err = fmt.Errorf("relation: line %d: %w", sr.lineNo, err)
			return nil, sr.err
		}
		sr.lineNo++
		for i, v := range rec {
			ci := sr.perm[i]
			codes[ci] = append(codes[ci], sr.cols[ci].intern(v))
		}
	}
	if n == 0 {
		return nil, io.EOF
	}
	sr.rows += n
	seg := &Table{schema: sr.schema, cols: make([]column, len(sr.cols))}
	for ci := range sr.cols {
		c := &sr.cols[ci]
		// Three-index slice: the segment reads the reader's dictionary
		// in place, but any append (a consumer interning a new value)
		// falls off the capped capacity and copies, leaving the reader's
		// backing untouched. The inverse index stays nil and is rebuilt
		// lazily and privately if the consumer ever needs it.
		seg.cols[ci].dict = c.dict[:len(c.dict):len(c.dict)]
		seg.cols[ci].codes = codes[ci]

		// A near-unique column starts the next segment from a dictionary
		// of its own; the segment just built keeps its view of the old
		// backing. Its intern map is emptied in place, so the buckets
		// serve the next segment — except on the segment that finds the
		// column near-unique, whose map was sized by the shared history
		// and is dropped for one the next segment grows to chunk size.
		if sr.unique[ci] {
			clear(c.index)
		} else if d := len(c.dict); d > sr.dictCap || (d > minUniqueDict && 2*d > sr.rows) {
			sr.unique[ci] = true
			c.index = nil
		} else {
			continue
		}
		c.dict = nil
		if !sr.done {
			c.dict = make([]string, 0, sr.chunk)
		}
	}
	return seg, nil
}

// Rows returns the number of data rows ingested so far.
func (sr *SegmentReader) Rows() int { return sr.rows }

// Schema returns the schema segments are yielded over.
func (sr *SegmentReader) Schema() *Schema { return sr.schema }

// TableSegments streams an in-memory table as bounded segments — the
// in-memory twin of SegmentReader for callers that already hold a Table
// but want the bounded-memory code path, and for tests comparing the
// two. Segments are compact re-encodings in row order: each carries
// only the dictionary entries its own rows use, so a segment's
// footprint is proportional to its row count even when the source
// table's dictionaries are huge (a million-row identifying column would
// otherwise ride along with every Slice-style segment).
type TableSegments struct {
	t     *Table
	chunk int
	lo    int
}

// Segments returns a streaming view of t yielding at most chunk rows
// per segment (DefaultChunk when chunk <= 0). The table must not be
// mutated while the view is drained.
func (t *Table) Segments(chunk int) *TableSegments {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	return &TableSegments{t: t, chunk: chunk}
}

// Schema returns the schema segments are yielded over.
func (ts *TableSegments) Schema() *Schema { return ts.t.schema }

// Next returns the next segment, or (nil, io.EOF) when the table is
// exhausted.
func (ts *TableSegments) Next() (*Table, error) {
	n := ts.t.NumRows()
	if ts.lo >= n {
		return nil, io.EOF
	}
	hi := min(ts.lo+ts.chunk, n)
	seg := compactSlice(ts.t, ts.lo, hi)
	ts.lo = hi
	return seg, nil
}

// compactSlice re-encodes rows [lo,hi) of t with segment-local
// dictionaries holding only the values those rows use. Value strings
// share backing with the source dictionaries; the lazily-built
// value→code index stays unmaterialized until a consumer interns.
func compactSlice(t *Table, lo, hi int) *Table {
	out := &Table{schema: t.schema, cols: make([]column, len(t.cols))}
	for ci := range t.cols {
		src := &t.cols[ci]
		dst := &out.cols[ci]
		remap := make(map[uint32]uint32, min(hi-lo, len(src.dict)))
		dst.codes = make([]uint32, hi-lo)
		for i, code := range src.codes[lo:hi] {
			nc, ok := remap[code]
			if !ok {
				nc = uint32(len(dst.dict))
				dst.dict = append(dst.dict, src.dict[code])
				remap[code] = nc
			}
			dst.codes[i] = nc
		}
	}
	return out
}

// SegmentWriter emits a sequence of table segments as one CSV stream:
// the header once, then each segment's rows in arrival order. The
// concatenated output is byte-identical to WriteCSV of the
// corresponding whole table.
type SegmentWriter struct {
	cw          *csv.Writer
	names       []string
	wroteHeader bool
	record      []string
}

// NewSegmentWriter prepares a segment CSV writer for tables over
// schema.
func NewSegmentWriter(w io.Writer, schema *Schema) *SegmentWriter {
	return &SegmentWriter{
		cw:     csv.NewWriter(w),
		names:  schema.Names(),
		record: make([]string, schema.NumColumns()),
	}
}

// writeHeader emits the header row exactly once.
func (sw *SegmentWriter) writeHeader() error {
	if sw.wroteHeader {
		return nil
	}
	sw.wroteHeader = true
	if err := sw.cw.Write(sw.names); err != nil {
		return fmt.Errorf("relation: writing header: %w", err)
	}
	return nil
}

// WriteSegment appends every row of t to the stream, flushing per
// bounded batch so the writer's buffer never holds more than
// DefaultChunk encoded rows.
func (sw *SegmentWriter) WriteSegment(t *Table) error {
	if len(t.cols) != len(sw.record) {
		return errors.New("relation: segment column count mismatch")
	}
	if err := sw.writeHeader(); err != nil {
		return err
	}
	return t.ForEachRowChunk(DefaultChunk, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			for ci := range t.cols {
				c := &t.cols[ci]
				sw.record[ci] = c.dict[c.codes[i]]
			}
			if err := sw.cw.Write(sw.record); err != nil {
				return fmt.Errorf("relation: writing row: %w", err)
			}
		}
		sw.cw.Flush()
		return sw.cw.Error()
	})
}

// Flush completes the stream: the header is emitted even if no segment
// was written (matching WriteCSV on an empty table) and buffered rows
// reach the underlying writer.
func (sw *SegmentWriter) Flush() error {
	if err := sw.writeHeader(); err != nil {
		return err
	}
	sw.cw.Flush()
	return sw.cw.Error()
}
