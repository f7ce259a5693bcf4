package relation

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func segSchema() *Schema {
	return MustSchema(
		Column{Name: "ssn", Kind: Identifying},
		Column{Name: "age", Kind: QuasiNumeric},
		Column{Name: "doctor", Kind: QuasiCategorical},
		Column{Name: "note", Kind: Other},
	)
}

// collectSegments drains a segment reader into a fresh table, returning
// the reassembled table and the segment row counts.
func collectSegments(t *testing.T, sr *SegmentReader) (*Table, []int) {
	t.Helper()
	out := NewTable(sr.schema)
	var sizes []int
	for {
		seg, err := sr.Next()
		if err == io.EOF {
			return out, sizes
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		sizes = append(sizes, seg.NumRows())
		if err := out.AppendTable(seg); err != nil {
			t.Fatalf("AppendTable: %v", err)
		}
	}
}

func tablesEqual(t *testing.T, got, want *Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		for ci := 0; ci < want.Schema().NumColumns(); ci++ {
			if g, w := got.CellAt(i, ci), want.CellAt(i, ci); g != w {
				t.Fatalf("row %d col %d: %q, want %q", i, ci, g, w)
			}
		}
	}
}

func TestSegmentReaderMatchesReadCSV(t *testing.T) {
	const input = "doctor,ssn,note,age\n" + // permuted header
		"Nurse,s1,a,34\n" +
		"\"Sur,geon\",s2,\"multi\nline\",67\n" +
		"Nurse,s3,\"qu\"\"ote\",34\n" +
		"Clerk,s4,后藤さん,9\n" +
		"Nurse,s5,,34\n"
	want, err := ReadCSV(strings.NewReader(input), segSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 2, 3, 5, 100, 0} {
		sr, err := NewSegmentReader(strings.NewReader(input), segSchema(), chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		got, sizes := collectSegments(t, sr)
		tablesEqual(t, got, want)
		if sr.Rows() != want.NumRows() {
			t.Fatalf("chunk %d: Rows() = %d, want %d", chunk, sr.Rows(), want.NumRows())
		}
		for _, n := range sizes {
			limit := chunk
			if limit <= 0 {
				limit = DefaultChunk
			}
			if n > limit {
				t.Fatalf("chunk %d: segment of %d rows", chunk, n)
			}
		}
	}
}

// TestSegmentReaderSharedDicts pins the cross-segment dictionary
// contract: a value seen in two segments carries the same code in both,
// and a consumer interning into one segment cannot disturb the shared
// backing other segments read.
func TestSegmentReaderSharedDicts(t *testing.T) {
	const input = "ssn,age,doctor,note\n" +
		"s1,34,Nurse,a\n" +
		"s2,67,Surgeon,b\n" +
		"s3,34,Nurse,c\n" +
		"s4,9,Clerk,d\n"
	sr, err := NewSegmentReader(strings.NewReader(input), segSchema(), 2)
	if err != nil {
		t.Fatal(err)
	}
	seg1, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	ageIdx, _ := segSchema().Index("age")
	code34 := seg1.CodeAt(0, ageIdx)

	// Interning a new value into seg1 must copy, not grow the shared dict.
	seg1.SetCellAt(1, ageIdx, "999")

	seg2, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := seg2.CodeAt(0, ageIdx); got != code34 {
		t.Fatalf("age code for repeated value = %d in segment 2, want %d", got, code34)
	}
	for _, v := range seg2.DictValues(ageIdx) {
		if v == "999" {
			t.Fatal("consumer-interned value leaked into the shared dictionary")
		}
	}
	// seg1 still reads correctly after the reader interned more values.
	if got := seg1.CellAt(0, ageIdx); got != "34" {
		t.Fatalf("segment 1 cell = %q after later ingest, want \"34\"", got)
	}
	if got := seg1.CellAt(1, ageIdx); got != "999" {
		t.Fatalf("segment 1 interned cell = %q, want \"999\"", got)
	}
}

// uniqueCSV renders rows rows over segSchema: a unique ssn per row and
// an age cycling through ages, so that ages[1] is first seen at code 1.
func uniqueCSV(rows int, ages []string) string {
	var b strings.Builder
	b.WriteString("ssn,age,doctor,note\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "s%d,%s,Nurse,n\n", i, ages[i%len(ages)])
	}
	return b.String()
}

// TestSegmentReaderNearUniqueDicts pins the per-segment dictionary of a
// near-unique column: once the reader has seen the ssn column is
// unique, every segment's ssn dictionary holds exactly the segment's
// own values, and the reader reuses one intern map of at most chunk
// entries instead of growing one with the stream.
func TestSegmentReaderNearUniqueDicts(t *testing.T) {
	const chunk, segments = 4096, 41
	ages := []string{"34", "67", "9"}
	sr, err := NewSegmentReader(strings.NewReader(uniqueCSV(chunk*segments-5, ages)), segSchema(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	ssnIdx, _ := segSchema().Index("ssn")
	ageIdx, _ := segSchema().Index("age")
	var maps []uintptr
	for k := 0; ; k++ {
		seg, err := sr.Next()
		if err == io.EOF {
			if k != segments {
				t.Fatalf("%d segments, want %d", k, segments)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		dict := seg.DictValues(ssnIdx)
		if len(dict) != seg.NumRows() || len(dict) > chunk {
			t.Fatalf("segment %d: ssn dictionary has %d entries for %d rows", k, len(dict), seg.NumRows())
		}
		for i := 0; i < seg.NumRows(); i++ {
			if want := fmt.Sprintf("s%d", k*chunk+i); seg.CellAt(i, ssnIdx) != want || dict[seg.CodeAt(i, ssnIdx)] != want {
				t.Fatalf("segment %d row %d: ssn %q, want %q", k, i, seg.CellAt(i, ssnIdx), want)
			}
		}
		if got := len(seg.DictValues(ageIdx)); got != len(ages) {
			t.Fatalf("segment %d: age dictionary has %d entries, want the shared %d", k, got, len(ages))
		}
		if n := len(sr.cols[ssnIdx].index); n > chunk {
			t.Fatalf("segment %d: reader's ssn intern map holds %d entries", k, n)
		}
		if idx := sr.cols[ssnIdx].index; idx != nil {
			maps = append(maps, reflect.ValueOf(idx).Pointer())
		}
	}
	// The segment that finds the column unique drops the map sized by
	// the shared history; every later segment reuses one map.
	if len(maps) < segments-2 {
		t.Fatalf("reader kept an ssn intern map after %d of %d segments", len(maps), segments)
	}
	for _, m := range maps[1:] {
		if m != maps[0] {
			t.Fatal("reader grew a new ssn intern map instead of reusing its own")
		}
	}
}

// TestSegmentReaderLowCardinalityShared pins the other half of the
// rule: beside a unique column, a low-cardinality column keeps one
// dictionary, and every value one code, for the whole stream at every
// chunk size. The tracked value is first seen at code 1, so a reset
// dictionary could not hand it its old code by coincidence.
func TestSegmentReaderLowCardinalityShared(t *testing.T) {
	ages := []string{"34", "67"}
	for i := 0; i < 80; i++ {
		ages = append(ages, fmt.Sprint(i+100))
	}
	const rows = 3*4096 + 17
	input := uniqueCSV(rows, ages)
	ageIdx, _ := segSchema().Index("age")
	for _, chunk := range []int{1, 2, 7, 4096} {
		sr, err := NewSegmentReader(strings.NewReader(input), segSchema(), chunk)
		if err != nil {
			t.Fatal(err)
		}
		codes := map[string]uint32{}
		seen := 0
		for {
			seg, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < seg.NumRows(); i++ {
				v, code := seg.CellAt(i, ageIdx), seg.CodeAt(i, ageIdx)
				if want, ok := codes[v]; ok && code != want {
					t.Fatalf("chunk %d: age %q has code %d at row %d, %d before", chunk, v, code, seen+i, want)
				}
				codes[v] = code
			}
			seen += seg.NumRows()
		}
		if seen != rows {
			t.Fatalf("chunk %d: %d rows, want %d", chunk, seen, rows)
		}
		if codes["67"] != 1 {
			t.Fatalf("chunk %d: age 67 has code %d, want 1", chunk, codes["67"])
		}
		if sr.unique[ageIdx] {
			t.Fatalf("chunk %d: low-cardinality age column went per-segment", chunk)
		}
	}
}

// TestSegmentReaderReusedMapIsolated checks that a consumer interning
// into a segment of a per-segment column reaches neither the intern map
// the reader clears and reuses nor any other segment: each emitted
// segment keeps its own cells, edits included, after the whole stream
// has been read.
func TestSegmentReaderReusedMapIsolated(t *testing.T) {
	const chunk = 64
	sr, err := NewSegmentReader(strings.NewReader(uniqueCSV(40*chunk, []string{"34"})), segSchema(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	ssnIdx, _ := segSchema().Index("ssn")
	var segs []*Table
	var want [][]string
	for k := 0; ; k++ {
		seg, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]string, seg.NumRows())
		for i := range cells {
			cells[i] = fmt.Sprintf("s%d", k*chunk+i)
		}
		if sr.unique[ssnIdx] {
			// A fresh value, and the next segment's first value.
			cells[0], cells[1] = "consumer", fmt.Sprintf("s%d", (k+1)*chunk)
			seg.SetCellAt(0, ssnIdx, cells[0])
			seg.SetCellAt(1, ssnIdx, cells[1])
			if _, ok := sr.cols[ssnIdx].index["consumer"]; ok {
				t.Fatalf("segment %d: consumer value reached the reader's intern map", k)
			}
		}
		segs = append(segs, seg)
		want = append(want, cells)
	}
	if !sr.unique[ssnIdx] {
		t.Fatal("ssn column never went per-segment")
	}
	for k, seg := range segs {
		for i, w := range want[k] {
			if got := seg.CellAt(i, ssnIdx); got != w {
				t.Fatalf("segment %d row %d: ssn %q, want %q", k, i, got, w)
			}
		}
	}
}

func TestSegmentWriterMatchesWriteCSV(t *testing.T) {
	const input = "ssn,age,doctor,note\n" +
		"s1,34,Nurse,\"a\nb\"\n" +
		"s2,67,\"Sur,geon\",b\n" +
		"s3,34,Nurse,c\n" +
		"s4,9,Clerk,d\n" +
		"s5,67,Nurse,e\n"
	tbl, err := ReadCSV(strings.NewReader(input), segSchema())
	if err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	if err := tbl.WriteCSV(&whole); err != nil {
		t.Fatal(err)
	}
	for _, split := range [][]int{{5}, {1, 4}, {2, 2, 1}, {3, 0, 2}} {
		var streamed bytes.Buffer
		sw := NewSegmentWriter(&streamed, tbl.Schema())
		lo := 0
		for _, n := range split {
			seg, err := tbl.Slice(lo, lo+n)
			if err != nil {
				t.Fatal(err)
			}
			lo += n
			if err := sw.WriteSegment(seg); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), whole.Bytes()) {
			t.Fatalf("split %v: streamed CSV differs from WriteCSV", split)
		}
	}
}

func TestSegmentWriterEmptyStream(t *testing.T) {
	empty := NewTable(segSchema())
	var whole bytes.Buffer
	if err := empty.WriteCSV(&whole); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	sw := NewSegmentWriter(&streamed, segSchema())
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), whole.Bytes()) {
		t.Fatalf("empty stream = %q, want %q", streamed.String(), whole.String())
	}
}

func TestSegmentReaderErrors(t *testing.T) {
	if _, err := NewSegmentReader(strings.NewReader("ssn,ssn,doctor,note\n"), segSchema(), 2); err == nil {
		t.Fatal("duplicate header column accepted")
	}
	if _, err := NewSegmentReader(strings.NewReader("ssn,age,doctor,bogus\n"), segSchema(), 2); err == nil {
		t.Fatal("unknown header column accepted")
	}
	if _, err := NewSegmentReader(strings.NewReader(""), segSchema(), 2); err == nil {
		t.Fatal("empty input accepted")
	}

	// A ragged record mid-stream fails with ReadCSV's line numbering and
	// the failure is sticky.
	const bad = "ssn,age,doctor,note\ns1,34,Nurse,a\nonly,two\n"
	sr, err := NewSegmentReader(strings.NewReader(bad), segSchema(), 10)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sr.Next()
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("ragged record error = %v, want line 3", err)
	}
	if _, err2 := sr.Next(); !errors.Is(err2, err) && err2 == nil {
		t.Fatal("error is not sticky")
	}
}

// FuzzSegmentIngest asserts the streaming contract on arbitrary
// documents: whenever ReadCSV accepts an input, segmented ingest at any
// chunk size must accept it too and reassemble to the identical table —
// records split across segment boundaries (quoted newlines, multi-byte
// runes, trailing partial rows) included.
func FuzzSegmentIngest(f *testing.F) {
	f.Add("ssn,age,doctor,note\ns1,34,Nurse,a\ns2,67,Surgeon,b\ns3,9,Clerk,c\n", 2)
	f.Add("doctor,ssn,note,age\nNurse,s1,a,34\n", 1)
	f.Add("ssn,age,doctor,note\n\"s,1\",\"3\n4\",\"Nu\"\"rse\",\"\"\n\"s\n2\",5,N,x\n", 1)
	f.Add("ssn,age,doctor,note\nс1,34,Ärztin,後藤\nс2,34,Ärztin,後藤\n", 1)
	f.Add("ssn,age,doctor,note\r\ns1,34,Nurse,a\r\ns2,5,N,b", 3)
	f.Add("ssn,age,doctor,note\ns1,,,\n,,,\n", 7)
	f.Add("", 4)
	// High cardinality over many small segments: the unique first
	// column goes per-segment midway, the others stay shared.
	f.Add(uniqueCSV(1500, []string{"34", "67", "9"}), 3)
	f.Fuzz(func(t *testing.T, input string, chunk int) {
		if chunk < 0 {
			chunk = -chunk
		}
		chunk %= 6 // exercise tiny segments and the <=0 default path
		schema := segSchema()
		want, wantErr := ReadCSV(strings.NewReader(input), schema)

		sr, err := NewSegmentReader(strings.NewReader(input), schema, chunk)
		if err != nil {
			if wantErr == nil {
				t.Fatalf("segment reader rejected input ReadCSV accepts: %v", err)
			}
			return
		}
		got := NewTable(schema)
		var segErr error
		for {
			seg, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				segErr = err
				break
			}
			if err := got.AppendTable(seg); err != nil {
				t.Fatal(err)
			}
		}
		if wantErr != nil {
			if segErr == nil {
				t.Fatalf("segmented ingest accepted input ReadCSV rejects: %v", wantErr)
			}
			return
		}
		if segErr != nil {
			t.Fatalf("segmented ingest failed on accepted input: %v", segErr)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
		}
		for i := 0; i < want.NumRows(); i++ {
			for ci := 0; ci < schema.NumColumns(); ci++ {
				if g, w := got.CellAt(i, ci), want.CellAt(i, ci); g != w {
					t.Fatalf("row %d col %d: %q, want %q", i, ci, g, w)
				}
			}
		}
	})
}
