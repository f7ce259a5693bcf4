package relation

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// identTable is a table whose ssn column holds n distinct values, with
// every value on two rows.
func identTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := NewTable(segSchema())
	for i := 0; i < 2*n; i++ {
		if err := tbl.AppendRow([]string{fmt.Sprintf("s%d", i%n), "34", "Nurse", "n"}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestMapColumnCtxAllocs bounds the allocations of rebuilding a
// 4096-entry dictionary: the new dictionary and its index are made
// once at their final size, and fn's results are stored without a
// copy. Measured on Go 1.24: 23 allocs presized, 53 when the index map
// grows entry by entry, over 4000 when every entry is cloned.
func TestMapColumnCtxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 4096
	tbl := identTable(t, n)
	ci, _ := tbl.Schema().Index("ssn")
	ctx := context.Background()
	identity := func(v string) (string, error) { return v, nil }
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tbl.MapColumnCtx(ctx, 1, ci, identity); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("rebuilding a %d-entry dictionary: %v allocs, want <= 32", n, allocs)
	}
	if tbl.DictLen(ci) != n {
		t.Fatalf("DictLen = %d, want %d", tbl.DictLen(ci), n)
	}
}

// TestMapColumnCtxFirstUseOrder: the rebuilt dictionary lists the
// mapped values in the order the rows first use them, merged outputs
// once, for every worker count.
func TestMapColumnCtxFirstUseOrder(t *testing.T) {
	tbl := identTable(t, 500)
	ci, _ := tbl.Schema().Index("ssn")
	// Map s<i> to m<i mod 7>: 500 entries merge into 7, and the first
	// seven rows use them in the order m0..m6.
	fn := func(v string) (string, error) {
		var i int
		if _, err := fmt.Sscanf(v, "s%d", &i); err != nil {
			return "", err
		}
		return fmt.Sprintf("m%d", i%7), nil
	}
	want := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6"}
	var codes []uint32
	for _, workers := range []int{1, 2, 8} {
		mapped := tbl.Clone()
		changed, err := mapped.MapColumnCtx(context.Background(), workers, ci, fn)
		if err != nil {
			t.Fatal(err)
		}
		if changed != tbl.NumRows() {
			t.Fatalf("workers %d: %d rows changed, want %d", workers, changed, tbl.NumRows())
		}
		if got := mapped.DictValues(ci); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: dictionary %v, want %v", workers, got, want)
		}
		for i := 0; i < mapped.NumRows(); i++ {
			if got, w := mapped.CellAt(i, ci), fmt.Sprintf("m%d", (i%500)%7); got != w {
				t.Fatalf("workers %d: row %d = %q, want %q", workers, i, got, w)
			}
		}
		if codes == nil {
			codes = append([]uint32(nil), mapped.Codes(ci)...)
		} else if !reflect.DeepEqual(mapped.Codes(ci), codes) {
			t.Fatalf("workers %d: codes differ from workers 1", workers)
		}
	}
}

// TestMapColumnCtxIsolated: a mapped table owns its rebuilt dictionary.
// Writing cells of it — a new value, and a value fn returned as its
// input — reaches neither the segment it was cloned from nor the
// dictionary the segment reader shares across segments.
func TestMapColumnCtxIsolated(t *testing.T) {
	var csv strings.Builder
	csv.WriteString("ssn,age,doctor,note\n")
	doctors := []string{"Nurse", "Surgeon", "Clerk"}
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&csv, "s%d,34,%s,n\n", i, doctors[i%3])
	}
	sr, err := NewSegmentReader(strings.NewReader(csv.String()), segSchema(), 100)
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := segSchema().Index("doctor")
	seg, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	readerDict := append([]string(nil), sr.cols[ci].dict...)

	mapped := seg.Clone()
	if _, err := mapped.MapColumnCtx(context.Background(), 2, ci, func(v string) (string, error) {
		if v == "Nurse" {
			return v, nil
		}
		return "staff " + v, nil
	}); err != nil {
		t.Fatal(err)
	}
	mapped.SetCellAt(0, ci, "Intruder")
	mapped.SetCellAt(1, ci, "Nurse")
	mapped.SetCellAt(2, ci, "staff Clerk")
	for i, want := range []string{"Intruder", "Nurse", "staff Clerk", "Nurse", "staff Surgeon"} {
		if got := mapped.CellAt(i, ci); got != want {
			t.Fatalf("mapped row %d = %q, want %q", i, got, want)
		}
	}

	for i := 0; i < seg.NumRows(); i++ {
		if got, want := seg.CellAt(i, ci), doctors[i%3]; got != want {
			t.Fatalf("input segment row %d = %q, want %q", i, got, want)
		}
	}
	if got := sr.cols[ci].dict; !reflect.DeepEqual(got, readerDict) {
		t.Fatalf("reader dictionary %v, want %v", got, readerDict)
	}
	for _, v := range []string{"Intruder", "staff Clerk", "staff Surgeon"} {
		if _, ok := sr.cols[ci].index[v]; ok {
			t.Fatalf("%q reached the reader's intern map", v)
		}
	}
	for k := 1; ; k++ {
		next, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < next.NumRows(); i++ {
			if got, want := next.CellAt(i, ci), doctors[(k*100+i)%3]; got != want {
				t.Fatalf("segment %d row %d = %q, want %q", k, i, got, want)
			}
		}
	}
}
