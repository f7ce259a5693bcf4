package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anonymity"
	"repro/internal/crypt"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// tableCSV renders a table exactly as the streaming writers do.
func tableCSV(t *testing.T, tbl *relation.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplyStreamMatchesApply pins the streaming guarantee: the streamed
// apply emits CSV byte-identical to the in-memory ApplyContext's table,
// for every chunk size and worker count, and returns the same effective
// plan. The overlapped read-ahead and write-behind must not reorder or
// drop a segment.
func TestApplyStreamMatchesApply(t *testing.T) {
	tbl := testData(t, 4000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	for _, workers := range []int{1, 2, 4, 8} {
		fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := fw.PlanContext(context.Background(), tbl, key)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fw.Apply(tbl, plan, key)
		if err != nil {
			t.Fatal(err)
		}
		want := tableCSV(t, p.Table)
		for _, chunk := range []int{1, 7, 512, 4000, 4096, 9000} {
			var got bytes.Buffer
			res, err := fw.ApplyStream(context.Background(), tbl.Segments(chunk), plan, key, &got)
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("workers=%d chunk=%d: streamed CSV differs from in-memory apply", workers, chunk)
			}
			if res.Rows != p.Table.NumRows() {
				t.Fatalf("rows = %d, want %d", res.Rows, p.Table.NumRows())
			}
			if res.Plan.Rows != p.Plan.Rows || res.Plan.BoundaryPermutation != p.Plan.BoundaryPermutation {
				t.Fatalf("effective plan diverged: rows %d/%d perm %v/%v",
					res.Plan.Rows, p.Plan.Rows, res.Plan.BoundaryPermutation, p.Plan.BoundaryPermutation)
			}
			if len(res.Plan.Bins) != len(p.Plan.Bins) {
				t.Fatalf("bin record: %d bins streamed, %d in-memory", len(res.Plan.Bins), len(p.Plan.Bins))
			}
			for bin, n := range p.Plan.Bins {
				if res.Plan.Bins[bin] != n {
					t.Fatalf("bin %q: %d streamed, %d in-memory", bin, res.Plan.Bins[bin], n)
				}
			}
			if res.Embed != p.Embed {
				t.Fatalf("embed stats diverged: %+v vs %+v", res.Embed, p.Embed)
			}
			if res.BinStats != p.BinStats {
				t.Fatalf("bin stats diverged: %+v vs %+v", res.BinStats, p.BinStats)
			}
		}
	}
}

// TestApplyStreamFromCSV drives the full streaming data plane: CSV in
// (SegmentReader), CSV out, no materialized table — and the output
// still matches the in-memory path at every chunk size.
func TestApplyStreamFromCSV(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 4500)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fw.Apply(tbl, plan, key)
	if err != nil {
		t.Fatal(err)
	}
	want := tableCSV(t, p.Table)
	for src, segments := range sources(t, tbl) {
		var got bytes.Buffer
		if _, err := fw.ApplyStream(context.Background(), segments(), plan, key, &got); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: CSV-to-CSV stream differs from in-memory apply", src)
		}
	}
}

// TestAppendStreamMatchesAppend pins the append twin: same emitted CSV,
// same advanced plan, same thin-bin verdict as AppendContext.
func TestAppendStreamMatchesAppend(t *testing.T) {
	all := testData(t, 5000)
	base, err := all.Slice(0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := all.Slice(4000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	for _, workers := range []int{1, 2, 4, 8} {
		fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		prot, err := fw.Protect(base, key)
		if err != nil {
			t.Fatal(err)
		}
		app, err := fw.Append(delta, &prot.Plan, key)
		if err != nil {
			t.Fatal(err)
		}
		want := tableCSV(t, app.Table)
		for _, chunk := range []int{1, 7, 64, 333, 1000, 4096} {
			var got bytes.Buffer
			res, err := fw.AppendStream(context.Background(), delta.Segments(chunk), &prot.Plan, key, &got)
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("workers=%d chunk=%d: streamed CSV differs from in-memory append", workers, chunk)
			}
			if res.NewBins != app.NewBins || res.Plan.Rows != app.Plan.Rows {
				t.Fatalf("verdicts diverged: newBins %d/%d rows %d/%d",
					res.NewBins, app.NewBins, res.Plan.Rows, app.Plan.Rows)
			}
			if len(res.Plan.Bins) != len(app.Plan.Bins) {
				t.Fatalf("advanced bin record: %d bins streamed, %d in-memory", len(res.Plan.Bins), len(app.Plan.Bins))
			}
			for bin, n := range app.Plan.Bins {
				if res.Plan.Bins[bin] != n {
					t.Fatalf("bin %q: %d streamed, %d in-memory", bin, res.Plan.Bins[bin], n)
				}
			}
		}
	}
}

// TestAppendStreamPlanDrift checks the deferred end-of-stream verdict:
// a batch that would publish a thin new bin fails with ErrPlanDrift and
// the exact verdict text AppendContext issues — even when the thin
// bin's rows were spread across segments.
func TestAppendStreamPlanDrift(t *testing.T) {
	fw, prot, delta, key := appendFixture(t, 4000, 25)
	plan := prot.Plan
	app, err := fw.Append(delta, &plan, key)
	if err != nil {
		t.Fatal(err)
	}
	// Drop one thin delta bin from the published record, so the batch
	// appears to open a fresh, under-populated value combination.
	deltaBins, err := anonymity.Bins(app.Table, delta.Schema().QuasiColumns())
	if err != nil {
		t.Fatal(err)
	}
	thinBin := ""
	for _, bin := range sortedKeys(deltaBins) {
		if deltaBins[bin] < plan.K {
			thinBin = bin
			break
		}
	}
	if thinBin == "" {
		t.Fatal("every delta bin holds >= k rows; enlarge the delta to find a thin one")
	}
	doctored := plan
	doctored.Bins = make(map[string]int, len(plan.Bins))
	for bin, n := range plan.Bins {
		if bin != thinBin {
			doctored.Bins[bin] = n
		}
	}
	_, wantErr := fw.Append(delta, &doctored, key)
	if !errors.Is(wantErr, ErrPlanDrift) {
		t.Fatalf("in-memory append: %v, want ErrPlanDrift", wantErr)
	}
	var got bytes.Buffer
	_, err = fw.AppendStream(context.Background(), delta.Segments(97), &doctored, key, &got)
	if !errors.Is(err, ErrPlanDrift) {
		t.Fatalf("streamed append: %v, want ErrPlanDrift", err)
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("verdict text diverged:\n  stream: %v\n  memory: %v", err, wantErr)
	}
}

// TestApplyStreamValidation covers the cheap up-front failures.
func TestApplyStreamValidation(t *testing.T) {
	fw := testFramework(t)
	tbl := testData(t, 100)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	if _, err := fw.ApplyStream(context.Background(), tbl.Segments(0), nil, key, io.Discard); !errors.Is(err, ErrBadProvenance) {
		t.Fatalf("nil plan: %v", err)
	}
	if _, err := fw.ApplyStream(context.Background(), nil, nil, key, io.Discard); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil source: %v", err)
	}
	plan, err := fw.PlanContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.ApplyStream(context.Background(), tbl.Segments(0), plan, crypt.WatermarkKey{}, io.Discard); !errors.Is(err, ErrBadKey) {
		t.Fatalf("empty key: %v", err)
	}
	if _, err := fw.AppendStream(context.Background(), tbl.Segments(0), plan, key, io.Discard); !errors.Is(err, ErrBadProvenance) {
		t.Fatalf("append under unapplied plan: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fw.ApplyStream(ctx, tbl.Segments(0), plan, key, io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: %v", err)
	}
}

// TestConfigChunkValidation pins the streaming segment-size knob:
// 0 defaults, explicit values pass through, below-1 is ErrBadConfig.
func TestConfigChunkValidation(t *testing.T) {
	fw, err := New(ontology.Trees(), Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.Config().Chunk; got != relation.DefaultChunk {
		t.Errorf("defaulted Chunk = %d, want %d", got, relation.DefaultChunk)
	}
	fw, err = New(ontology.Trees(), Config{K: 5, Chunk: 123})
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.Config().Chunk; got != 123 {
		t.Errorf("Chunk = %d, want 123", got)
	}
	_, err = New(ontology.Trees(), Config{K: 5, Chunk: -1})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("Chunk=-1: err = %v, want ErrBadConfig", err)
	}
	if err != nil && !strings.Contains(err.Error(), "Chunk") {
		t.Errorf("error does not name Chunk: %v", err)
	}
}

var (
	errSource = errors.New("test: source failed")
	errWrite  = errors.New("test: writer failed")
)

// probeSegments wraps a segment source for the failure-path tests: it
// fails Next at call failAt, runs onCall before each call, and counts
// calls still running or started after the consumer returned.
type probeSegments struct {
	src      Segments
	failAt   int
	onCall   func(n int)
	calls    atomic.Int32
	inflight atomic.Int32
	returned atomic.Bool
	late     atomic.Int32
}

func (p *probeSegments) Schema() *relation.Schema { return p.src.Schema() }

func (p *probeSegments) Next() (*relation.Table, error) {
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	if p.returned.Load() {
		p.late.Add(1)
	}
	n := int(p.calls.Add(1))
	if p.onCall != nil {
		p.onCall(n)
	}
	// Widen the window in which a leaked read-ahead would still run.
	time.Sleep(time.Millisecond)
	if n == p.failAt {
		return nil, errSource
	}
	return p.src.Next()
}

// failWriter fails its failAt-th Write and every one after it.
type failWriter struct {
	failAt, calls int
}

func (w *failWriter) Write(b []byte) (int, error) {
	w.calls++
	if w.calls >= w.failAt {
		return 0, errWrite
	}
	return len(b), nil
}

// TestStreamFailurePaths drives ApplyStream and AppendStream into a
// failing source, a failing writer and a mid-stream cancellation. Each
// must surface its error class, make no src.Next call after returning,
// and leave no goroutine behind.
func TestStreamFailurePaths(t *testing.T) {
	fw, prot, delta, key := appendFixture(t, 4000, 2000)
	applyPlan, err := fw.PlanContext(context.Background(), delta, key)
	if err != nil {
		t.Fatal(err)
	}
	type streamFn func(ctx context.Context, src Segments, out io.Writer) error
	calls := map[string]streamFn{
		"apply": func(ctx context.Context, src Segments, out io.Writer) error {
			_, err := fw.ApplyStream(ctx, src, applyPlan, key, out)
			return err
		},
		"append": func(ctx context.Context, src Segments, out io.Writer) error {
			_, err := fw.AppendStream(ctx, src, &prot.Plan, key, out)
			return err
		},
	}
	for name, call := range calls {
		// Sanity: the unfailed probe completes.
		if err := call(context.Background(), &probeSegments{src: delta.Segments(100)}, io.Discard); err != nil {
			t.Fatalf("%s: clean run: %v", name, err)
		}
		cases := []struct {
			name string
			run  func(p *probeSegments) error
			want error
		}{
			{"source fails at segment 3", func(p *probeSegments) error {
				p.failAt = 3
				return call(context.Background(), p, io.Discard)
			}, errSource},
			{"writer fails on write 3", func(p *probeSegments) error {
				return call(context.Background(), p, &failWriter{failAt: 3})
			}, errWrite},
			{"ctx cancelled mid-stream", func(p *probeSegments) error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				p.onCall = func(n int) {
					if n == 4 {
						cancel()
					}
				}
				return call(ctx, p, io.Discard)
			}, context.Canceled},
		}
		for _, tc := range cases {
			goroutines := runtime.NumGoroutine()
			p := &probeSegments{src: delta.Segments(100)}
			err := tc.run(p)
			if inflight := p.inflight.Load(); inflight != 0 {
				t.Errorf("%s / %s: %d Next calls still running after return", name, tc.name, inflight)
			}
			p.returned.Store(true)
			if !errors.Is(err, tc.want) {
				t.Errorf("%s / %s: err = %v, want %v", name, tc.name, err, tc.want)
			}
			settleGoroutines(t, goroutines)
			if late := p.late.Load(); late != 0 {
				t.Errorf("%s / %s: %d Next calls after return", name, tc.name, late)
			}
		}
	}
}

// settleGoroutines waits for the goroutine count to fall back to want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
