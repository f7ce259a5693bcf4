package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/anonymity"
	"repro/internal/binning"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/ownership"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// Segments is the streaming-table source the streamed operations
// consume: a sequence of bounded *relation.Table segments over one
// schema, terminated by io.EOF. relation.SegmentReader (CSV ingest) and
// relation.TableSegments (an in-memory table) both satisfy it.
//
// Segments may share dictionary backing (as SegmentReader's do); the
// consumers never mutate a yielded segment in place. All five streamed
// operations — ApplyStream, AppendStream, PlanStream, DetectStream and
// TracebackStream — call Next from a goroutine of their own, one
// segment ahead of their work, one call at a time, and never after they
// return.
type Segments interface {
	Schema() *relation.Schema
	Next() (*relation.Table, error)
}

// Streamed is the outcome of a streaming run: the statistics and the
// advanced plan of the in-memory counterpart, minus the materialized
// table — the protected rows went to the output writer.
type Streamed struct {
	// Plan is the effective (ApplyStream) or advanced (AppendStream)
	// plan, exactly as ApplyContext/AppendContext would return it.
	Plan Plan
	// Embed accumulates the watermarking agent's statistics over every
	// segment.
	Embed watermark.EmbedStats
	// BinStats compares the combined bins before and after watermarking
	// (ApplyStream only).
	BinStats anonymity.Stats
	// Rows and Segments count the protected output.
	Rows, Segments int
	// NewBins counts published bins the streamed batch created
	// (AppendStream only).
	NewBins int
	// Suppressed counts rows removed by the plan's recorded
	// aggressive-rule suppression.
	Suppressed int
}

// addEmbed accumulates per-segment embedding counters.
func addEmbed(dst *watermark.EmbedStats, s watermark.EmbedStats) {
	dst.TuplesSelected += s.TuplesSelected
	dst.BitsEmbedded += s.BitsEmbedded
	dst.CellsChanged += s.CellsChanged
	dst.ZeroBandwidth += s.ZeroBandwidth
}

// ApplyStream executes a plan segment-at-a-time: each segment from src
// is suppressed (per the plan's record), transformed to the planned
// frontiers, watermarked, and written to out as CSV — so peak memory is
// bounded by the segment size, not the table size. The protected CSV is
// byte-identical to WriteCSV of ApplyContext's table on the same rows,
// for every segment size and worker count: the frozen plan makes the
// whole transform a pure per-row function.
//
// The verdicts ApplyContext issues on the full table are deferred to
// end-of-stream and checked on the combined bins: the planned k+ε
// floor, the no-bandwidth error, and the seamlessness guarantee. One
// difference is inherent to streaming: the §5.1 boundary-permutation
// fallback re-embeds the whole table, which a consumed stream cannot
// replay — ApplyStream reports ErrUnsatisfiable instead (re-plan with
// Config.BoundaryPermutation, or use the in-memory ApplyContext).
//
// src.Next runs on another goroutine, one segment ahead of the
// transform, and out is written from another goroutine: out must not
// be touched until the call returns. Neither runs after it returns.
// On any error the CSV already written to out is partial and must be
// discarded by the caller.
func (f *Framework) ApplyStream(ctx context.Context, src Segments, plan *Plan, key crypt.WatermarkKey, out io.Writer) (*Streamed, error) {
	job, err := f.newStreamJob(ctx, src, plan, key)
	if err != nil {
		return nil, err
	}
	res, params := job.res, job.params
	before := make(map[string]int)
	res.Rows, res.Segments, err = pipeSegments(ctx, src, out, func(seg *relation.Table) (*relation.Table, error) {
		work, err := job.suppress(seg)
		if err != nil {
			return nil, err
		}
		binned, err := job.transform(ctx, work)
		if err != nil {
			return nil, err
		}
		if err := anonymity.AddBins(before, binned, job.quasi); err != nil {
			return nil, err
		}
		if err := job.embed(ctx, binned); err != nil {
			return nil, err
		}
		return binned, nil
	})
	if err != nil {
		return nil, err
	}

	// End-of-stream verdicts, on the combined bins.
	if plan.EffectiveK > 0 && res.Rows > 0 {
		for _, n := range before {
			if n < plan.EffectiveK {
				return nil, fmt.Errorf("core: streamed output violates k=%d anonymity: %w", plan.EffectiveK, ErrUnsatisfiable)
			}
		}
	}
	if res.Embed.BitsEmbedded == 0 {
		switch {
		case res.Embed.TuplesSelected > 0 && !params.BoundaryPermutation:
			return nil, fmt.Errorf(
				"core: no watermark bandwidth under the planned frontiers, and the §5.1 boundary-permutation fallback cannot replay a consumed stream; re-plan with Config.BoundaryPermutation or use the in-memory apply: %w", ErrUnsatisfiable)
		case res.Embed.TuplesSelected > 0:
			return nil, fmt.Errorf(
				"core: no watermark bandwidth: every frontier sits at the usage metrics with no permutable siblings; relax the metrics or lower K: %w", ErrUnsatisfiable)
		case !params.BoundaryPermutation:
			// No tuple was selected at all: the in-memory path would
			// flip the fallback on with no observable table change;
			// mirror its effective plan.
			params.BoundaryPermutation = true
		}
	}
	res.BinStats = anonymity.Compare(before, job.after, plan.K)
	if res.BinStats.BelowK > 0 && !params.BoundaryPermutation {
		return nil, fmt.Errorf(
			"core: watermarking pushed %d bins below k=%d; increase Epsilon or enable AutoEpsilon: %w",
			res.BinStats.BelowK, plan.K, ErrUnsatisfiable)
	}

	eff := *plan
	eff.rt = nil
	eff.BoundaryPermutation = params.BoundaryPermutation
	eff.Bins = job.after
	eff.Rows = res.Rows
	res.Plan = eff
	return res, nil
}

// AppendStream protects a new batch of rows under an existing plan,
// segment-at-a-time — AppendContext with bounded memory: each segment
// is suppressed, transformed, watermarked and written to out as CSV,
// and the combined-bin k-safety verdict is issued at end-of-stream over
// the union of all segments, exactly as AppendContext issues it over
// the whole delta. The emitted CSV is byte-identical to WriteCSV of
// AppendContext's table on the same rows.
//
// src.Next runs on another goroutine, one segment ahead of the
// transform, and out is written from another goroutine: out must not
// be touched until the call returns. Neither runs after it returns.
// On any error — including the end-of-stream ErrPlanDrift verdict — the
// CSV already written to out is partial (or unsafe to publish) and must
// be discarded by the caller.
func (f *Framework) AppendStream(ctx context.Context, src Segments, plan *Plan, key crypt.WatermarkKey, out io.Writer) (*Streamed, error) {
	job, err := f.newStreamJob(ctx, src, plan, key)
	if err != nil {
		return nil, err
	}
	if len(plan.Bins) == 0 {
		return nil, fmt.Errorf(
			"core: plan carries no published bin record; apply it first (ApplyContext/ProtectContext) and retain the returned plan: %w", ErrBadProvenance)
	}
	res := job.res
	res.Rows, res.Segments, err = pipeSegments(ctx, src, out, func(seg *relation.Table) (*relation.Table, error) {
		work, err := job.suppress(seg)
		if err != nil {
			return nil, err
		}
		marked, err := job.transform(ctx, work)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			return nil, fmt.Errorf("core: delta outside planned frontiers: %w: %w", err, ErrPlanDrift)
		}
		if err := job.embed(ctx, marked); err != nil {
			return nil, err
		}
		return marked, nil
	})
	if err != nil {
		return nil, err
	}
	deltaBins := job.after

	// Combined-bin k-safety on the published union, exactly as
	// AppendContext verifies it: existing bins only grow; brand-new bins
	// must carry at least K streamed rows of their own.
	newBins := 0
	var thin []string
	for bin, n := range deltaBins {
		if plan.Bins[bin] > 0 {
			continue
		}
		newBins++
		if n < plan.K && !plan.BoundaryPermutation {
			thin = append(thin, fmt.Sprintf("%s (%d)", strings.ReplaceAll(bin, "\x1f", "|"), n))
		}
	}
	if len(thin) > 0 {
		sort.Strings(thin)
		return nil, fmt.Errorf(
			"core: appending would publish %d new bin(s) below k=%d — %s; re-plan over the combined table: %w",
			len(thin), plan.K, strings.Join(thin, ", "), ErrPlanDrift)
	}
	res.NewBins = newBins

	eff := *plan
	eff.rt = nil
	bins := make(map[string]int, len(plan.Bins)+newBins)
	for bin, n := range plan.Bins {
		bins[bin] = n
	}
	for bin, n := range deltaBins {
		bins[bin] += n
	}
	eff.Bins = bins
	eff.Rows = plan.Rows + res.Rows
	res.Plan = eff
	return res, nil
}

// streamJob is the validated state ApplyStream and AppendStream share:
// the plan's cipher, generalization sets and embed parameters, and the
// result and combined marked bins its per-segment steps accumulate.
type streamJob struct {
	f        *Framework
	plan     *Plan
	cipher   *crypt.Cipher
	columns  map[string]watermark.ColumnSpec
	ultiGens map[string]dht.GenSet
	params   watermark.Params
	quasi    []string
	res      *Streamed
	after    map[string]int
}

// newStreamJob validates the inputs of a streamed protection.
func (f *Framework) newStreamJob(ctx context.Context, src Segments, plan *Plan, key crypt.WatermarkKey) (*streamJob, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil segment source: %w", ErrBadConfig)
	}
	if plan == nil {
		return nil, fmt.Errorf("core: nil plan: %w", ErrBadProvenance)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := key.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadKey)
	}
	cipher, err := crypt.NewCipher(key.Enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadKey)
	}
	schema := src.Schema()
	if _, err := schema.Index(plan.IdentCol); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadSchema)
	}
	if err := checkQuasiCols(schema, plan); err != nil {
		return nil, err
	}
	columns, err := f.SpecsFromProvenance(plan.Provenance)
	if err != nil {
		return nil, err
	}
	ultiGens := make(map[string]dht.GenSet, len(columns))
	for col, spec := range columns {
		ultiGens[col] = spec.UltiGen
	}
	params, err := paramsFromProvenance(plan.Provenance, key)
	if err != nil {
		return nil, err
	}
	params.Workers = f.cfg.Workers
	return &streamJob{
		f:        f,
		plan:     plan,
		cipher:   cipher,
		columns:  columns,
		ultiGens: ultiGens,
		params:   params,
		quasi:    schema.QuasiColumns(),
		res:      &Streamed{},
		after:    make(map[string]int),
	}, nil
}

// suppress replays the plan's recorded suppression on a copy of seg.
func (j *streamJob) suppress(seg *relation.Table) (*relation.Table, error) {
	if len(j.plan.Suppress) == 0 {
		return seg, nil
	}
	work := seg.Clone()
	n, err := binning.Suppress(work, j.f.trees, j.plan.Suppress)
	if err != nil {
		return nil, fmt.Errorf("core: replaying plan suppression: %w: %w", err, ErrBadProvenance)
	}
	j.res.Suppressed += n
	return work, nil
}

// transform generalizes seg to the planned frontiers and encrypts its
// identifiers. The per-segment k check is disabled (effective k 0): a
// segment's bins may be thin as long as the combined table is safe —
// verified at end-of-stream.
func (j *streamJob) transform(ctx context.Context, seg *relation.Table) (*relation.Table, error) {
	return binning.TransformContext(ctx, seg, j.ultiGens, 0, j.cipher, j.f.cfg.Workers)
}

// embed watermarks the transformed segment tbl in place and counts its
// bins into j.after. The per-row walk depends only on the encrypted
// identifier cell, so segmentation cannot change which bits land where.
func (j *streamJob) embed(ctx context.Context, tbl *relation.Table) error {
	stats, err := watermark.EmbedContext(ctx, tbl, j.plan.IdentCol, j.columns, j.params)
	if err != nil {
		return err
	}
	addEmbed(&j.res.Embed, stats)
	return anonymity.AddBins(j.after, tbl, j.quasi)
}

// readAhead reads src one segment ahead of its consumer: src.Next runs
// on a goroutine of its own while the caller works on the previous
// segment. next returns the segments in source order, then io.EOF; a
// source error comes back wrapped with the index of the segment that
// failed, and a cancelled ctx as ctx.Err(). The hand-off is unbuffered,
// so at most one segment waits beyond the one the caller holds. After
// next returns an error the caller must not call it again. stop ends
// the read-ahead and waits for the goroutine to exit, so no src.Next
// call runs after stop returns; the caller must call it once, on every
// path.
func readAhead(src Segments) (next func(context.Context) (*relation.Table, error), stop func()) {
	type read struct {
		seg *relation.Table
		err error
	}
	reads := make(chan read)
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			seg, err := src.Next()
			select {
			case reads <- read{seg, err}:
			case <-quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	segments := 0
	next = func(ctx context.Context) (*relation.Table, error) {
		select {
		case r := <-reads:
			switch {
			case r.err == nil:
				segments++
				return r.seg, nil
			case errors.Is(r.err, io.EOF):
				return nil, io.EOF
			default:
				return nil, fmt.Errorf("core: reading segment %d: %w", segments, r.err)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	stop = func() {
		close(quit)
		<-done
	}
	return next, stop
}

// pipeSegments runs step over every segment of src and writes each
// result to out as CSV, with the three stages overlapped: src is read
// one segment ahead of step (readAhead), and a goroutine writes each
// result to out while step works on the next segment. The write
// hand-off is unbuffered too, so at most one segment is read ahead and
// one is being written, and out receives the results in source order.
// On any error or cancellation the loop stops, then waits for both
// goroutines to exit before it returns: no src.Next call and no write
// to out runs after return. A write error stops the loop at the next
// segment boundary.
func pipeSegments(ctx context.Context, src Segments, out io.Writer, step func(*relation.Table) (*relation.Table, error)) (rows, segments int, err error) {
	next, stop := readAhead(src)

	// Write-behind: the writer stops at its first error.
	sw := relation.NewSegmentWriter(out, src.Schema())
	writes := make(chan *relation.Table)
	writerDone := make(chan struct{})
	var writeErr error
	go func() {
		defer close(writerDone)
		for tbl := range writes {
			if writeErr = sw.WriteSegment(tbl); writeErr != nil {
				return
			}
		}
	}()

	err = func() error {
		for {
			seg, err := next(ctx)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			tbl, err := step(seg)
			if err != nil {
				return err
			}
			n := tbl.NumRows()
			select {
			case writes <- tbl:
			case <-writerDone:
				return writeErr
			case <-ctx.Done():
				return ctx.Err()
			}
			rows += n
			segments++
			reportProgress(ctx, Progress{Stage: "stream", Done: rows})
		}
	}()
	stop()
	close(writes)
	<-writerDone
	if err == nil {
		err = writeErr
	}
	if err == nil {
		err = sw.Flush()
	}
	return rows, segments, err
}

// PlannedStream is the outcome of PlanStream: the plan plus ingest
// counters. Unlike PlanContext's result, the plan carries no runtime
// fast path — applying it (ApplyContext or ApplyStream) replays the
// recorded suppression.
type PlannedStream struct {
	// Plan is byte-identical (MarshalPlan) to the plan PlanContext
	// would produce over the materialized concatenation of the
	// segments.
	Plan *Plan
	// Rows and Segments count the consumed input.
	Rows, Segments int
}

// PlanStream computes a protection plan in one pass over a segment
// source with memory bounded by the number of distinct quasi-tuples,
// not rows: each segment is folded into a binning.Sketch (per-column
// leaf histograms plus a joint quasi-tuple count table) and an
// ownership.StatAccum over the identifying column, then discarded. The
// frontier search, the aggressive-rule suppression replay and the
// conservative-ε re-search all run over the sketch and produce exactly
// the plan PlanContext would — the paper's planning pass without ever
// materializing the table.
//
// src.Next runs on another goroutine, one segment ahead of the work on
// the current one, and never after the call returns.
func (f *Framework) PlanStream(ctx context.Context, src Segments, key crypt.WatermarkKey) (*PlannedStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil segment source: %w", ErrBadConfig)
	}
	if err := key.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadKey)
	}
	schema := src.Schema()
	identCol, err := f.identCol(schema)
	if err != nil {
		return nil, err
	}
	identIdx, err := schema.Index(identCol)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrBadSchema)
	}
	sk, err := binning.NewSketch(schema, f.trees)
	if err != nil {
		return nil, err
	}

	var accum ownership.StatAccum
	res := &PlannedStream{}
	next, stop := readAhead(src)
	defer stop()
	for {
		seg, err := next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := sk.Add(seg); err != nil {
			return nil, err
		}
		dict := seg.DictValues(identIdx)
		for _, code := range seg.Codes(identIdx) {
			accum.Add(dict[code])
		}
		res.Rows += seg.NumRows()
		res.Segments++
		reportProgress(ctx, Progress{Stage: "plan", Done: res.Rows})
	}

	// Ownership mark from the accumulated identifying column (§5.4),
	// numerically identical to the materialized computation: the
	// accumulator folds values in row order.
	v, err := accum.Statistic()
	if err != nil {
		return nil, fmt.Errorf("core: deriving ownership mark: %w: %w", err, ErrBadSchema)
	}
	mark, err := ownership.MarkFromStatistic(v, f.cfg.Quantum, f.cfg.MarkBits)
	if err != nil {
		return nil, fmt.Errorf("core: deriving ownership mark: %w: %w", err, ErrBadSchema)
	}

	plan, err := f.planFromSketch(ctx, sk, schema.QuasiColumns(), identCol, mark, v, nil)
	if err != nil {
		return nil, err
	}
	res.Plan = plan
	return res, nil
}
