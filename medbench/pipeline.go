package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/anonymity"
	"repro/internal/attack"
	"repro/internal/binning"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/relation"
	"repro/internal/watermark"
	"repro/medshield"
)

// The pipeline workloads share one owner configuration: the server's
// defaults (k = 20 with the conservative ε) and η = 75.
const (
	ownerSecret = "medbench owner secret"
	eta         = 75
)

func newFramework(workers int, opts ...medshield.Option) (*core.Framework, error) {
	opts = append([]medshield.Option{medshield.WithK(20), medshield.WithAutoEpsilon(), medshield.WithWorkers(workers)}, opts...)
	return medshield.New(medshield.BuiltinTrees(), opts...)
}

// generate draws a table from the distribution of the repository's
// fixtures.
func generate(rows int, seed int64) (*relation.Table, error) {
	return datagen.Generate(datagen.Config{Rows: rows, Seed: seed, Correlate: true, ZipfS: 1.2})
}

// writeCSV drains src into a new CSV file at path.
func writeCSV(path string, src core.Segments) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	sw := relation.NewSegmentWriter(bw, src.Schema())
	for {
		seg, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if err := sw.WriteSegment(seg); err != nil {
			return err
		}
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// withCSV opens the CSV file at path as a segment source for fn.
func withCSV(path string, fn func(*relation.SegmentReader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := medshield.NewSegmentReader(bufio.NewReaderSize(f, 1<<20), medshield.BuiltinSchema(), 0)
	if err != nil {
		return err
	}
	return fn(sr)
}

// copiesSource yields a base table n times over, segment by segment.
// Copy c > 0 carries identifiers of its own: the generator's SSN of row
// c·rows+i instead of row i. Every quasi-identifier bin of the result is
// n times a bin of the base, so a plan frozen over the base is k-safe
// for all of it.
type copiesSource struct {
	base     *relation.Table
	n, c     int
	identIdx int
	cur      *relation.TableSegments
}

func newCopies(base *relation.Table, n int) (*copiesSource, error) {
	idents := base.Schema().IdentColumns()
	if len(idents) != 1 {
		return nil, fmt.Errorf("want one identifying column, schema has %v", idents)
	}
	idx, err := base.Schema().Index(idents[0])
	if err != nil {
		return nil, err
	}
	return &copiesSource{base: base, n: n, identIdx: idx}, nil
}

func (s *copiesSource) Schema() *relation.Schema { return s.base.Schema() }

func (s *copiesSource) Next() (*relation.Table, error) {
	for s.c < s.n {
		if s.cur == nil {
			s.cur = s.base.Segments(0)
		}
		seg, err := s.cur.Next()
		if errors.Is(err, io.EOF) {
			s.cur = nil
			s.c++
			continue
		}
		if err != nil || s.c == 0 {
			return seg, err
		}
		if _, err := seg.MapColumn(s.identIdx, func(v string) (string, error) {
			return relabel(v, s.c, s.base.NumRows())
		}); err != nil {
			return nil, err
		}
		return seg, nil
	}
	return nil, io.EOF
}

// relabel turns the datagen SSN of row i ("AAA-GG-SSSS" with
// i = (GG-10)·10000 + SSSS) into the SSN of row copy·rows+i, keeping the
// area digits.
func relabel(ssn string, copy, rows int) (string, error) {
	area, rest, ok1 := strings.Cut(ssn, "-")
	group, serial, ok2 := strings.Cut(rest, "-")
	g, err1 := strconv.Atoi(group)
	s, err2 := strconv.Atoi(serial)
	if !ok1 || !ok2 || err1 != nil || err2 != nil {
		return "", fmt.Errorf("identifier %q is not a generated SSN", ssn)
	}
	j := copy*rows + (g-10)*10000 + s
	return fmt.Sprintf("%s-%02d-%04d", area, j/10000+10, j%10000), nil
}

// digester hashes an output. With cfg.corrupt it flips the low bit of
// the first byte written, standing in for a wrong output.
type digester struct {
	h       hash.Hash
	corrupt bool
}

func newDigester(cfg config) *digester { return &digester{h: sha256.New(), corrupt: cfg.corrupt} }

func (d *digester) Write(p []byte) (int, error) {
	if d.corrupt && len(p) > 0 {
		d.corrupt = false
		q := append([]byte(nil), p...)
		q[0] ^= 1
		return d.h.Write(q)
	}
	return d.h.Write(p)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// pipelineMetrics sets the end-to-end metrics of a pipeline workload,
// whose operation is one pipeline call over rows input rows.
func pipelineMetrics(rep *report, st loopStats, rows int, setup float64) {
	p50 := median(st.durations)
	rep.samples = len(st.durations)
	rep.set("rows_per_s", float64(rows)/p50, "rows/s")
	rep.set("ops_per_s", 1/p50, "ops/s")
	rep.set("latency_p50_ms", p50*1000, "ms")
	rep.set("latency_p95_ms", quantile(st.durations, 0.95)*1000, "ms")
	rep.set("peak_heap_mib", st.peakHeap/mib, "MiB")
	rep.set("setup_s", setup, "s")
}

// sameDigest records the digest of one operation's output and fails the
// operation when it differs from the first one's: the pipeline is
// deterministic, so every operation of a run must produce equal bytes.
func sameDigest(first *string, got string) error {
	if *first == "" {
		*first = got
		return nil
	}
	if got != *first {
		return fmt.Errorf("output digest %s differs from the run's first %s", got, *first)
	}
	return nil
}

// ---- release -------------------------------------------------------------

// releaseOp plans the CSV at path with PlanStream and protects it with
// ApplyStream, writing the protected CSV to out. wrap, when set, wraps
// each segment source.
func releaseOp(ctx context.Context, fw *core.Framework, key crypt.WatermarkKey, path string, out io.Writer,
	wrap func(core.Segments) core.Segments, around func(string, func() error) error) (*core.PlannedStream, *core.Streamed, error) {
	if wrap == nil {
		wrap = func(s core.Segments) core.Segments { return s }
	}
	if around == nil {
		around = func(_ string, fn func() error) error { return fn() }
	}
	var ps *core.PlannedStream
	var st *core.Streamed
	err := withCSV(path, func(sr *relation.SegmentReader) error {
		return around("core.PlanStream", func() (err error) {
			ps, err = fw.PlanStream(ctx, wrap(sr), key)
			return err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	err = withCSV(path, func(sr *relation.SegmentReader) error {
		return around("core.ApplyStream", func() (err error) {
			st, err = fw.ApplyStream(ctx, wrap(sr), ps.Plan, key, out)
			return err
		})
	})
	return ps, st, err
}

func runRelease(ctx context.Context, cfg config) (*report, error) {
	fw, err := newFramework(0)
	if err != nil {
		return nil, err
	}
	key := medshield.NewKey(ownerSecret, eta)
	rows := cfg.size.releaseRows
	path := filepath.Join(cfg.workDir, "release.csv")
	reps := cfg.size.setupReps
	if cfg.trace {
		reps = 1
	}
	_, setup, err := repeatSetup(reps, func() (struct{}, error) {
		tbl, err := generate(rows, cfg.seed)
		if err != nil {
			return struct{}{}, err
		}
		return struct{}{}, writeCSV(path, tbl.Segments(0))
	})
	if err != nil {
		return nil, err
	}

	rep := &report{}
	var first string
	op := func() error {
		rep.attempted++
		d := newDigester(cfg)
		ps, st, err := releaseOp(ctx, fw, key, path, d, nil, nil)
		if err == nil && (ps.Rows != rows || st.Rows != rows) {
			err = fmt.Errorf("planned %d and protected %d rows, want %d", ps.Rows, st.Rows, rows)
		}
		if err == nil {
			err = sameDigest(&first, d.sum())
		}
		if err != nil {
			rep.fail("release: %v", err)
		}
		return err
	}
	if !cfg.trace {
		st := timedLoop(cfg.seconds, op)
		pipelineMetrics(rep, st, rows, setup)
		checkDigest(cfg, rep, "release.protected_csv", first)
		return rep, nil
	}

	// Traced run: one untraced operation, one traced, then the replay of
	// PlanStream's search and of ApplyStream through their public parts.
	plain := timedLoop(0, op)
	checkDigest(cfg, rep, "release.protected_csv", first)
	tr := newTracer()
	gc0 := readGC()
	var ps *core.PlannedStream
	var streamed *core.Streamed
	traced := timedLoop(0, func() error {
		rep.attempted++
		d := newDigester(cfg)
		var err error
		ps, streamed, err = releaseOp(ctx, fw, key, path, d,
			func(s core.Segments) core.Segments { return &tracedSegments{src: s, tr: tr, name: "relation.ingest"} },
			tr.do)
		if err == nil {
			err = sameDigest(&first, d.sum())
		}
		if err != nil {
			rep.fail("traced release: %v", err)
		}
		return err
	})
	gc1 := readGC()
	if rep.failed > 0 {
		return rep, nil
	}
	rt := newTracer()
	plan := ps.Plan
	var search searchStats
	err = withCSV(path, func(sr *relation.SegmentReader) error {
		search, err = replayPlan(ctx, fw, &tracedSegments{src: sr, tr: rt, name: "relation.ingest"}, plan, rt)
		return err
	})
	if err != nil {
		return invalidTrace(rep, err), nil
	}
	d := newDigester(cfg)
	var ap applyStats
	err = withCSV(path, func(sr *relation.SegmentReader) error {
		ap, err = replayApply(ctx, fw, &tracedSegments{src: sr, tr: rt, name: "relation.ingest"}, plan, key, d, rt)
		return err
	})
	if err == nil && d.sum() != first {
		err = fmt.Errorf("replayed ApplyStream digest %s, ApplyStream %s", d.sum(), first)
	}
	if err != nil {
		return invalidTrace(rep, err), nil
	}
	setPerLayerDefaults(rep)
	setIngest(rep, tr, ps.Segments+streamed.Segments)
	setSearch(rep, rt, search)
	setApplyReplay(rep, rt, ap)
	rep.set("core.self_s", rt.self("replay.plan")+rt.self("replay.apply"), "s")
	setRuntime(rep, gc0, gc1)
	rep.set("trace.overhead", median(plain.durations)/median(traced.durations), "ratio")
	rep.samples = len(plain.durations) + len(traced.durations)
	return rep, nil
}

// ---- apply ---------------------------------------------------------------

// applyFixture is the apply workload's set-up: a plan frozen over the
// base table and the CSV of its copies.
type applyFixture struct {
	plan *core.Plan
	path string
	rows int
}

// buildApplyFixture generates the base table, plans it with PlanStream
// and writes the CSV of its copies. With a tracer it also replays the
// search and checks the replay finds the plan's frontiers.
func buildApplyFixture(ctx context.Context, cfg config, fw *core.Framework, key crypt.WatermarkKey,
	rt *tracer) (*applyFixture, searchStats, error) {
	var search searchStats
	base, err := generate(cfg.size.baseRows, cfg.seed)
	if err != nil {
		return nil, search, err
	}
	ps, err := fw.PlanStream(ctx, base.Segments(0), key)
	if err != nil {
		return nil, search, err
	}
	if rt != nil {
		if search, err = replayPlan(ctx, fw, base.Segments(0), ps.Plan, rt); err != nil {
			return nil, search, err
		}
	}
	src, err := newCopies(base, cfg.size.copies)
	if err != nil {
		return nil, search, err
	}
	path := filepath.Join(cfg.workDir, "apply.csv")
	if err := writeCSV(path, src); err != nil {
		return nil, search, err
	}
	return &applyFixture{plan: ps.Plan, path: path, rows: base.NumRows() * cfg.size.copies}, search, nil
}

// applyOp protects the fixture's CSV under its frozen plan.
func applyOp(ctx context.Context, fw *core.Framework, key crypt.WatermarkKey, fx *applyFixture, out io.Writer,
	wrap func(core.Segments) core.Segments) (*core.Streamed, error) {
	var st *core.Streamed
	err := withCSV(fx.path, func(sr *relation.SegmentReader) error {
		var src core.Segments = sr
		if wrap != nil {
			src = wrap(sr)
		}
		var err error
		st, err = fw.ApplyStream(ctx, src, fx.plan, key, out)
		return err
	})
	if err == nil && st.Rows != fx.rows {
		err = fmt.Errorf("protected %d rows, want %d", st.Rows, fx.rows)
	}
	return st, err
}

func runApply(ctx context.Context, cfg config) (*report, error) {
	fw, err := newFramework(0)
	if err != nil {
		return nil, err
	}
	key := medshield.NewKey(ownerSecret, eta)
	rep := &report{}
	var first string
	opWith := func(fw *core.Framework, fx *applyFixture) func() error {
		return func() error {
			rep.attempted++
			d := newDigester(cfg)
			_, err := applyOp(ctx, fw, key, fx, d, nil)
			if err == nil {
				err = sameDigest(&first, d.sum())
			}
			if err != nil {
				rep.fail("apply: %v", err)
			}
			return err
		}
	}
	if !cfg.trace {
		fx, setup, err := repeatSetup(cfg.size.setupReps, func() (*applyFixture, error) {
			fx, _, err := buildApplyFixture(ctx, cfg, fw, key, nil)
			return fx, err
		})
		if err != nil {
			return nil, err
		}
		st := timedLoop(cfg.seconds, opWith(fw, fx))
		pipelineMetrics(rep, st, fx.rows, setup)
		checkDigest(cfg, rep, "apply.protected_csv", first)
		return rep, nil
	}

	// Traced run: set-up with the search replayed, one untraced
	// operation at every worker count and at one worker, one traced
	// operation, then the replay of ApplyStream through its parts.
	rt := newTracer()
	fx, search, err := buildApplyFixture(ctx, cfg, fw, key, rt)
	if err != nil {
		var mismatch *replayMismatch
		if errors.As(err, &mismatch) {
			return invalidTrace(rep, err), nil
		}
		return nil, err
	}
	plain := timedLoop(0, opWith(fw, fx))
	checkDigest(cfg, rep, "apply.protected_csv", first)
	fw1, err := newFramework(1)
	if err != nil {
		return nil, err
	}
	single := timedLoop(0, opWith(fw1, fx))
	tr := newTracer()
	gc0 := readGC()
	var streamed *core.Streamed
	traced := timedLoop(0, func() error {
		rep.attempted++
		d := newDigester(cfg)
		var err error
		err = tr.do("core.ApplyStream", func() error {
			streamed, err = applyOp(ctx, fw, key, fx, d,
				func(s core.Segments) core.Segments { return &tracedSegments{src: s, tr: tr, name: "relation.ingest"} })
			return err
		})
		if err == nil {
			err = sameDigest(&first, d.sum())
		}
		if err != nil {
			rep.fail("traced apply: %v", err)
		}
		return err
	})
	gc1 := readGC()
	if rep.failed > 0 {
		return rep, nil
	}
	d := newDigester(cfg)
	var ap applyStats
	err = withCSV(fx.path, func(sr *relation.SegmentReader) error {
		ap, err = replayApply(ctx, fw, &tracedSegments{src: sr, tr: rt, name: "relation.ingest"}, fx.plan, key, d, rt)
		return err
	})
	if err == nil && d.sum() != first {
		err = fmt.Errorf("replayed ApplyStream digest %s, ApplyStream %s", d.sum(), first)
	}
	if err != nil {
		return invalidTrace(rep, err), nil
	}
	setPerLayerDefaults(rep)
	setIngest(rep, tr, streamed.Segments)
	setSearch(rep, rt, search)
	setApplyReplay(rep, rt, ap)
	rep.set("core.self_s", rt.self("replay.apply"), "s")
	rep.set("pool.parallel_speedup", median(single.durations)/median(plain.durations), "ratio")
	setRuntime(rep, gc0, gc1)
	rep.set("trace.overhead", median(plain.durations)/median(traced.durations), "ratio")
	rep.samples = len(plain.durations) + len(single.durations) + len(traced.durations)
	return rep, nil
}

// ---- leak-triage -----------------------------------------------------------

// leakFixture is the leak-triage set-up: a leaked CSV made from
// candidate 0's copy and the registered candidates.
type leakFixture struct {
	path  string
	rows  int
	cands []core.Candidate
}

func candidateID(i int) string { return fmt.Sprintf("hospital-%03d", i) }

// buildLeakFixture plans the base table, protects its copies for
// candidate 0, alters a fixed fraction of the protected rows and
// registers every candidate's provenance and key.
func buildLeakFixture(ctx context.Context, cfg config, fw *core.Framework) (*leakFixture, error) {
	base, err := generate(cfg.size.baseRows, cfg.seed)
	if err != nil {
		return nil, err
	}
	ps, err := fw.PlanStream(ctx, base.Segments(0), medshield.NewKey(ownerSecret, eta))
	if err != nil {
		return nil, err
	}
	leakPlan, err := core.RecipientPlan(ps.Plan, candidateID(0))
	if err != nil {
		return nil, err
	}
	src, err := newCopies(base, cfg.size.copies)
	if err != nil {
		return nil, err
	}
	// Candidate 0's protected copy streams through a pipe into the
	// attack, which writes the leaked CSV.
	pr, pw := io.Pipe()
	applied := make(chan error, 1)
	var res *core.Streamed
	go func() {
		bw := bufio.NewWriterSize(pw, 1<<20)
		var err error
		res, err = fw.ApplyStream(ctx, src, leakPlan, medshield.RecipientKey(ownerSecret, candidateID(0), eta), bw)
		if err == nil {
			err = bw.Flush()
		}
		pw.CloseWithError(err)
		applied <- err
	}()
	fx := &leakFixture{path: filepath.Join(cfg.workDir, "leak.csv")}
	sr, err := medshield.NewSegmentReader(pr, medshield.BuiltinSchema(), 0)
	if err == nil {
		rng := rand.New(rand.NewSource(cfg.seed))
		err = writeCSV(fx.path, &alteredSegments{src: sr, frac: cfg.size.alterFrac, rng: rng})
	}
	pr.CloseWithError(err) // unblocks the protecting goroutine if the attack stopped early
	if err := errors.Join(<-applied, err); err != nil {
		return nil, err
	}
	fx.rows = res.Rows
	for i := 0; i < cfg.size.candidates; i++ {
		id := candidateID(i)
		rp, err := core.RecipientPlan(ps.Plan, id)
		if err != nil {
			return nil, err
		}
		prov := rp.Provenance
		prov.BoundaryPermutation = res.Plan.BoundaryPermutation
		fx.cands = append(fx.cands, core.Candidate{ID: id, Provenance: prov, Key: medshield.RecipientKey(ownerSecret, id, eta)})
	}
	return fx, nil
}

// alteredSegments applies the subset-alteration attack to every segment
// of src: frac of its rows get every quasi-identifying cell replaced by
// a value of the same column seen in the stream.
type alteredSegments struct {
	src  core.Segments
	frac float64
	rng  *rand.Rand
}

func (a *alteredSegments) Schema() *relation.Schema { return a.src.Schema() }

func (a *alteredSegments) Next() (*relation.Table, error) {
	seg, err := a.src.Next()
	if err != nil {
		return nil, err
	}
	seg = seg.Clone()
	cols := make(map[string][]string)
	for _, col := range seg.Schema().QuasiColumns() {
		idx, err := seg.Schema().Index(col)
		if err != nil {
			return nil, err
		}
		cols[col] = append([]string(nil), seg.DictValues(idx)...)
	}
	if _, err := attack.AlterSubset(seg, cols, a.frac, a.rng); err != nil {
		return nil, err
	}
	return seg, nil
}

// verdictDigest hashes the ranked verdicts.
func verdictDigest(cfg config, tb *core.TracebackStreamed) (string, error) {
	d := newDigester(cfg)
	enc := json.NewEncoder(d)
	for _, v := range tb.Verdicts {
		if err := enc.Encode(v); err != nil {
			return "", err
		}
	}
	return d.sum(), nil
}

// leakOp traces the leaked CSV back to the registered candidates.
func leakOp(ctx context.Context, cfg config, fw *core.Framework, fx *leakFixture,
	wrap func(core.Segments) core.Segments) (*core.TracebackStreamed, string, error) {
	var tb *core.TracebackStreamed
	err := withCSV(fx.path, func(sr *relation.SegmentReader) error {
		var src core.Segments = sr
		if wrap != nil {
			src = wrap(sr)
		}
		var err error
		tb, err = fw.TracebackStream(ctx, src, fx.cands)
		return err
	})
	if err != nil {
		return nil, "", err
	}
	if tb.Rows != fx.rows {
		return nil, "", fmt.Errorf("traced %d rows, want %d", tb.Rows, fx.rows)
	}
	if tb.Culprit != candidateID(0) {
		return nil, "", fmt.Errorf("culprit %q, want %q", tb.Culprit, candidateID(0))
	}
	sum, err := verdictDigest(cfg, tb)
	return tb, sum, err
}

func runLeakTriage(ctx context.Context, cfg config) (*report, error) {
	fw, err := newFramework(0)
	if err != nil {
		return nil, err
	}
	reps := cfg.size.setupReps
	if cfg.trace {
		reps = 1
	}
	fx, setup, err := repeatSetup(reps, func() (*leakFixture, error) {
		return buildLeakFixture(ctx, cfg, fw)
	})
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var first string
	traceback := func(wrap func(core.Segments) core.Segments) (tb *core.TracebackStreamed) {
		rep.attempted++
		tb, sum, err := leakOp(ctx, cfg, fw, fx, wrap)
		if err == nil {
			err = sameDigest(&first, sum)
		}
		if err != nil {
			rep.fail("leak-triage: %v", err)
			return nil
		}
		return tb
	}
	op := func() error {
		if traceback(nil) == nil {
			return errFailed
		}
		return nil
	}
	if !cfg.trace {
		st := timedLoop(cfg.seconds, op)
		pipelineMetrics(rep, st, fx.rows, setup)
		checkDigest(cfg, rep, "leak-triage.verdicts", first)
		return rep, nil
	}

	plain := timedLoop(0, op)
	checkDigest(cfg, rep, "leak-triage.verdicts", first)
	tr := newTracer()
	gc0 := readGC()
	var tb *core.TracebackStreamed
	traced := timedLoop(0, func() error {
		return tr.do("core.TracebackStream", func() error {
			tb = traceback(func(s core.Segments) core.Segments {
				return &tracedSegments{src: s, tr: tr, name: "relation.ingest"}
			})
			if tb == nil {
				return errFailed
			}
			return nil
		})
	})
	gc1 := readGC()
	if rep.failed > 0 {
		return rep, nil
	}
	setPerLayerDefaults(rep)
	setIngest(rep, tr, tb.Segments)
	votes := 0
	for _, v := range tb.Verdicts {
		votes += v.VotesCast
	}
	rep.set("watermark.detect_s", tr.self("core.TracebackStream"), "s")
	rep.set("watermark.votes_cast", float64(votes), "count")
	rep.set("watermark.candidates", float64(len(fx.cands)), "count")
	setRuntime(rep, gc0, gc1)
	rep.set("trace.overhead", median(plain.durations)/median(traced.durations), "ratio")
	rep.samples = len(plain.durations) + len(traced.durations)
	return rep, nil
}

// ---- replays of the composed calls ----------------------------------------

// replayMismatch reports a replay that disagrees with the composed
// call it stands for; the traced run is then invalid.
type replayMismatch struct{ what string }

func (e *replayMismatch) Error() string { return "replay mismatch: " + e.what }

// invalidTrace marks a traced run whose replay disagreed with the
// untraced call: it reports no per-layer numbers.
func invalidTrace(rep *report, err error) *report {
	rep.problems = append(rep.problems, fmt.Sprintf("traced run invalid: %v", err))
	rep.metrics = nil
	return rep
}

// searchStats counts the work of a replayed search.
type searchStats struct {
	calls, merges int
}

// replayPlan replays PlanStream's planning through binning's public
// parts, in PlanStream's order: a sketch fed segment by segment, the
// frontier search, and the search again at the conservative ε. It fails
// with a replayMismatch unless it finds the frontiers plan records.
func replayPlan(ctx context.Context, fw *core.Framework, src core.Segments, plan *core.Plan, tr *tracer) (searchStats, error) {
	var st searchStats
	cfg := fw.Config()
	tr.begin("replay.plan")
	defer tr.end()
	sk, err := binning.NewSketch(src.Schema(), fw.Trees())
	if err != nil {
		return st, err
	}
	for {
		seg, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return st, err
		}
		if err := tr.do("binning.sketch_add", func() error { return sk.Add(seg) }); err != nil {
			return st, err
		}
	}
	bcfg := binning.Config{
		K: cfg.K, Epsilon: cfg.Epsilon, Trees: fw.Trees(), MaxGens: cfg.MaxGens, Metrics: cfg.Metrics,
		Strategy: cfg.Strategy, EnumLimit: cfg.EnumLimit, Aggressive: cfg.Aggressive, Workers: cfg.Workers,
	}
	search := func() (res *binning.SearchResult, err error) {
		err = tr.do("binning.search", func() error {
			res, err = binning.SearchSketch(ctx, sk, bcfg)
			return err
		})
		if err == nil {
			st.calls++
			st.merges += res.MultiStats.GreedyMerges
		}
		return res, err
	}
	res, err := search()
	if err != nil {
		return st, err
	}
	if cfg.AutoEpsilon {
		bins, err := res.GeneralizedBins(src.Schema().QuasiColumns(), res.UltiGens)
		if err != nil {
			return st, err
		}
		if eps := binning.EpsilonForMark(bins, cfg.MarkBits*cfg.Duplication); eps > bcfg.Epsilon {
			bcfg.Epsilon = eps
			if res, err = search(); err != nil {
				return st, err
			}
		}
	}
	if res.EffectiveK != plan.EffectiveK || bcfg.Epsilon != plan.Epsilon {
		return st, &replayMismatch{fmt.Sprintf("search found k+ε = %d (ε %d), PlanStream %d (ε %d)",
			res.EffectiveK, bcfg.Epsilon, plan.EffectiveK, plan.Epsilon)}
	}
	if len(res.UltiGens) != len(plan.Columns) {
		return st, &replayMismatch{fmt.Sprintf("search found %d frontiers, PlanStream %d", len(res.UltiGens), len(plan.Columns))}
	}
	for col, g := range res.UltiGens {
		if !slices.Equal(g.Values(), plan.Columns[col].Ulti) {
			return st, &replayMismatch{fmt.Sprintf("column %s: search frontier %v, PlanStream %v", col, g.Values(), plan.Columns[col].Ulti)}
		}
	}
	return st, nil
}

// applyStats counts the work of a replayed ApplyStream.
type applyStats struct {
	encryptCalls int
	embed        watermark.EmbedStats
}

// replayApply replays ApplyStream through its public parts, in its
// order, per segment: binning.Suppress (when the plan suppresses),
// binning.TransformContext, watermark.EmbedContext and the
// relation.SegmentWriter, with the bin counting ApplyStream does around
// the embed. Before each transform it also encrypts the segment's
// identifier dictionary through Cipher.EncryptString alone, which is
// the identifier encryption the transform performs.
func replayApply(ctx context.Context, fw *core.Framework, src core.Segments, plan *core.Plan, key crypt.WatermarkKey,
	out io.Writer, tr *tracer) (applyStats, error) {
	var st applyStats
	cipher, err := crypt.NewCipher(key.Enc)
	if err != nil {
		return st, err
	}
	columns, err := fw.SpecsFromProvenance(plan.Provenance)
	if err != nil {
		return st, err
	}
	ultiGens := make(map[string]dht.GenSet, len(columns))
	for col, spec := range columns {
		ultiGens[col] = spec.UltiGen
	}
	mark, err := bitstr.FromString(plan.Mark)
	if err != nil {
		return st, err
	}
	workers := fw.Config().Workers
	params := watermark.Params{
		Key: key, Mark: mark, Duplication: plan.Duplication, WeightedVoting: plan.WeightedVoting,
		SaltPositionWithColumn: plan.SaltPositionWithColumn, BoundaryPermutation: plan.BoundaryPermutation,
		Workers: workers,
	}
	schema := src.Schema()
	quasi := schema.QuasiColumns()
	identIdx, err := schema.Index(plan.IdentCol)
	if err != nil {
		return st, err
	}
	sw := relation.NewSegmentWriter(out, schema)
	before, after := make(map[string]int), make(map[string]int)
	tr.begin("replay.apply")
	defer tr.end()
	for {
		seg, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return st, err
		}
		work := seg
		if len(plan.Suppress) > 0 {
			work = seg.Clone()
			if err := tr.do("binning.suppress", func() error {
				_, err := binning.Suppress(work, fw.Trees(), plan.Suppress)
				return err
			}); err != nil {
				return st, err
			}
		}
		dict := work.DictValues(identIdx)
		st.encryptCalls += len(dict)
		_ = tr.do("crypt.encrypt", func() error {
			for _, v := range dict {
				_ = cipher.EncryptString(v)
			}
			return nil
		})
		var binned *relation.Table
		if err := tr.do("binning.transform", func() (err error) {
			binned, err = binning.TransformContext(ctx, work, ultiGens, 0, cipher, workers)
			return err
		}); err != nil {
			return st, err
		}
		if err := addBins(before, binned, quasi); err != nil {
			return st, err
		}
		var es watermark.EmbedStats
		if err := tr.do("watermark.embed", func() (err error) {
			es, err = watermark.EmbedContext(ctx, binned, plan.IdentCol, columns, params)
			return err
		}); err != nil {
			return st, err
		}
		st.embed.TuplesSelected += es.TuplesSelected
		st.embed.BitsEmbedded += es.BitsEmbedded
		if err := addBins(after, binned, quasi); err != nil {
			return st, err
		}
		if err := tr.do("relation.egress", func() error { return sw.WriteSegment(binned) }); err != nil {
			return st, err
		}
	}
	return st, tr.do("relation.egress", sw.Flush)
}

// addBins adds tbl's quasi-identifier bin sizes to dst, as ApplyStream
// counts them before and after the embed.
func addBins(dst map[string]int, tbl *relation.Table, quasi []string) error {
	bins, err := anonymity.Bins(tbl, quasi)
	if err != nil {
		return err
	}
	for bin, n := range bins {
		dst[bin] += n
	}
	return nil
}
