package core

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"repro/internal/anonymity"
	"repro/internal/bitstr"
	"repro/internal/crypt"
	"repro/internal/ownership"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// Recipient names one party a marked copy is outsourced to, together
// with the key set that copy is embedded under. Keys are usually derived
// from the owner's master secret with crypt.RecipientWatermarkKey, which
// shares the selection key K1 across recipients so a later traceback
// pays the suspect-table selection scan once for all of them.
type Recipient struct {
	// ID is the stable recipient identifier (a hospital code, a partner
	// name). It salts the recipient's mark and addresses the registry.
	ID string
	// Key is the recipient copy's watermarking key set.
	Key crypt.WatermarkKey
}

// FingerprintResult is one recipient's outcome of FingerprintContext.
type FingerprintResult struct {
	// RecipientID echoes the request.
	RecipientID string
	// KeyFingerprint is the non-secret digest of the recipient's key —
	// what the recipient registry stores to later verify a re-derived
	// key against.
	KeyFingerprint string
	// Protected is the recipient's marked copy: its table carries the
	// recipient-salted mark F(v, recipientID) under the recipient's key,
	// and its Plan/Provenance are what traceback detects against.
	Protected *Protected
}

// RecipientPlan derives one recipient's plan from a base plan: the same
// frozen frontiers, statistic and watermark parameters, with the mark
// replaced by the recipient-salted commitment F(v, recipientID). The
// base plan's same-process search state is shared, so applying N
// recipient plans to the planned table repeats no binning work.
func RecipientPlan(base *Plan, recipientID string) (*Plan, error) {
	if base == nil {
		return nil, fmt.Errorf("core: nil plan: %w", ErrBadProvenance)
	}
	if recipientID == "" {
		return nil, fmt.Errorf("core: empty recipient ID: %w", ErrBadConfig)
	}
	baseMark, err := bitstr.FromString(base.Mark)
	if err != nil {
		return nil, fmt.Errorf("core: plan mark: %w: %w", err, ErrBadProvenance)
	}
	mark, err := ownership.MarkFromStatisticSalted(base.V, base.Quantum, baseMark.Len(), recipientID)
	if err != nil {
		return nil, fmt.Errorf("core: deriving recipient mark: %w: %w", err, ErrBadProvenance)
	}
	rp := *base
	rp.Mark = mark.String()
	return &rp, nil
}

// Fingerprint is FingerprintContext under the background context.
func (f *Framework) Fingerprint(tbl *relation.Table, recipients []Recipient) ([]FingerprintResult, error) {
	return f.FingerprintContext(context.Background(), tbl, recipients)
}

// FingerprintContext protects one source table for N recipients — the
// paper's motivating outsourcing scenario, where the owner hands a
// marked copy to every partner and later asks whose copy a leak came
// from. The binning search runs once (PlanContext) and the transform
// stage — identifier encryption, generalization, the k check — runs
// once per distinct encryption key (once, when the keys come from
// crypt.RecipientWatermarkKey); each recipient then gets an embed-only
// pass over the shared immutable transformed table, cloning into fresh
// code vectors before embedding the recipient-salted mark
// F(v, recipientID) under the recipient's key. All copies share the
// frontiers, the encrypted identifiers and the published bin record —
// only the watermark differs — so any copy remains detectable and
// appendable under its own plan, and every copy is byte-identical to a
// standalone ApplyContext under the same recipient plan and key.
//
// Register each result (internal/registry) to enable TracebackContext
// on a leaked table later.
func (f *Framework) FingerprintContext(ctx context.Context, tbl *relation.Table, recipients []Recipient) ([]FingerprintResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validateRecipients(recipients); err != nil {
		return nil, err
	}

	// Progress counts one unit for the shared plan, one for the shared
	// transform, and one per recipient embed.
	total := len(recipients) + 2
	reportProgress(ctx, Progress{Stage: "plan", Done: 0, Total: total})
	plan, err := f.PlanContext(ctx, tbl, recipients[0].Key)
	if err != nil {
		return nil, err
	}
	reportProgress(ctx, Progress{Stage: "transform", Done: 1, Total: total})
	preps := make(map[string]*applyPrepared, 1)
	sels := make(map[string]*watermark.Selection, 1)
	out := make([]FingerprintResult, 0, len(recipients))
	for i, r := range recipients {
		prep, err := f.prepareForKey(ctx, preps, tbl, plan, r)
		if err != nil {
			return nil, err
		}
		// The Equation (5) selection depends only on the transformed
		// identifiers, K1 and η — RecipientWatermarkKey-derived keys
		// share all three, so one scan serves every embed.
		sel, err := f.selectForKey(ctx, sels, prep, plan, r)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			reportProgress(ctx, Progress{Stage: "embed", Done: 2, Total: total})
		}
		rp, err := RecipientPlan(plan, r.ID)
		if err != nil {
			return nil, err
		}
		prot, err := f.applyEmbed(ctx, prep, rp, r.Key, sel)
		if err != nil {
			return nil, fmt.Errorf("core: fingerprinting for recipient %q: %w", r.ID, err)
		}
		out = append(out, FingerprintResult{
			RecipientID:    r.ID,
			KeyFingerprint: r.Key.Fingerprint(),
			Protected:      prot,
		})
		reportProgress(ctx, Progress{Stage: "embed", Done: i + 3, Total: total})
	}
	return out, nil
}

// validateRecipients rejects empty, duplicate or badly-keyed recipient
// sets — the shared front door of the fingerprint entry points.
func validateRecipients(recipients []Recipient) error {
	if len(recipients) == 0 {
		return fmt.Errorf("core: no recipients: %w", ErrBadConfig)
	}
	seen := make(map[string]bool, len(recipients))
	for i, r := range recipients {
		if r.ID == "" {
			return fmt.Errorf("core: recipient %d has an empty ID: %w", i, ErrBadConfig)
		}
		if seen[r.ID] {
			return fmt.Errorf("core: duplicate recipient ID %q: %w", r.ID, ErrBadConfig)
		}
		seen[r.ID] = true
		if err := r.Key.Validate(); err != nil {
			return fmt.Errorf("core: recipient %q: %w: %w", r.ID, err, ErrBadKey)
		}
	}
	return nil
}

// prepareForKey returns the shared transform state for a recipient's
// encryption key, running the transform stage on first use. Keys
// derived by crypt.RecipientWatermarkKey share one encryption key, so
// the usual fan-out pays exactly one transform.
func (f *Framework) prepareForKey(ctx context.Context, preps map[string]*applyPrepared, tbl *relation.Table, plan *Plan, r Recipient) (*applyPrepared, error) {
	if prep, ok := preps[string(r.Key.Enc)]; ok {
		return prep, nil
	}
	prep, err := f.applyPrepare(ctx, tbl, plan, r.Key)
	if err != nil {
		return nil, fmt.Errorf("core: fingerprinting for recipient %q: %w", r.ID, err)
	}
	preps[string(r.Key.Enc)] = prep
	return prep, nil
}

// selectForKey returns the shared Equation (5) selection over a
// transform's output for a recipient's (K1, η), scanning on first use.
// The cache key includes the encryption key — a different cipher
// yields different encrypted identifiers, hence a different selection.
func (f *Framework) selectForKey(ctx context.Context, sels map[string]*watermark.Selection, prep *applyPrepared, plan *Plan, r Recipient) (*watermark.Selection, error) {
	key := string(r.Key.Enc) + "\x00" + string(r.Key.K1) + "\x00" + strconv.FormatUint(r.Key.Eta, 10)
	if sel, ok := sels[key]; ok {
		return sel, nil
	}
	sel, err := watermark.SelectForEmbedContext(ctx, prep.binned, plan.IdentCol, r.Key.K1, r.Key.Eta, f.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: fingerprinting for recipient %q: %w", r.ID, err)
	}
	sels[key] = sel
	return sel, nil
}

// FingerprintStreamed is one recipient's outcome of FingerprintStream:
// the effective plan and statistics of that recipient's copy — the copy
// itself went to the recipient's writer as CSV.
type FingerprintStreamed struct {
	RecipientID    string
	KeyFingerprint string
	// Streamed carries the recipient copy's effective plan, embedding
	// statistics and bin comparison, exactly as ApplyContext would
	// report them for the materialized copy.
	Streamed Streamed
}

// FingerprintStream is the bounded-memory fingerprint fan-out: plan and
// transform run once (exactly as FingerprintContext), then the shared
// transformed table is re-segmented and every segment is cloned,
// embedded and written per recipient through a relation.SegmentWriter —
// so peak memory is one transformed table plus one segment per copy,
// never N materialized tables. outs[i] receives recipient i's protected
// CSV, byte-identical to WriteCSV of the FingerprintContext copy under
// the same recipient plan and key, for every Config.Chunk.
//
// One difference is inherited from the streaming data plane: the §5.1
// boundary-permutation fallback would re-embed whole copies, which the
// segment writers cannot replay — FingerprintStream reports
// ErrUnsatisfiable instead (re-plan with Config.BoundaryPermutation, or
// use the in-memory FingerprintContext). On any error the CSV already
// written to the outs is partial and must be discarded by the caller.
func (f *Framework) FingerprintStream(ctx context.Context, tbl *relation.Table, recipients []Recipient, outs []io.Writer) ([]FingerprintStreamed, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validateRecipients(recipients); err != nil {
		return nil, err
	}
	if len(outs) != len(recipients) {
		return nil, fmt.Errorf("core: %d recipients but %d output writers: %w", len(recipients), len(outs), ErrBadConfig)
	}
	for i, out := range outs {
		if out == nil {
			return nil, fmt.Errorf("core: nil output writer for recipient %q: %w", recipients[i].ID, ErrBadConfig)
		}
	}

	reportProgress(ctx, Progress{Stage: "plan", Done: 0})
	plan, err := f.PlanContext(ctx, tbl, recipients[0].Key)
	if err != nil {
		return nil, err
	}
	reportProgress(ctx, Progress{Stage: "transform", Done: 0})
	preps := make(map[string]*applyPrepared, 1)
	type fanout struct {
		prep   *applyPrepared
		plan   *Plan
		params watermark.Params
		sw     *relation.SegmentWriter
		after  map[string]int
		res    Streamed
	}
	states := make([]*fanout, len(recipients))
	for i, r := range recipients {
		prep, err := f.prepareForKey(ctx, preps, tbl, plan, r)
		if err != nil {
			return nil, err
		}
		rp, err := RecipientPlan(plan, r.ID)
		if err != nil {
			return nil, err
		}
		params, err := paramsFromProvenance(rp.Provenance, r.Key)
		if err != nil {
			return nil, fmt.Errorf("core: fingerprinting for recipient %q: %w", r.ID, err)
		}
		params.Workers = f.cfg.Workers
		states[i] = &fanout{
			prep:   prep,
			plan:   rp,
			params: params,
			sw:     relation.NewSegmentWriter(outs[i], prep.binned.Schema()),
			after:  make(map[string]int),
		}
	}

	// Fan the shared transformed table out segment-at-a-time: each
	// recipient embeds into a fresh clone of the segment's code vectors
	// (copy-on-embed) and appends it to its own CSV stream.
	rows := 0
	for i, st := range states {
		src := st.prep.binned.Segments(f.cfg.Chunk)
		for {
			seg, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			marked := seg.Clone()
			segStats, err := watermark.EmbedContext(ctx, marked, st.plan.IdentCol, st.prep.columns, st.params)
			if err != nil {
				return nil, fmt.Errorf("core: fingerprinting for recipient %q: %w", recipients[i].ID, err)
			}
			addEmbed(&st.res.Embed, segStats)
			if err := anonymity.AddBins(st.after, marked, st.prep.quasi); err != nil {
				return nil, err
			}
			if err := st.sw.WriteSegment(marked); err != nil {
				return nil, err
			}
			st.res.Rows += marked.NumRows()
			st.res.Segments++
			rows += seg.NumRows()
			reportProgress(ctx, Progress{Stage: "embed", Done: rows})
		}
		if err := st.sw.Flush(); err != nil {
			return nil, err
		}
	}

	out := make([]FingerprintStreamed, 0, len(recipients))
	for i, st := range states {
		r := recipients[i]
		// End-of-stream verdicts per copy, mirroring ApplyStream: the
		// transform already enforced the planned k+ε floor, so only the
		// bandwidth and seamlessness checks remain.
		params := st.params
		if st.res.Embed.BitsEmbedded == 0 {
			switch {
			case st.res.Embed.TuplesSelected > 0 && !params.BoundaryPermutation:
				return nil, fmt.Errorf(
					"core: fingerprinting for recipient %q: no watermark bandwidth under the planned frontiers, and the §5.1 boundary-permutation fallback cannot replay the streamed copies; re-plan with Config.BoundaryPermutation or use the in-memory fingerprint: %w", r.ID, ErrUnsatisfiable)
			case st.res.Embed.TuplesSelected > 0:
				return nil, fmt.Errorf(
					"core: fingerprinting for recipient %q: no watermark bandwidth: every frontier sits at the usage metrics with no permutable siblings; relax the metrics or lower K: %w", r.ID, ErrUnsatisfiable)
			case !params.BoundaryPermutation:
				// No tuple selected at all: the in-memory path flips the
				// fallback on with no observable table change; mirror its
				// effective plan.
				params.BoundaryPermutation = true
			}
		}
		st.res.BinStats = anonymity.Compare(st.prep.before, st.after, st.plan.K)
		if st.res.BinStats.BelowK > 0 && !params.BoundaryPermutation {
			return nil, fmt.Errorf(
				"core: fingerprinting for recipient %q: watermarking pushed %d bins below k=%d; increase Epsilon or enable AutoEpsilon: %w",
				r.ID, st.res.BinStats.BelowK, st.plan.K, ErrUnsatisfiable)
		}
		eff := *st.plan
		eff.rt = nil
		eff.BoundaryPermutation = params.BoundaryPermutation
		eff.Bins = st.after
		eff.Rows = st.res.Rows
		st.res.Plan = eff
		out = append(out, FingerprintStreamed{
			RecipientID:    r.ID,
			KeyFingerprint: r.Key.Fingerprint(),
			Streamed:       st.res,
		})
	}
	return out, nil
}
