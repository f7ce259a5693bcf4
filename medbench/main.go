// Command medbench is the repository's benchmark: it runs one named
// workload of the medshield pipeline from outside, through the public
// functions of medshield/core, binning, watermark, relation, crypt and
// the server's HTTP handler, checks that the outputs are correct, and
// prints every metric by name with its unit.
//
//	medbench --workload release|apply|leak-triage|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics of a traced
// run. The line before it reports the host, the sample counts and the
// output digests. README.md explains each workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// sizes fixes the input sizes of every workload. Digests are pinned per
// size name, for the default seed.
type sizes struct {
	name string
	// releaseRows is the table the release workload plans and applies.
	releaseRows int
	// baseRows is the table apply and leak-triage freeze their plan over;
	// their input is copies relabelled copies of it.
	baseRows, copies int
	// candidates registered for leak-triage, and the fraction of the
	// leaked rows the attacker alters.
	candidates int
	alterFrac  float64
	// svcRows is the table size of every service request, svcPreload the
	// registry records loaded before the clients start, svcRecipients
	// the new recipients of each fingerprint call and svcIters the fixed
	// number of iterations of each client.
	svcRows, svcPreload, svcRecipients, svcIters int
	// setupReps is how many times the set-up runs; setup_s is the median.
	setupReps int
}

var (
	fullSize = sizes{
		name: "full", releaseRows: 250000, baseRows: 62500, copies: 16,
		candidates: 50, alterFrac: 0.1,
		svcRows: 1000, svcPreload: 2000, svcRecipients: 4, svcIters: 12,
		setupReps: 3,
	}
	tinySize = sizes{
		name: "tiny", releaseRows: 3000, baseRows: 3000, copies: 2,
		candidates: 5, alterFrac: 0.1,
		svcRows: 1000, svcPreload: 20, svcRecipients: 2, svcIters: 1,
		setupReps: 2,
	}
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository root, workDir the directory the run's
	// files go to (removed at exit).
	root, workDir string
	size          sizes
	// corrupt flips one bit of each workload's output before it is
	// checked; the tests use it to prove the correctness gate trips.
	corrupt bool
}

const defaultSeed = 1

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: the result counters, the
// metrics of the requested mode, the failed checks and the details the
// info line prints.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	samples           int
	digests           map[string]string
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

var workloads = map[string]func(context.Context, config) (*report, error){
	"release":     runRelease,
	"apply":       runApply,
	"leak-triage": runLeakTriage,
	"service":     runService,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the exit code: 0 only when
// every check passed.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "medbench: %v\n", err)
		return 2
	}
	return runConfig(cfg, stdout, stderr)
}

// runConfig runs one configured workload and prints its result.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	rep, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "medbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "medbench: %s: check failed: %s\n", cfg.workload, p)
	}
	res := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	if err := printResult(stdout, cfg, rep, res); err != nil {
		fmt.Fprintf(stderr, "medbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("medbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: release, apply, leak-triage or service")
	seed := fs.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	root := fs.String("root", ".", "repository root (its sources are digested into the report)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[*workload]; !ok {
		return config{}, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		root:     *root,
		size:     fullSize,
	}, nil
}

// execute runs the workload in a fresh work directory under the
// repository's .bench_build and removes it afterwards.
func execute(ctx context.Context, cfg config) (*report, error) {
	if cfg.workDir == "" {
		parent := filepath.Join(cfg.root, ".bench_build")
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(parent, "run-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.workDir = dir
	}
	return workloads[cfg.workload](ctx, cfg)
}

// printResult writes the info line and then the result line.
func printResult(w io.Writer, cfg config, rep *report, res result) error {
	failedFrac := 0.0
	if res.Attempted > 0 {
		failedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	problems := rep.problems
	if problems == nil {
		problems = []string{}
	}
	info := map[string]any{
		"medbench": map[string]any{
			"workload":    cfg.workload,
			"seed":        cfg.seed,
			"seconds":     cfg.seconds,
			"trace":       cfg.trace,
			"size":        cfg.size.name,
			"host":        hostFacts(cfg.root),
			"samples":     rep.samples,
			"failed_frac": failedFrac,
			"digests":     rep.digests,
			"problems":    problems,
		},
	}
	for _, v := range []any{info, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

// checkDigest compares a digest with the one pinned for the default
// seed at this size; other seeds have no pinned value.
func checkDigest(cfg config, rep *report, name, got string) {
	if rep.digests == nil {
		rep.digests = make(map[string]string)
	}
	rep.digests[name] = got
	if cfg.seed != defaultSeed {
		return
	}
	want, ok := pinnedDigests[cfg.size.name+"/"+name]
	if !ok {
		rep.problems = append(rep.problems, fmt.Sprintf("no digest pinned for %s/%s", cfg.size.name, name))
		return
	}
	if got != want {
		rep.fail("%s digest %s, pinned %s", name, got, want)
	}
}

// errFailed marks an operation whose failure the report already holds.
var errFailed = errors.New("operation failed")

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
