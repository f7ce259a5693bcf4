package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check
// against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyRun runs one workload at the tiny size and returns the exit code,
// the parsed result line and standard error.
func tinyRun(t *testing.T, workload string, trace, corrupt bool) (int, result, string) {
	t.Helper()
	cfg := config{
		workload: workload, seed: defaultSeed, seconds: 0.1, trace: trace,
		root: "..", workDir: t.TempDir(), size: tinySize, corrupt: corrupt,
	}
	var stdout, stderr bytes.Buffer
	code := runConfig(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v (stderr %s)", workload, lines[len(lines)-1], err, stderr.String())
	}
	return code, res, stderr.String()
}

// TestTinyRunsReportEveryMetric runs every workload of BENCHMARK.json
// at the tiny size, untraced and traced, and checks that each prints
// every metric the file names, with its unit, and passes its checks.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			code, res, stderr := tinyRun(t, w.Name, trace, false)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v, stderr %s", w.Name, trace, code, res, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestMetricListsMatchBenchmarkFile keeps the Go metric lists and
// BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, c := range []struct {
		defs []metricDef
		file []struct{ Name, Unit string }
	}{{endToEnd, bf.EndToEnd}, {perLayer, bf.PerLayer}} {
		if len(c.defs) != len(c.file) {
			t.Fatalf("Go lists %d metrics, BENCHMARK.json %d", len(c.defs), len(c.file))
		}
		for i, d := range c.defs {
			if d.name != c.file[i].Name || d.unit != c.file[i].Unit {
				t.Errorf("metric %d: Go %s (%s), BENCHMARK.json %s (%s)", i, d.name, d.unit, c.file[i].Name, c.file[i].Unit)
			}
		}
	}
}

// TestCorruptedOutputTripsGate flips one bit of each workload's output
// and expects the correctness gate to fail the run.
func TestCorruptedOutputTripsGate(t *testing.T) {
	for name := range workloads {
		code, res, _ := tinyRun(t, name, false, true)
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted output: exit %d, result %+v; want a failed run", name, code, res)
		}
	}
}

func TestRelabel(t *testing.T) {
	got, err := relabel("123-34-9999", 3, 250000)
	if err != nil {
		t.Fatal(err)
	}
	// Row 249999 of copy 3 is row 999999.
	if want := "123-109-9999"; got != want {
		t.Errorf("relabel = %q, want %q", got, want)
	}
	if _, err := relabel("not-an-ssn", 1, 10); err == nil {
		t.Error("relabel accepted a malformed identifier")
	}
}
