package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
)

// ---- set-up and timed loops -------------------------------------------

// repeatSetup runs build reps times and returns the last result with
// the median build time in seconds. Repeating the set-up makes setup_s
// a median, not one sample.
func repeatSetup[T any](reps int, build func() (T, error)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, since(start))
		last = v
	}
	return last, median(times), nil
}

// loopStats is what a timed loop measured.
type loopStats struct {
	durations []float64 // seconds per operation
	peakHeap  float64   // median over operations of each one's peak, bytes
}

// timedLoop runs op until at least seconds have passed (and at least
// once), timing each call and sampling the heap throughout. Operations
// record their own failures, and the loop goes on after one.
func timedLoop(seconds float64, op func() error) loopStats {
	runtime.GC()
	hs := startHeapSampler()
	defer hs.stop()
	var st loopStats
	var peaks []float64
	start := time.Now()
	for len(st.durations) == 0 || since(start) < seconds {
		t := time.Now()
		_ = op() // the operation has recorded its failure in the report
		st.durations = append(st.durations, since(t))
		peaks = append(peaks, float64(hs.next()))
	}
	st.peakHeap = median(peaks)
	return st
}

// ---- statistics --------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for no samples),
// except that the median of an even count averages the middle pair.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(rank, 0)]
}

const mib = 1 << 20

// ---- heap sampling and runtime counters --------------------------------

// heapSampler records the peak of the live heap while it runs: the heap
// the collector found reachable at the end of its latest cycle. Unlike
// the allocated heap it does not swing with the collector's timing, so
// its peak measures the working set a streaming call keeps.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	quit chan struct{}
	done chan struct{}
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.mu.Lock()
	h.peak = max(h.peak, s[0].Value.Uint64())
	h.mu.Unlock()
}

// next returns the peak since the previous call, or since the start,
// and starts the next interval.
func (h *heapSampler) next() uint64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	peak := h.peak
	h.peak = 0
	return peak
}

// stop ends sampling and returns the peak since the last next.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.next()
}

// allocCounter reads the cumulative heap allocation counters.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

// read returns the bytes and objects allocated so far.
func (a *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// gcState is a snapshot of the collector's totals.
type gcState struct {
	cycles uint64
	pause  time.Duration
}

func readGC() gcState {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var st debug.GCStats
	debug.ReadGCStats(&st)
	return gcState{cycles: s[0].Value.Uint64(), pause: st.PauseTotal}
}

// ---- spans -------------------------------------------------------------

// span is one timed call into a layer, made on the benchmark's own
// goroutine. Spans nest: parent is the index of the enclosing span, -1
// at the top.
type span struct {
	name                     string
	parent                   int
	start, end               time.Time
	allocBytes, allocObjects uint64
}

// tracer keeps the spans of one traced run in memory.
type tracer struct {
	spans  []span
	open   []int
	allocs *allocCounter
	ab, ao []uint64 // allocation counters at each open span's start
}

func newTracer() *tracer { return &tracer{allocs: newAllocCounter()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	b, o := t.allocs.read()
	t.ab = append(t.ab, b)
	t.ao = append(t.ao, o)
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	s.end = time.Now()
	b, o := t.allocs.read()
	s.allocBytes, s.allocObjects = b-t.ab[n], o-t.ao[n]
	t.open, t.ab, t.ao = t.open[:n], t.ab[:n], t.ao[:n]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	t.begin(name)
	defer t.end()
	return fn()
}

// total sums the durations of the spans called name, in seconds.
func (t *tracer) total(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d.Seconds()
}

// allocated sums the bytes and objects allocated inside spans called
// name.
func (t *tracer) allocated(name string) (bytes, objects uint64) {
	for _, s := range t.spans {
		if s.name == name {
			bytes += s.allocBytes
			objects += s.allocObjects
		}
	}
	return bytes, objects
}

// self sums, over the spans called name, each span's duration minus the
// durations of its direct children, in seconds.
func (t *tracer) self(name string) float64 {
	var d time.Duration
	for i, s := range t.spans {
		if s.name != name {
			continue
		}
		d += s.end.Sub(s.start)
		for _, c := range t.spans[i+1:] {
			if c.parent == i {
				d -= c.end.Sub(c.start)
			}
		}
	}
	return d.Seconds()
}

// tracedSegments wraps a segment source and records a span around every
// Next call.
type tracedSegments struct {
	src  core.Segments
	tr   *tracer
	name string
}

func (s *tracedSegments) Schema() *relation.Schema { return s.src.Schema() }

func (s *tracedSegments) Next() (*relation.Table, error) {
	s.tr.begin(s.name)
	defer s.tr.end()
	return s.src.Next()
}

// ---- host facts ----------------------------------------------------------

// hostFacts describes where a number came from.
func hostFacts(root string) map[string]any {
	commit := os.Getenv("MEDBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
