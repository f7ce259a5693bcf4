package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleJob(id string, created time.Time) Job {
	return Job{
		ID:          id,
		Kind:        "protect",
		State:       StateQueued,
		MaxAttempts: 3,
		CreatedAt:   created,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	j1 := sampleJob("j-aaaa", base.Add(time.Minute))
	j1.IdempotencyKey = "k1"
	j1.Request = []byte(`{"table":"x"}`)
	j2 := sampleJob("j-bbbb", base)
	j2.State = StateSucceeded
	j2.Result = []byte(`{"rows":5}`)
	j2.FinishedAt = base.Add(time.Hour)
	j2.Deliveries = []Delivery{{Attempt: 1, At: base, Status: 200, OK: true}}
	j2.WebhookOK = true
	for _, j := range []Job{j1, j2} {
		if err := s.Put(j); err != nil {
			t.Fatal(err)
		}
	}

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("store file mode = %v, want 0600 (requests embed secrets)", info.Mode().Perm())
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded %d jobs, want 2", re.Len())
	}
	got, ok := re.Get("j-aaaa")
	if !ok || got.IdempotencyKey != "k1" {
		t.Fatalf("j-aaaa round-trip mismatch: %+v", got)
	}
	// Persisting re-indents embedded raw JSON; compare compacted.
	var req bytes.Buffer
	if err := json.Compact(&req, got.Request); err != nil {
		t.Fatal(err)
	}
	if req.String() != `{"table":"x"}` {
		t.Fatalf("request round-trip = %s", req.String())
	}
	got2, _ := re.Get("j-bbbb")
	if got2.State != StateSucceeded || !got2.WebhookOK || len(got2.Deliveries) != 1 {
		t.Fatalf("j-bbbb round-trip mismatch: %+v", got2)
	}
	// List is oldest-first (recovery enqueue order).
	list := re.List()
	if list[0].ID != "j-bbbb" || list[1].ID != "j-aaaa" {
		t.Fatalf("list order = [%s %s], want oldest first", list[0].ID, list[1].ID)
	}
}

func TestStoreVersionGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte(`{"jobs_version": 99, "jobs": []}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestStoreRejectsUnknownFieldsAndDuplicates(t *testing.T) {
	dir := t.TempDir()
	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"jobs_version": 1, "jobs": [], "surprise": true}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(unknown); err == nil {
		t.Fatal("unknown top-level field accepted")
	}

	dup := filepath.Join(dir, "dup.json")
	doc := `{"jobs_version": 1, "jobs": [
		{"id":"j-1","kind":"protect","state":"queued","attempts":0,"max_attempts":3,"created_at":"2026-08-07T09:00:00Z"},
		{"id":"j-1","kind":"protect","state":"queued","attempts":0,"max_attempts":3,"created_at":"2026-08-07T09:00:00Z"}
	]}`
	if err := os.WriteFile(dup, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate job IDs accepted: %v", err)
	}
}

func TestStoreMissingFileAndInMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Path() != path {
		t.Fatalf("fresh store: len=%d path=%q", s.Len(), s.Path())
	}

	mem := NewStore()
	if err := mem.Put(sampleJob("j-mem", time.Now())); err != nil {
		t.Fatal(err)
	}
	if mem.Path() != "" {
		t.Fatal("in-memory store has a path")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Open created a file before any Put")
	}
}

func TestStorePutValidates(t *testing.T) {
	s := NewStore()
	bad := sampleJob("", time.Now())
	if err := s.Put(bad); err == nil {
		t.Fatal("job without ID accepted")
	}
	bad = sampleJob("j-x", time.Now())
	bad.State = "limbo"
	if err := s.Put(bad); err == nil {
		t.Fatal("job with invalid state accepted")
	}
}

// TestStoreTrailingData: Open accepts only whitespace after the
// document; a stray closing bracket or brace must not load.
func TestStoreTrailingData(t *testing.T) {
	const doc = `{"jobs_version":1,"jobs":[]}`
	for _, tc := range []struct {
		name, tail string
		ok         bool
	}{
		{"bracket", "]", false},
		{"brace", "}", false},
		{"letter", "x", false},
		{"whitespace", " \t\r\n ", true},
		{"newline", "\n", true},
	} {
		path := filepath.Join(t.TempDir(), "jobs.json")
		if err := os.WriteFile(path, []byte(doc+tc.tail), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); (err == nil) != tc.ok {
			t.Errorf("%s: Open = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// FuzzJobsOpen feeds arbitrary bytes to Open as a store file. Open must
// never panic, and a store it loads must survive one persist and
// reopen: the reopened store persists to the same bytes.
func FuzzJobsOpen(f *testing.F) {
	f.Add([]byte(`{"jobs_version":1,"jobs":[{"id":"j-1","kind":"protect","state":"queued","attempts":0,` +
		`"max_attempts":3,"created_at":"2026-08-07T09:00:00Z","request":{"table":"x"}}]}`))
	f.Add([]byte(`{"jobs_version":1,"jobs":[]}]`))
	// One file per fuzz process: inputs run one at a time in each.
	path := filepath.Join(f.TempDir(), "jobs.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			return
		}
		first := persistAndRead(t, s)
		re, err := Open(path)
		if err != nil {
			t.Fatalf("reopening a persisted store: %v", err)
		}
		if re.Len() != s.Len() {
			t.Fatalf("reopened %d jobs, want %d", re.Len(), s.Len())
		}
		if second := persistAndRead(t, re); !bytes.Equal(first, second) {
			t.Fatalf("persist is not a fixed point:\n%s\nvs\n%s", first, second)
		}
	})
}

// persistAndRead writes s to its file and returns the file's bytes.
func persistAndRead(t *testing.T, s *FileStore) []byte {
	t.Helper()
	s.mu.Lock()
	err := s.persistLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("persisting a loaded store: %v", err)
	}
	data, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	return data
}
