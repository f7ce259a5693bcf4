package tenant

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNewTokenShape(t *testing.T) {
	token, hash := NewToken()
	if !strings.HasPrefix(token, "mst_") {
		t.Fatalf("token %q lacks the mst_ prefix", token)
	}
	if len(token) != len("mst_")+32 {
		t.Fatalf("token %q has length %d, want %d", token, len(token), len("mst_")+32)
	}
	if hash != HashToken(token) {
		t.Fatalf("NewToken hash %q != HashToken(token) %q", hash, HashToken(token))
	}
	token2, _ := NewToken()
	if token == token2 {
		t.Fatal("two NewToken calls returned the same token")
	}
}

func TestRecordValidate(t *testing.T) {
	_, hash := NewToken()
	good := Record{ID: "a", Role: RoleMember, TokenSHA256: hash}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []Record{
		{Role: RoleMember, TokenSHA256: hash},                     // empty ID
		{ID: "a\x00b", Role: RoleMember, TokenSHA256: hash},       // NUL in ID
		{ID: "a", Role: "superuser", TokenSHA256: hash},           // bad role
		{ID: "a", Role: RoleMember, TokenSHA256: "abc"},           // short hash
		{ID: "a", Role: RoleMember, TokenSHA256: hash[:63] + "z"}, // non-hex
	}
	for i, rec := range cases {
		if err := rec.Validate(); err == nil {
			t.Errorf("case %d: invalid record %+v accepted", i, rec)
		}
	}
}

func TestAuthenticate(t *testing.T) {
	s := New()
	tokA, hashA := NewToken()
	tokB, hashB := NewToken()
	if err := s.Put(Record{ID: "a", Role: RoleAdmin, TokenSHA256: hashA}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{ID: "b", Role: RoleMember, TokenSHA256: hashB, Disabled: true}); err != nil {
		t.Fatal(err)
	}

	rec, ok := s.Authenticate(tokA)
	if !ok || rec.ID != "a" || rec.Role != RoleAdmin {
		t.Fatalf("Authenticate(tokA) = %+v, %v; want tenant a", rec, ok)
	}
	// Disabled tenants still resolve; the caller decides 403 vs 401.
	rec, ok = s.Authenticate(tokB)
	if !ok || rec.ID != "b" || !rec.Disabled {
		t.Fatalf("Authenticate(tokB) = %+v, %v; want disabled tenant b", rec, ok)
	}
	if _, ok := s.Authenticate("mst_deadbeefdeadbeefdeadbeefdeadbeef"); ok {
		t.Fatal("unknown token authenticated")
	}
	if _, ok := s.Authenticate(""); ok {
		t.Fatal("empty token authenticated")
	}
}

func TestStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tok, hash := NewToken()
	rec := Record{
		ID: "clinic", Name: "Clinic", Role: RoleMember, TokenSHA256: hash,
		Quota:     Quota{RequestsPerMinute: 120, MaxRowsPerRequest: 50000, MaxActiveJobs: 4},
		CreatedAt: "2026-08-07T00:00:00Z",
	}
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}

	// Reopen: the record round-trips and the token still authenticates.
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("clinic")
	if !ok || got != rec {
		t.Fatalf("reloaded record = %+v, %v; want %+v", got, ok, rec)
	}
	if r, ok := s2.Authenticate(tok); !ok || r.ID != "clinic" {
		t.Fatalf("token does not authenticate after reload: %+v, %v", r, ok)
	}

	// The store file must never hold the plaintext token, only its hash.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), tok) {
		t.Fatal("plaintext token written to the store file")
	}
	if !strings.Contains(string(data), hash) {
		t.Fatal("token hash missing from the store file")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("store file mode = %v, %v; want 0600", fi.Mode().Perm(), err)
	}
}

func TestRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	oldTok, oldHash := NewToken()
	if err := s.Put(Record{ID: "a", Role: RoleMember, TokenSHA256: oldHash}); err != nil {
		t.Fatal(err)
	}
	newTok, err := s.Rotate("a", "2026-08-07T01:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	if newTok == oldTok {
		t.Fatal("Rotate returned the old token")
	}
	if _, ok := s.Authenticate(oldTok); ok {
		t.Fatal("old token still authenticates after rotation")
	}
	if r, ok := s.Authenticate(newTok); !ok || r.ID != "a" || r.RotatedAt != "2026-08-07T01:00:00Z" {
		t.Fatalf("new token does not authenticate: %+v, %v", r, ok)
	}
	if _, err := s.Rotate("missing", ""); err == nil {
		t.Fatal("Rotate of an unknown tenant succeeded")
	}
}

func TestDelete(t *testing.T) {
	s := New()
	tok, hash := NewToken()
	if err := s.Put(Record{ID: "a", Role: RoleMember, TokenSHA256: hash}); err != nil {
		t.Fatal(err)
	}
	if had, err := s.Delete("a"); err != nil || !had {
		t.Fatalf("Delete = %v, %v; want true, nil", had, err)
	}
	if _, ok := s.Authenticate(tok); ok {
		t.Fatal("deleted tenant's token still authenticates")
	}
	if had, err := s.Delete("a"); err != nil || had {
		t.Fatalf("second Delete = %v, %v; want false, nil", had, err)
	}
}

func TestOpenRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	_, hash := NewToken()
	cases := map[string]string{
		"version": `{"tenants_version": 99, "tenants": []}`,
		"dup": `{"tenants_version": 1, "tenants": [` +
			`{"id":"a","role":"member","token_sha256":"` + hash + `"},` +
			`{"id":"a","role":"member","token_sha256":"` + hash + `"}]}`,
		"badrole":  `{"tenants_version": 1, "tenants": [{"id":"a","role":"root","token_sha256":"` + hash + `"}]}`,
		"unknown":  `{"tenants_version": 1, "tenants": [], "extra": true}`,
		"trailing": `{"tenants_version": 1, "tenants": []}{}`,
	}
	for name, body := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Errorf("%s: Open accepted a bad file", name)
		}
	}
}

// TestOpenTrailingData: Open accepts only whitespace after the
// document; a stray closing bracket or brace must not load.
func TestOpenTrailingData(t *testing.T) {
	const doc = `{"tenants_version":1,"tenants":[]}`
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
		path := filepath.Join(t.TempDir(), "tenants.json")
		if err := os.WriteFile(path, []byte(doc+tc.tail), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); (err == nil) != tc.ok {
			t.Errorf("%s: Open = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// FuzzTenantOpen feeds arbitrary bytes to Open as a tenant store file.
// Open must never panic, and a store it loads must survive one persist
// and reopen: the reopened store persists to the same bytes.
func FuzzTenantOpen(f *testing.F) {
	_, hash := NewToken()
	f.Add([]byte(`{"tenants_version":1,"tenants":[{"id":"clinic","name":"Clinic","role":"member","token_sha256":"` + hash +
		`","quota":{"requests_per_minute":120},"created_at":"2026-08-07T00:00:00Z"}]}`))
	f.Add([]byte(`{"tenants_version":1,"tenants":[]}]`))
	// One file per fuzz process: inputs run one at a time in each.
	path := filepath.Join(f.TempDir(), "tenants.json")
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
			t.Fatalf("reopened %d tenants, want %d", re.Len(), s.Len())
		}
		if second := persistAndRead(t, re); !bytes.Equal(first, second) {
			t.Fatalf("persist is not a fixed point:\n%s\nvs\n%s", first, second)
		}
	})
}

// persistAndRead writes s to its file and returns the file's bytes.
func persistAndRead(t *testing.T, s *Store) []byte {
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

func TestEffectiveBurst(t *testing.T) {
	cases := []struct {
		q    Quota
		want int
	}{
		{Quota{}, 1},
		{Quota{RequestsPerMinute: 5}, 1},
		{Quota{RequestsPerMinute: 600}, 100},
		{Quota{RequestsPerMinute: 600, Burst: 7}, 7},
	}
	for _, c := range cases {
		if got := c.q.EffectiveBurst(); got != c.want {
			t.Errorf("EffectiveBurst(%+v) = %d, want %d", c.q, got, c.want)
		}
	}
}
