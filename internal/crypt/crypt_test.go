package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// refSum is the reference PRF: crypto/hmac over the length-prefixed
// parts.
func refSum(key []byte, parts ...[]byte) []byte {
	mac := hmac.New(sha256.New, key)
	var lenBuf [8]byte
	for _, part := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(part)))
		mac.Write(lenBuf[:])
		mac.Write(part)
	}
	return mac.Sum(nil)
}

// refCipher is the reference cipher: the same SIV construction built
// from crypto/hmac and crypto/cipher's CTR mode.
type refCipher struct {
	block         cipher.Block
	ivKey, tagKey []byte
}

func newRefCipher(t testing.TB, master []byte) refCipher {
	t.Helper()
	block, err := aes.NewCipher(refSum(master, []byte("medshield/enc/v1")))
	if err != nil {
		t.Fatal(err)
	}
	return refCipher{
		block:  block,
		ivKey:  refSum(master, []byte("medshield/iv/v1")),
		tagKey: refSum(master, []byte("medshield/tag/v1")),
	}
}

func (r refCipher) encrypt(plaintext []byte) []byte {
	iv := refSum(r.ivKey, plaintext)[:aes.BlockSize]
	out := make([]byte, aes.BlockSize+len(plaintext)+tagLen)
	copy(out, iv)
	cipher.NewCTR(r.block, iv).XORKeyStream(out[aes.BlockSize:aes.BlockSize+len(plaintext)], plaintext)
	copy(out[aes.BlockSize+len(plaintext):], refSum(r.tagKey, out[:aes.BlockSize+len(plaintext)])[:tagLen])
	return out
}

func (r refCipher) encryptString(plaintext string) string {
	return base64.RawURLEncoding.EncodeToString(r.encrypt([]byte(plaintext)))
}

// testBytes returns n deterministic, non-repeating-looking bytes.
func testBytes(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131+7) ^ salt
	}
	return b
}

// TestPRFMatchesHMAC pins PRF.Sum and Uint64 to crypto/hmac across the
// key lengths that take the padded and the hashed-key branches and the
// message lengths that cross SHA-256's 55/64-byte padding boundaries.
func TestPRFMatchesHMAC(t *testing.T) {
	for _, keyLen := range []int{0, 1, 32, 64, 65, 200} {
		key := testBytes(keyLen, 0x5a)
		p := NewPRF(key)
		for n := 0; n <= 100; n++ {
			msg := testBytes(n, byte(keyLen))
			want := refSum(key, msg)
			if got := p.Sum(msg); !bytes.Equal(got, want) {
				t.Fatalf("key %d msg %d: Sum = %x, want %x", keyLen, n, got, want)
			}
			if got, want := p.Uint64(msg), binary.BigEndian.Uint64(want); got != want {
				t.Fatalf("key %d msg %d: Uint64 = %d, want %d", keyLen, n, got, want)
			}
			parts := [][]byte{msg[:n/3], nil, msg[n/3:], []byte("pos")}
			if got, want := p.Sum(parts...), refSum(key, parts...); !bytes.Equal(got, want) {
				t.Fatalf("key %d msg %d: multi-part Sum = %x, want %x", keyLen, n, got, want)
			}
		}
		if got, want := p.Sum(), refSum(key); !bytes.Equal(got, want) {
			t.Fatalf("key %d: empty Sum = %x, want %x", keyLen, got, want)
		}
	}
}

// TestCipherMatchesReference pins Encrypt and EncryptString to the
// crypto/hmac + crypto/cipher construction for plaintexts that cross
// the 16-byte CTR block and the SHA-256 padding boundaries.
func TestCipherMatchesReference(t *testing.T) {
	for _, keyLen := range []int{0, 1, 32, 64, 65, 200} {
		master := testBytes(keyLen, 0xa5)
		c, err := NewCipher(master)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCipher(t, master)
		for n := 0; n <= 100; n++ {
			pt := testBytes(n, byte(keyLen))
			want := ref.encrypt(pt)
			if got := c.Encrypt(pt); !bytes.Equal(got, want) {
				t.Fatalf("key %d pt %d: Encrypt = %x, want %x", keyLen, n, got, want)
			}
			tok := c.EncryptString(string(pt))
			if want := ref.encryptString(string(pt)); tok != want {
				t.Fatalf("key %d pt %d: EncryptString = %s, want %s", keyLen, n, tok, want)
			}
			back, err := c.DecryptString(tok)
			if err != nil || back != string(pt) {
				t.Fatalf("key %d pt %d: DecryptString = %q, %v", keyLen, n, back, err)
			}
		}
	}
}

// TestPRFAllocations pins the hot-loop contract: selection and position
// addressing allocate nothing, and EncryptString allocates only the
// token it returns.
func TestPRFAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := NewPRF([]byte("selection-key"))
	ident := []byte("Vh2n3yq0x6Qm1oGqk3qQ2c0m1YxJwq1Hk5Lr0b7aA8Zc")
	col := "zip_code"
	cases := map[string]func(){
		"Uint64":  func() { _ = p.Uint64(ident) },
		"Mod":     func() { _ = p.Mod(75, ident, []byte("pos"), []byte(col)) },
		"Selects": func() { _ = p.Selects(ident, 75) },
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
	c, err := NewCipher([]byte("master"))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _ = c.EncryptString("123-45-6789") }); n > 1 {
		t.Errorf("EncryptString: %v allocs per call, want <= 1", n)
	}
}

// TestCipherConcurrent runs EncryptString and Selects from several
// goroutines on one cipher and one PRF at once; each result must match
// the reference, so pooled scratch never leaks between callers.
func TestCipherConcurrent(t *testing.T) {
	master := []byte("concurrent-master")
	c, err := NewCipher(master)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCipher(t, master)
	selKey := []byte("selection-key")
	p := NewPRF(selKey)
	const eta = 7
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				pt := fmt.Sprintf("patient-%d-%d-%s", g, i, testBytes(i%40, byte(g)))
				if got, want := c.EncryptString(pt), ref.encryptString(pt); got != want {
					errs <- fmt.Errorf("goroutine %d: EncryptString(%q) = %s, want %s", g, pt, got, want)
					return
				}
				want := binary.BigEndian.Uint64(refSum(selKey, []byte(pt)))%eta == 0
				if got := p.Selects([]byte(pt), eta); got != want {
					errs <- fmt.Errorf("goroutine %d: Selects(%q) = %v, want %v", g, pt, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkEncryptString(b *testing.B) {
	c, err := NewCipher([]byte("master"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		c.EncryptString("123-45-6789")
	}
}

func BenchmarkPRFSelects(b *testing.B) {
	p := NewPRF([]byte("selection-key"))
	ident := []byte("Vh2n3yq0x6Qm1oGqk3qQ2c0m1YxJwq1Hk5Lr0b7aA8Zc")
	b.ReportAllocs()
	for b.Loop() {
		p.Selects(ident, 75)
	}
}

// FuzzDecryptString feeds arbitrary tokens to the ciphertext parser:
// it must never panic and must fail only with ErrCiphertextFormat or
// ErrAuthentication; a successful decrypt must agree with the
// reference; and every input, taken as a plaintext, must encrypt to the
// reference token and round-trip.
//
// The agreement is checked on the decoded bytes, not on the token: the
// base64 decoder skips CR and LF and ignores the unused bits of the
// last character, so several token strings decode to one ciphertext.
func FuzzDecryptString(f *testing.F) {
	master := []byte("fuzz-master")
	c, err := NewCipher(master)
	if err != nil {
		f.Fatal(err)
	}
	ref := newRefCipher(f, master)
	for _, pt := range []string{"", "a", "123-45-6789", string(testBytes(55, 1)), string(testBytes(100, 2))} {
		tok := c.EncryptString(pt)
		f.Add(tok)
		f.Add(tok[:len(tok)/2])
		f.Add(tok + "A")
		f.Add(tok + "\n")
		f.Add(tok[:len(tok)-1] + "_")
		f.Add(pt)
	}
	f.Add("!!! not base64 !!!")
	f.Fuzz(func(t *testing.T, token string) {
		pt, err := c.DecryptString(token)
		if err != nil {
			if !errors.Is(err, ErrCiphertextFormat) && !errors.Is(err, ErrAuthentication) {
				t.Fatalf("DecryptString(%q): unexpected error class %v", token, err)
			}
		} else if raw, _ := base64.RawURLEncoding.DecodeString(token); !bytes.Equal(raw, ref.encrypt([]byte(pt))) {
			t.Fatalf("DecryptString(%q) = %q, which does not encrypt back to the token", token, pt)
		}
		tok := c.EncryptString(token)
		if want := ref.encryptString(token); tok != want {
			t.Fatalf("EncryptString(%q) = %s, want %s", token, tok, want)
		}
		back, err := c.DecryptString(tok)
		if err != nil || back != token {
			t.Fatalf("round trip of %q: %q, %v", token, back, err)
		}
	})
}

func TestPRFDeterministic(t *testing.T) {
	p := NewPRF([]byte("key"))
	a := p.Sum([]byte("hello"))
	b := p.Sum([]byte("hello"))
	if !bytes.Equal(a, b) {
		t.Fatal("PRF not deterministic")
	}
	if len(a) != 32 {
		t.Fatalf("sum length = %d, want 32", len(a))
	}
}

func TestPRFKeySeparation(t *testing.T) {
	a := NewPRF([]byte("k1")).Sum([]byte("x"))
	b := NewPRF([]byte("k2")).Sum([]byte("x"))
	if bytes.Equal(a, b) {
		t.Fatal("different keys produced equal digests")
	}
}

func TestPRFPartsAreUnambiguous(t *testing.T) {
	p := NewPRF([]byte("key"))
	// ("ab","c") must differ from ("a","bc") — length prefixing.
	if bytes.Equal(p.Sum([]byte("ab"), []byte("c")), p.Sum([]byte("a"), []byte("bc"))) {
		t.Fatal("part boundaries are ambiguous")
	}
	// ("x") must differ from ("x","").
	if bytes.Equal(p.Sum([]byte("x")), p.Sum([]byte("x"), nil)) {
		t.Fatal("empty trailing part is ambiguous")
	}
}

func TestPRFModPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPRF([]byte("k")).Mod(0, []byte("x"))
}

func TestSelectsFraction(t *testing.T) {
	p := NewPRF([]byte("selection-key"))
	const n = 20000
	const eta = 50
	hits := 0
	for i := 0; i < n; i++ {
		ident := []byte{byte(i), byte(i >> 8), byte(i >> 16)}
		if p.Selects(ident, eta) {
			hits++
		}
	}
	want := float64(n) / float64(eta)
	got := float64(hits)
	// within 25% relative error — binomial std-dev is ~20 here
	if math.Abs(got-want) > 0.25*want {
		t.Fatalf("selection rate %v, want about %v", got, want)
	}
}

func TestSelectsEtaEdge(t *testing.T) {
	p := NewPRF([]byte("k"))
	if p.Selects([]byte("x"), 0) {
		t.Error("eta=0 must select nothing")
	}
	if !p.Selects([]byte("x"), 1) {
		t.Error("eta=1 must select everything")
	}
}

func TestCipherRoundtrip(t *testing.T) {
	c, err := NewCipher([]byte("master"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []string{"", "a", "123-45-6789", "a longer identifying value with spaces"} {
		tok := c.EncryptString(pt)
		back, err := c.DecryptString(tok)
		if err != nil {
			t.Fatalf("decrypt %q: %v", pt, err)
		}
		if back != pt {
			t.Fatalf("roundtrip %q -> %q", pt, back)
		}
	}
}

func TestCipherDeterministicOneToOne(t *testing.T) {
	c, err := NewCipher([]byte("master"))
	if err != nil {
		t.Fatal(err)
	}
	a := c.EncryptString("ssn-001")
	b := c.EncryptString("ssn-001")
	d := c.EncryptString("ssn-002")
	if a != b {
		t.Error("encryption not deterministic")
	}
	if a == d {
		t.Error("distinct plaintexts collided")
	}
}

func TestCipherKeySeparation(t *testing.T) {
	c1, _ := NewCipher([]byte("master-1"))
	c2, _ := NewCipher([]byte("master-2"))
	tok := c1.EncryptString("ssn-001")
	if _, err := c2.DecryptString(tok); !errors.Is(err, ErrAuthentication) {
		t.Fatalf("wrong-key decrypt error = %v, want ErrAuthentication", err)
	}
}

func TestCipherTamperDetection(t *testing.T) {
	c, _ := NewCipher([]byte("master"))
	raw := c.Encrypt([]byte("patient-7"))
	for i := 0; i < len(raw); i++ {
		mut := make([]byte, len(raw))
		copy(mut, raw)
		mut[i] ^= 0x01
		if _, err := c.Decrypt(mut); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestCipherShortCiphertext(t *testing.T) {
	c, _ := NewCipher([]byte("master"))
	if _, err := c.Decrypt([]byte("short")); !errors.Is(err, ErrCiphertextFormat) {
		t.Fatalf("error = %v, want ErrCiphertextFormat", err)
	}
	if _, err := c.DecryptString("!!! not base64 !!!"); !errors.Is(err, ErrCiphertextFormat) {
		t.Fatalf("error = %v, want ErrCiphertextFormat", err)
	}
}

func TestWatermarkKeyDerivation(t *testing.T) {
	k := NewWatermarkKeyFromSecret("hospital-secret", 75)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	k2 := NewWatermarkKeyFromSecret("hospital-secret", 75)
	if !bytes.Equal(k.K1, k2.K1) || !bytes.Equal(k.K2, k2.K2) || !bytes.Equal(k.Enc, k2.Enc) {
		t.Error("derivation not deterministic")
	}
	other := NewWatermarkKeyFromSecret("different", 75)
	if bytes.Equal(k.K1, other.K1) {
		t.Error("different secrets collided")
	}
	if bytes.Equal(k.K1, k.K2) {
		t.Error("K1 must differ from K2")
	}
}

func TestWatermarkKeyValidate(t *testing.T) {
	cases := []struct {
		name string
		k    WatermarkKey
	}{
		{"empty K1", WatermarkKey{K2: []byte("b"), Eta: 1}},
		{"empty K2", WatermarkKey{K1: []byte("a"), Eta: 1}},
		{"equal keys", WatermarkKey{K1: []byte("a"), K2: []byte("a"), Eta: 1}},
		{"zero eta", WatermarkKey{K1: []byte("a"), K2: []byte("b"), Eta: 0}},
	}
	for _, tc := range cases {
		if err := tc.k.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// Property: Decrypt(Encrypt(x)) == x for arbitrary byte strings.
func TestQuickCipherRoundtrip(t *testing.T) {
	c, err := NewCipher([]byte("quick-master"))
	if err != nil {
		t.Fatal(err)
	}
	f := func(pt []byte) bool {
		back, err := c.Decrypt(c.Encrypt(pt))
		return err == nil && bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PRF.Mod output is always < m.
func TestQuickModRange(t *testing.T) {
	p := NewPRF([]byte("k"))
	f := func(data []byte, mRaw uint16) bool {
		m := uint64(mRaw)%1000 + 1
		return p.Mod(m, data) < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
