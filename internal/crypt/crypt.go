// Package crypt provides the cryptographic substrate of the framework:
//
//   - H, the keyed hash the paper uses for secret tuple selection
//     (Equation 5: H(ti.ident, k1) mod η = 0) and for pseudorandom index
//     derivation inside Permutate. The paper suggests MD5 or SHA1; we use
//     HMAC-SHA256, which keeps the required keyed-PRF contract with modern
//     primitives.
//
//   - E, the one-to-one encryption the binning algorithm applies to
//     identifying columns (Figure 8: ti.ident.val ← E(ti.ident.val)).
//     The paper suggests DES or AES; we implement deterministic
//     authenticated encryption: AES-256-CTR under a synthetic IV derived
//     from the plaintext (SIV-style), so equal plaintexts map to equal
//     ciphertexts (one-to-one replacement, required so that the encrypted
//     identifier is a stable embedding anchor) and tampering is detected
//     on decryption. Determinism over unique identifiers (SSNs) leaks
//     nothing beyond equality, and identifiers are unique by definition.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sync"
)

// Errors returned by Decrypt.
var (
	ErrCiphertextFormat = errors.New("crypt: malformed ciphertext")
	ErrAuthentication   = errors.New("crypt: authentication failed")
)

// digest is a SHA-256 state that can be restored from its marshaled
// form.
type digest interface {
	hash.Hash
	encoding.BinaryUnmarshaler
}

// scratch is the working memory of one PRF evaluation or one cipher
// operation: the HMAC inner and outer digests, the length-prefixed
// message, the sum, the CTR counter and key-stream blocks, and the
// plaintext, raw-token and base64 buffers of EncryptString. Scratches
// are pooled, so the hot loops that evaluate H once per tuple or E once
// per distinct identifier allocate nothing beyond what they return.
type scratch struct {
	inner, outer digest
	msg          []byte
	sum          [sha256.Size]byte
	ctr, ks      [aes.BlockSize]byte
	pt, raw, b64 []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{inner: sha256.New().(digest), outer: sha256.New().(digest)}
}}

// PRF is the keyed hash H of the paper, HMAC-SHA256. It is safe for
// concurrent use.
//
// The HMAC key schedule runs once, in NewPRF: inner and outer are the
// marshaled SHA-256 states after absorbing the key⊕ipad and key⊕opad
// blocks. Each evaluation restores them into a pooled scratch, which is
// exactly what crypto/hmac does on Reset, so the output is bit-identical
// to a fresh HMAC.
type PRF struct {
	inner, outer []byte
}

// NewPRF returns a PRF keyed with key. The key may be any length; it is
// used as an HMAC-SHA256 key (keys longer than the SHA-256 block are
// hashed first, as crypto/hmac does).
func NewPRF(key []byte) *PRF {
	var block [sha256.BlockSize]byte
	if len(key) > len(block) {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(block[:], key)
	return &PRF{inner: padState(block, 0x36), outer: padState(block, 0x5c)}
}

// padState returns the marshaled SHA-256 state after absorbing
// key⊕pad.
func padState(key [sha256.BlockSize]byte, pad byte) []byte {
	for i := range key {
		key[i] ^= pad
	}
	h := sha256.New()
	h.Write(key[:])
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(err) // crypto/sha256 digests always marshal
	}
	return state
}

// sum writes HMAC-SHA256(key, len(parts[0]) || parts[0] || len(parts[1])
// || parts[1] ...) into s.sum and returns it. Each length is an 8-byte
// big-endian prefix, so no two part lists share a message.
func (p *PRF) sum(s *scratch, parts [][]byte) []byte {
	msg := s.msg[:0]
	for _, part := range parts {
		msg = binary.BigEndian.AppendUint64(msg, uint64(len(part)))
		msg = append(msg, part...)
	}
	s.msg = msg
	// Restoring a state NewPRF marshaled cannot fail.
	_ = s.inner.UnmarshalBinary(p.inner)
	s.inner.Write(msg)
	inner := s.inner.Sum(s.sum[:0])
	_ = s.outer.UnmarshalBinary(p.outer)
	s.outer.Write(inner)
	return s.outer.Sum(s.sum[:0])
}

// Sum returns HMAC-SHA256(key, len(parts[0]) || parts[0] ||
// len(parts[1]) || parts[1] ...), each length an 8-byte big-endian
// prefix so that part boundaries are unambiguous. The result is a fresh
// slice.
func (p *PRF) Sum(parts ...[]byte) []byte {
	s := scratchPool.Get().(*scratch)
	out := slices.Clone(p.sum(s, parts))
	scratchPool.Put(s)
	return out
}

// Uint64 interprets the first 8 bytes of Sum(parts...) as a big-endian
// unsigned integer. This is the H(·) value used modulo η or |S| in the
// watermarking algorithms.
func (p *PRF) Uint64(parts ...[]byte) uint64 {
	s := scratchPool.Get().(*scratch)
	v := binary.BigEndian.Uint64(p.sum(s, parts))
	scratchPool.Put(s)
	return v
}

// Mod returns Uint64(parts...) mod m. m must be positive.
func (p *PRF) Mod(m uint64, parts ...[]byte) uint64 {
	if m == 0 {
		panic("crypt: modulus must be positive")
	}
	return p.Uint64(parts...) % m
}

// Selects implements the paper's Equation (5): it reports whether the
// tuple identified by ident is selected for embedding under parameter η.
// η == 1 selects every tuple; larger η selects roughly a 1/η fraction.
func (p *PRF) Selects(ident []byte, eta uint64) bool {
	if eta == 0 {
		return false
	}
	return p.Mod(eta, ident) == 0
}

// Cipher is the deterministic authenticated encryption E() applied to
// identifying columns. It is safe for concurrent use.
type Cipher struct {
	block  cipher.Block
	ivPRF  *PRF
	tagPRF *PRF
}

// NewCipher derives a Cipher from a master key of any length. Independent
// subkeys for encryption, IV synthesis and authentication are derived by
// domain-separated HMAC.
func NewCipher(masterKey []byte) (*Cipher, error) {
	root := NewPRF(masterKey)
	encKey := root.Sum([]byte("medshield/enc/v1"))
	block, err := aes.NewCipher(encKey) // 32 bytes -> AES-256
	if err != nil {
		return nil, fmt.Errorf("crypt: %w", err)
	}
	return &Cipher{
		block:  block,
		ivPRF:  NewPRF(root.Sum([]byte("medshield/iv/v1"))),
		tagPRF: NewPRF(root.Sum([]byte("medshield/tag/v1"))),
	}, nil
}

const tagLen = 16

// EncryptString encrypts a cell value, returning a compact base64 token.
// Equal plaintexts yield equal tokens (deterministic one-to-one
// replacement, as the binning algorithm requires). The token string is
// its only allocation.
func (c *Cipher) EncryptString(plaintext string) string {
	s := scratchPool.Get().(*scratch)
	s.pt = append(s.pt[:0], plaintext...)
	raw := c.seal(s, s.pt)
	n := base64.RawURLEncoding.EncodedLen(len(raw))
	s.b64 = slices.Grow(s.b64[:0], n)[:n]
	base64.RawURLEncoding.Encode(s.b64, raw)
	tok := string(s.b64)
	scratchPool.Put(s)
	return tok
}

// DecryptString reverses EncryptString.
func (c *Cipher) DecryptString(token string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrCiphertextFormat, err)
	}
	pt, err := c.Decrypt(raw)
	if err != nil {
		return "", err
	}
	return string(pt), nil
}

// Encrypt produces iv || ctr(plaintext) || tag. The IV is a PRF of the
// plaintext (synthetic IV), making encryption deterministic; the tag
// authenticates iv||ciphertext.
func (c *Cipher) Encrypt(plaintext []byte) []byte {
	s := scratchPool.Get().(*scratch)
	out := slices.Clone(c.seal(s, plaintext))
	scratchPool.Put(s)
	return out
}

// seal writes iv || ctr(plaintext) || tag into s.raw and returns it.
// plaintext must not alias s.msg or s.raw.
func (c *Cipher) seal(s *scratch, plaintext []byte) []byte {
	n := aes.BlockSize + len(plaintext)
	raw := slices.Grow(s.raw[:0], n+tagLen)[:n]
	copy(raw, c.ivPRF.sum(s, [][]byte{plaintext})[:aes.BlockSize])
	c.ctr(s, raw[aes.BlockSize:], plaintext, raw[:aes.BlockSize])
	raw = append(raw, c.tagPRF.sum(s, [][]byte{raw})[:tagLen]...)
	s.raw = raw
	return raw
}

// ctr XORs src with the AES-CTR key stream that starts at counter block
// iv into dst. The counter is incremented as one 128-bit big-endian
// integer per block, as crypto/cipher's CTR mode does.
func (c *Cipher) ctr(s *scratch, dst, src, iv []byte) {
	copy(s.ctr[:], iv)
	for len(src) > 0 {
		c.block.Encrypt(s.ks[:], s.ctr[:])
		n := subtle.XORBytes(dst, src, s.ks[:])
		dst, src = dst[n:], src[n:]
		for i := len(s.ctr) - 1; i >= 0; i-- {
			s.ctr[i]++
			if s.ctr[i] != 0 {
				break
			}
		}
	}
}

// Decrypt verifies and reverses Encrypt.
func (c *Cipher) Decrypt(raw []byte) ([]byte, error) {
	if len(raw) < aes.BlockSize+tagLen {
		return nil, ErrCiphertextFormat
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	body := raw[:len(raw)-tagLen]
	tag := raw[len(raw)-tagLen:]
	if subtle.ConstantTimeCompare(tag, c.tagPRF.sum(s, [][]byte{body})[:tagLen]) != 1 {
		return nil, ErrAuthentication
	}
	iv := body[:aes.BlockSize]
	pt := make([]byte, len(body)-aes.BlockSize)
	c.ctr(s, pt, body[aes.BlockSize:], iv)
	// SIV check: the IV must match the plaintext-derived IV, otherwise the
	// ciphertext was spliced from another message.
	if subtle.ConstantTimeCompare(iv, c.ivPRF.sum(s, [][]byte{pt})[:aes.BlockSize]) != 1 {
		return nil, ErrAuthentication
	}
	return pt, nil
}

// WatermarkKey bundles the secret elements of the watermarking key
// (Table 1 of the paper: k1, k2, η) together with the master encryption
// key used by the binning agent for identifying columns. "Without having
// possession of the secret watermarking key, no one can erase the inserted
// mark from the data."
type WatermarkKey struct {
	// K1 drives tuple selection (Equation 5).
	K1 []byte
	// K2 drives index derivation and mark-position addressing inside
	// Permutate. The paper stresses that distinct keys remove correlation
	// between the two calculations.
	K2 []byte
	// Eta is the selection parameter η: roughly one tuple in Eta carries
	// mark bits. Smaller η = more bandwidth = more resilience and more
	// distortion (the trade-off of Figure 12).
	Eta uint64
	// Enc is the master key for the identifying-column cipher E().
	Enc []byte
}

// NewWatermarkKeyFromSecret derives a full, independent key set from one
// secret passphrase. Deterministic: the same secret always yields the same
// keys, so a data owner can re-derive them for detection.
func NewWatermarkKeyFromSecret(secret string, eta uint64) WatermarkKey {
	root := NewPRF([]byte(secret))
	return WatermarkKey{
		K1:  root.Sum([]byte("k1")),
		K2:  root.Sum([]byte("k2")),
		Eta: eta,
		Enc: root.Sum([]byte("enc")),
	}
}

// RecipientWatermarkKey derives the per-recipient key set used when one
// source table is fingerprinted for several recipients. K1 (tuple
// selection), Eta and Enc (identifier encryption) are shared with the
// owner's NewWatermarkKeyFromSecret key — all copies select the same
// tuples and encrypt identifiers identically, which lets leak traceback
// pay the selection scan once across every candidate and keeps the §5.4
// decryption story owner-wide — while K2 (position addressing) is salted
// with the recipient ID, so each copy carries its bits at
// recipient-specific wmd positions. Deterministic: the owner re-derives
// any recipient's key from the master secret and the recipient ID.
func RecipientWatermarkKey(secret, recipientID string, eta uint64) WatermarkKey {
	root := NewPRF([]byte(secret))
	return WatermarkKey{
		K1:  root.Sum([]byte("k1")),
		K2:  root.Sum([]byte("k2"), []byte(recipientID)),
		Eta: eta,
		Enc: root.Sum([]byte("enc")),
	}
}

// Fingerprint returns a short non-secret digest of the key material
// (K1, K2 and Enc; Eta travels in clear next to it). A recipient
// registry stores it so a later traceback can verify that the key it
// derived or was handed matches the key the copy was actually marked
// with — without the registry ever holding key bytes.
func (k WatermarkKey) Fingerprint() string {
	fp := NewPRF([]byte("medshield/keyfp/v1"))
	var eta [8]byte
	binary.BigEndian.PutUint64(eta[:], k.Eta)
	return hex.EncodeToString(fp.Sum(k.K1, k.K2, k.Enc, eta[:])[:16])
}

// Validate reports whether the key material is usable.
func (k WatermarkKey) Validate() error {
	if len(k.K1) == 0 {
		return errors.New("crypt: empty K1")
	}
	if len(k.K2) == 0 {
		return errors.New("crypt: empty K2")
	}
	if string(k.K1) == string(k.K2) {
		return errors.New("crypt: K1 and K2 must differ (the paper requires uncorrelated calculations)")
	}
	if k.Eta == 0 {
		return errors.New("crypt: Eta must be positive")
	}
	return nil
}
