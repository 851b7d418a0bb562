// Package stagecache is a content-addressed on-disk cache over the
// pipeline DAG (generate → ingest → stats → figures), borrowing the
// dagger/buildkit model: every stage output is persisted under a key that
// digests the stage's inputs, its configuration, and the code version, so
// a rerun skips any stage whose key is unchanged and recomputes exactly
// the stages whose inputs moved.
//
// Soundness rests on two properties the repository already enforces:
// the pipeline is deterministic (lintlock's determinism analyzer bans
// wall-clock and unseeded randomness from every analysis package), and
// every knob that can move an output byte enters its stage's key
// (cmd/lockdown's TestStageKeySensitivity). Keys are conservative: the
// code version is a digest of the whole running binary, so any rebuild
// invalidates everything. Over-invalidation costs time; under-invalidation
// would cost correctness.
//
// The store never trusts what it reads back: every payload is verified
// against the manifest's per-file checksum on the read path, and any
// mismatch — corruption, truncation, version skew, a torn write — is
// surfaced as a miss plus a verify-failure counter, never as data. A
// corrupt cache can only cost a recompute.
package stagecache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/universe"
)

// Digest is a sha256 content digest in lowercase hex.
type Digest string

// sumDigest renders a sha256 sum as a Digest.
func sumDigest(h hash.Hash) Digest { return Digest(hex.EncodeToString(h.Sum(nil))) }

// Hasher accumulates named, typed, length-prefixed fields into a stage
// key. Every field write is unambiguous on the wire (name length, name,
// type tag, value length where variable), so no two distinct field
// sequences collide by concatenation, and the domain string separates key
// spaces of different stages.
type Hasher struct {
	h hash.Hash
}

// NewHasher starts a key in the given domain (e.g. "lockdown/stats").
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	io.WriteString(h.h, "stagecache/v1\x00")
	h.raw('D', []byte(domain))
	return h
}

func (h *Hasher) raw(tag byte, val []byte) {
	var buf [binary.MaxVarintLen64]byte
	h.h.Write([]byte{tag})
	n := binary.PutUvarint(buf[:], uint64(len(val)))
	h.h.Write(buf[:n])
	h.h.Write(val)
}

func (h *Hasher) field(name string, tag byte, val []byte) {
	h.raw('N', []byte(name))
	h.raw(tag, val)
}

// String adds a string field.
func (h *Hasher) String(name, v string) { h.field(name, 'S', []byte(v)) }

// Bytes adds a raw byte field (nil and empty hash identically).
func (h *Hasher) Bytes(name string, v []byte) { h.field(name, 'B', v) }

// Int adds a signed integer field.
func (h *Hasher) Int(name string, v int64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	h.field(name, 'I', buf[:])
}

// Bool adds a boolean field.
func (h *Hasher) Bool(name string, v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	h.field(name, 'T', []byte{b})
}

// Float adds a float64 field (exact bit pattern).
func (h *Hasher) Float(name string, v float64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
	h.field(name, 'F', buf[:])
}

// Digest adds another stage's key or a content digest as an input field —
// the edge of the DAG.
func (h *Hasher) Digest(name string, d Digest) { h.field(name, 'G', []byte(d)) }

// Sum finalizes the key. The Hasher must not be used afterwards.
func (h *Hasher) Sum() Digest { return sumDigest(h.h) }

// ContentDigest digests a payload directly (for content-chained inputs:
// a stage keyed on the bytes it consumes rather than on how they were
// produced shares entries across configs that happen to emit identical
// payloads).
func ContentDigest(b []byte) Digest {
	sum := sha256.Sum256(b)
	return Digest(hex.EncodeToString(sum[:]))
}

var codeOnce struct {
	sync.Once
	d   Digest
	err error
}

// CodeDigest returns the digest of the running executable. It stands in
// for "code version" in every stage key: any code change produces a new
// binary and therefore new keys for everything, which over-invalidates
// (a comment-only rebuild flushes the cache) but can never reuse an entry
// produced by different logic. Go builds are reproducible for identical
// inputs, so the digest is stable across processes of the same build.
func CodeDigest() (Digest, error) {
	codeOnce.Do(func() {
		exe, err := os.Executable()
		if err != nil {
			codeOnce.err = err
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			codeOnce.err = err
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			codeOnce.err = err
			return
		}
		codeOnce.d = sumDigest(h)
	})
	return codeOnce.d, codeOnce.err
}

// RulesDigest digests the analysis rule surface that lives in data rather
// than in control flow: the appsig signature tables (pass
// appsig.TableRows()) and the universe registry's service catalog, address
// plan and resolver. These are compile-time constants today — flipping one
// already changes CodeDigest — but digesting them explicitly keeps the key
// honest if they ever become loadable, and gives tests a direct lever to
// prove single-entry sensitivity without a rebuild.
func RulesDigest(reg *universe.Registry, appsigRows []string) Digest {
	h := NewHasher("rules")
	for _, r := range appsigRows {
		h.String("appsig_row", r)
	}
	for _, s := range reg.Services() {
		h.String("service", fmt.Sprintf("%s|%d|%s|%v|%s|%d|%t|%t",
			s.Name, s.Category, s.Region.Code, s.Domains, s.CDN, s.Prefixes16, s.TapExcluded, s.GeoExcludedCDN))
	}
	for _, p := range reg.Prefixes() {
		h.String("prefix", fmt.Sprintf("%s|%s|%s|%t|%t|%t",
			p.Prefix, p.Owner, p.Region.Code, p.CDN, p.GeoExcluded, p.TapExcluded))
	}
	h.String("resolver", reg.ResolverAddr().String())
	return h.Sum()
}
