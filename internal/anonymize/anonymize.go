// Package anonymize implements the privacy controls the study operated
// under (§3): device and client addresses are pseudonymized with a keyed
// hash before analysis, raw identifiers are discarded, devices that appear
// only briefly (campus visitors) are dropped, and aggregate results are
// suppressed below a minimum group size.
package anonymize

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/netip"

	"repro/internal/packet"
)

// DeviceID is the stable pseudonym for one device (a keyed hash of its MAC
// address). It is the only device identifier analyses ever see.
type DeviceID uint64

// String renders the pseudonym as fixed-width hex.
func (d DeviceID) String() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(d))
	return hex.EncodeToString(b[:])
}

// Pseudonymizer maps raw identifiers to stable pseudonyms under a secret
// key. The same key yields the same pseudonyms (so multi-pass analyses
// agree); destroying the key unlinks the dataset from real identifiers.
type Pseudonymizer struct {
	key []byte
}

// NewPseudonymizer returns a pseudonymizer with the given key. An empty key
// is rejected — that would make pseudonyms trivially recomputable.
func NewPseudonymizer(key []byte) (*Pseudonymizer, error) {
	if len(key) < 16 {
		return nil, fmt.Errorf("anonymize: key must be at least 16 bytes, have %d", len(key))
	}
	return &Pseudonymizer{key: append([]byte(nil), key...)}, nil
}

// NewRandomPseudonymizer draws a fresh random key, the production
// configuration: nobody retains the key, so the mapping is one-way.
func NewRandomPseudonymizer() (*Pseudonymizer, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("anonymize: generating key: %w", err)
	}
	return NewPseudonymizer(key)
}

func (p *Pseudonymizer) hash(domain string, data []byte) uint64 {
	mac := hmac.New(sha256.New, p.key)
	mac.Write([]byte(domain))
	mac.Write([]byte{0})
	mac.Write(data)
	sum := mac.Sum(nil)
	return binary.BigEndian.Uint64(sum[:8])
}

// Device pseudonymizes a MAC address.
func (p *Pseudonymizer) Device(m packet.MAC) DeviceID {
	return DeviceID(p.hash("mac", m[:]))
}

// Addr pseudonymizes a client IP address (used when retaining per-client
// DNS context without the raw address).
func (p *Pseudonymizer) Addr(a netip.Addr) uint64 {
	b := a.As16()
	return p.hash("addr", b[:])
}

// MinGroupSize is the aggregate-reporting floor: results about fewer
// devices than this are suppressed, matching the study's
// aggregate-results-only IRB condition.
const MinGroupSize = 10

// Suppress reports whether an aggregate over n devices is too small to
// release.
func Suppress(n int) bool { return n < MinGroupSize }
