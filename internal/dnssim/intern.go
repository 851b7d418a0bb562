package dnssim

// Interner canonicalizes domain strings at the dns_label boundary: every
// distinct domain is stored once per run, and every label span, device
// bitmap key and appsig probe afterwards shares that one instance. Log
// replay otherwise retains a fresh substring of each log line per span
// (pinning the line). Interned strings also make the downstream map probes
// (domainBit, sigDomains, appsig suffix walk) cheaper: equal keys compare
// pointer-equal before any byte comparison.
//
// Not safe for concurrent use — an Interner is owned by its Labeler.
type Interner struct {
	m map[string]string
	// bytes is the total length of distinct strings retained.
	bytes int64
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string, 256)}
}

// Intern returns the canonical instance of s, storing s itself on first
// sight. The map key and value are the same string, so each distinct
// domain costs one header plus its bytes.
func (it *Interner) Intern(s string) string {
	if s == "" {
		return ""
	}
	if c, ok := it.m[s]; ok {
		return c
	}
	it.m[s] = s
	it.bytes += int64(len(s))
	return s
}

// Len returns the number of distinct strings interned.
func (it *Interner) Len() int { return len(it.m) }

// Bytes returns the total length of the distinct strings retained.
func (it *Interner) Bytes() int64 { return it.bytes }
