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
	return s
}

// Len returns the number of distinct strings interned.
func (it *Interner) Len() int { return len(it.m) }
