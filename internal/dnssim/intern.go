package dnssim

// Domain is the dense index an Interner assigns one distinct domain
// string. Domain 0 is always the empty string.
type Domain int32

// Interner canonicalizes domain strings at the dns_label boundary: every
// distinct domain is stored once per run and numbered, and every label
// span refers to it by number. Log replay otherwise retains a fresh
// substring of each log line per span (pinning the line), and the numbers
// let a caller resolve per-domain facts once into a slice instead of
// probing string-keyed maps per flow.
//
// Not safe for concurrent use — an Interner is owned by its Labeler.
type Interner struct {
	ids  map[string]Domain
	strs []string // by Domain; strs[0] is ""
}

// NewInterner returns an intern table holding only the empty string.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]Domain, 256), strs: []string{""}}
}

// Intern returns the index of s, storing s itself on first sight. The
// empty string is always 0 and is not stored.
func (it *Interner) Intern(s string) Domain {
	if s == "" {
		return 0
	}
	if d, ok := it.ids[s]; ok {
		return d
	}
	d := Domain(len(it.strs))
	it.ids[s] = d
	it.strs = append(it.strs, s)
	return d
}

// String returns the string of an index Intern handed out.
func (it *Interner) String(d Domain) string { return it.strs[d] }

// Len returns the number of distinct non-empty strings interned.
func (it *Interner) Len() int { return len(it.ids) }
