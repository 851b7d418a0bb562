package dnssim

import (
	"net/netip"
	"sort"
	"time"
)

// LabelStore is the shared, sequence-tagged DNS label table behind the
// sharded pipeline's domain join — the pinned counterpart of Labeler. One
// writer (the dispatcher) folds the resolver log in through Observe,
// tagging every mutation with a monotonically increasing sequence number;
// the route stage resolves server addresses through LabelAt pinned to the
// sequence number an event carries, and therefore sees exactly the spans a
// private Labeler would hold at the same position of the event stream.
// (The pin matters beyond lease-style ordering: Label's LookAhead window
// deliberately lets a flow see the *first* resolution of its server even
// when that resolution is slightly in the future, so an unpinned read
// after the writer moved on could label flows a single pipeline leaves
// unlabeled.)
//
// As in dhcp.LeaseStore, the table is a plain map of append-only span
// records that is never read while it is written: the writer and the
// route stage take turns. Readers binary-search the seq-visible prefix
// and run Labeler.Label's exact algorithm over it. Observe never rewrites
// a record (span coalescing is append-or-nothing), and every domain
// string is interned, so records do not duplicate label storage.
type LabelStore struct {
	recs     map[netip.Addr][]labelRec
	retained int64
	interner *Interner
	// LookAhead mirrors Labeler.LookAhead: clock-skew tolerance for flows
	// slightly preceding their server's first resolution.
	LookAhead time.Duration
}

// labelRec is one label span as of mutation seq.
type labelRec struct {
	start  time.Time
	domain string
	seq    uint64
}

// labelRecBytes approximates the retained size of one span record
// (time.Time, string header, sequence number); the string bytes are
// accounted once per distinct domain via the interner.
const labelRecBytes = 56

// labelAddrBytes approximates the fixed overhead of one address (map
// entry and slice header).
const labelAddrBytes = 96

// NewLabelStore returns an empty store with the default 1h look-ahead,
// interning domains into it (one table per run).
func NewLabelStore(interner *Interner) *LabelStore {
	if interner == nil {
		interner = NewInterner()
	}
	return &LabelStore{recs: make(map[netip.Addr][]labelRec), interner: interner, LookAhead: time.Hour}
}

// Observe folds one resolver log entry in under sequence number seq.
// Sequence numbers must be strictly increasing across Observe calls;
// entries must arrive in non-decreasing time order. Consecutive
// resolutions of an address to the same domain coalesce to a no-op,
// exactly like Labeler.Observe.
func (s *LabelStore) Observe(e Entry, seq uint64) {
	recs, known := s.recs[e.Answer]
	if !known {
		s.retained += labelAddrBytes
	}
	if n := len(recs); n > 0 && recs[n-1].domain == e.Query {
		return
	}
	s.recs[e.Answer] = append(recs, labelRec{start: e.Time, domain: s.interner.Intern(e.Query), seq: seq})
	s.retained += labelRecBytes
}

// LabelAt returns the domain server meant at time t as of mutation
// sequence pin — Labeler.Label's algorithm over the seq-visible span
// prefix. Any number of readers may call it at once, but never beside
// Observe.
func (s *LabelStore) LabelAt(server netip.Addr, t time.Time, pin uint64) (string, bool) {
	recs := s.recs[server]
	n := sort.Search(len(recs), func(i int) bool { return recs[i].seq > pin })
	vis := recs[:n]
	if len(vis) == 0 {
		return "", false
	}
	// Latest span starting at or before t.
	i := sort.Search(len(vis), func(i int) bool { return vis[i].start.After(t) })
	if i > 0 {
		return vis[i-1].domain, true
	}
	// Flow slightly precedes first resolution: tolerate within LookAhead.
	if vis[0].start.Sub(t) <= s.LookAhead {
		return vis[0].domain, true
	}
	return "", false
}

// RetainedBytes approximates the store's live size (records, addresses
// and distinct interned domain bytes) for the snapshot-size gauge.
func (s *LabelStore) RetainedBytes() int64 {
	return s.retained + s.interner.Bytes()
}

// Addresses returns the number of distinct server addresses indexed.
func (s *LabelStore) Addresses() int { return len(s.recs) }
