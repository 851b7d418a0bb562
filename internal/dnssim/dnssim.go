// Package dnssim simulates the campus DNS resolver and implements the
// pipeline's domain-labeling join.
//
// The measurement system cannot rely on packet payloads (almost everything
// is TLS); instead it uses contemporaneous logs from the campus resolver to
// map the remote IP address of each flow back to the domain name the client
// had just resolved — which is what lets the analysis distinguish
// facebook.com from fbcdn.net from steamcontent.com. Resolver produces
// query-log entries; Labeler replays them to answer "what domain did this
// server IP mean at time t?".
package dnssim

import (
	"net/netip"
	"sort"
	"time"

	"repro/internal/universe"
)

// DefaultTTL is the answer TTL the simulated resolver hands out.
const DefaultTTL = 5 * time.Minute

// Entry is one resolver log line: client asked for a domain and received an
// address.
type Entry struct {
	Time   time.Time
	Client netip.Addr
	Query  string
	Answer netip.Addr
	TTL    time.Duration
}

// Resolver answers queries out of the universe's address plan,
// deterministically rotating among each domain's addresses the way DNS
// round-robin does.
type Resolver struct {
	reg *universe.Registry
	ttl time.Duration
}

// NewResolver returns a resolver over the registry.
func NewResolver(reg *universe.Registry, ttl time.Duration) *Resolver {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Resolver{reg: reg, ttl: ttl}
}

// Query resolves domain for client at time t (an A record). The answer
// rotates per client and per TTL bucket. ok is false for unregistered
// domains (NXDOMAIN).
func (r *Resolver) Query(client netip.Addr, domain string, t time.Time) (Entry, bool) {
	addr, ok := r.reg.ResolveIP(domain, r.salt(client, t))
	if !ok {
		return Entry{}, false
	}
	return Entry{Time: t, Client: client, Query: domain, Answer: addr, TTL: r.ttl}, true
}

// QueryAAAA resolves the domain's IPv6 address for a dual-stack client.
func (r *Resolver) QueryAAAA(client netip.Addr, domain string, t time.Time) (Entry, bool) {
	addr, ok := r.reg.ResolveIPv6(domain, r.salt(client, t))
	if !ok {
		return Entry{}, false
	}
	return Entry{Time: t, Client: client, Query: domain, Answer: addr, TTL: r.ttl}, true
}

func (r *Resolver) salt(client netip.Addr, t time.Time) uint64 {
	bucket := uint64(t.Unix()) / uint64(r.ttl/time.Second)
	return hashAddr(client) ^ bucket*0x9e3779b97f4a7c15
}

func hashAddr(a netip.Addr) uint64 {
	b := a.As16()
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, x := range b {
		h ^= uint64(x)
		h *= prime
	}
	return h
}

// Labeler reconstructs the IP→domain mapping from observed resolver log
// entries. Entries must be observed in non-decreasing time order (the order
// the log is written). Lookups are time-aware so an address that migrates
// between domains is attributed correctly; entries do not expire at TTL,
// because flows routinely outlive the resolution that named them —
// the last resolution before the flow wins, matching how the real pipeline
// joins logs.
type Labeler struct {
	byAddr map[netip.Addr][]labelSpan
	// interner canonicalizes domain strings so spans don't pin replayed
	// log lines and downstream map probes compare pointer-equal keys.
	interner *Interner
	// LookAhead tolerates capture/log clock skew: a flow observed
	// slightly before the first resolution of its server can still be
	// labeled if the resolution follows within this window.
	LookAhead time.Duration
}

type labelSpan struct {
	start  time.Time
	domain string
}

// NewLabeler returns an empty labeler with a 1h look-ahead.
func NewLabeler() *Labeler {
	return &Labeler{
		byAddr:    make(map[netip.Addr][]labelSpan),
		interner:  NewInterner(),
		LookAhead: time.Hour,
	}
}

// Observe folds one resolver log entry into the index. Consecutive
// resolutions of the same address to the same domain coalesce.
func (l *Labeler) Observe(e Entry) {
	spans := l.byAddr[e.Answer]
	if n := len(spans); n > 0 && spans[n-1].domain == e.Query {
		return
	}
	l.byAddr[e.Answer] = append(spans, labelSpan{start: e.Time, domain: l.interner.Intern(e.Query)})
}

// Label returns the domain that server meant at time t, or ok=false when
// the address was never resolved in the log.
func (l *Labeler) Label(server netip.Addr, t time.Time) (string, bool) {
	spans := l.byAddr[server]
	if len(spans) == 0 {
		return "", false
	}
	// Latest span starting at or before t.
	i := sort.Search(len(spans), func(i int) bool { return spans[i].start.After(t) })
	if i > 0 {
		return spans[i-1].domain, true
	}
	// Flow slightly precedes first resolution: tolerate within LookAhead.
	if spans[0].start.Sub(t) <= l.LookAhead {
		return spans[0].domain, true
	}
	return "", false
}

// Addresses returns the number of distinct server addresses indexed.
func (l *Labeler) Addresses() int { return len(l.byAddr) }

// LabelSpan is one externalized span: from Start (until superseded) the
// address resolved to Domain.
type LabelSpan struct {
	Start  time.Time
	Domain string
}

// AddrSpans pairs one server address with its ordered spans.
type AddrSpans struct {
	Addr  netip.Addr
	Spans []LabelSpan
}

// ExportSpans returns the whole index in ascending address order, spans in
// observation order — the checkpoint serialization surface.
func (l *Labeler) ExportSpans() []AddrSpans {
	addrs := make([]netip.Addr, 0, len(l.byAddr))
	for a := range l.byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	out := make([]AddrSpans, 0, len(addrs))
	for _, a := range addrs {
		spans := l.byAddr[a]
		exp := make([]LabelSpan, len(spans))
		for i, s := range spans {
			exp[i] = LabelSpan{Start: s.start, Domain: s.domain}
		}
		out = append(out, AddrSpans{Addr: a, Spans: exp})
	}
	return out
}

// RestoreSpans reinstates an index exported by ExportSpans into an empty
// labeler (panics otherwise). Domains are re-interned so restored spans
// regain the pointer-equal-key property.
func (l *Labeler) RestoreSpans(index []AddrSpans) {
	if len(l.byAddr) != 0 {
		panic("dnssim: RestoreSpans on a labeler with state")
	}
	for _, as := range index {
		spans := make([]labelSpan, len(as.Spans))
		for i, s := range as.Spans {
			spans[i] = labelSpan{start: s.Start, domain: l.interner.Intern(s.Domain)}
		}
		l.byAddr[as.Addr] = spans
	}
}
