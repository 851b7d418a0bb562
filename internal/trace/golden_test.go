package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
)

// streamHasher folds every delivered event into a sha256 over a canonical
// field-by-field encoding, so the digest pins content and order.
type streamHasher struct {
	h      hash.Hash
	buf    []byte
	events int
}

func newStreamHasher() *streamHasher { return &streamHasher{h: sha256.New()} }

func (s *streamHasher) u64(v uint64)   { s.buf = binary.BigEndian.AppendUint64(s.buf, v) }
func (s *streamHasher) ts(t time.Time) { s.u64(uint64(t.UnixNano())) }
func (s *streamHasher) str(v string) {
	s.u64(uint64(len(v)))
	s.buf = append(s.buf, v...)
}
func (s *streamHasher) addr(a netip.Addr) { s.str(a.String()) }

func (s *streamHasher) emit(kind EventKind) {
	s.events++
	s.h.Write([]byte{byte(kind)})
	s.h.Write(s.buf)
	s.buf = s.buf[:0]
}

func (s *streamHasher) Flow(r flow.Record) {
	s.ts(r.Start)
	s.u64(uint64(r.Duration))
	s.addr(r.OrigAddr)
	s.u64(uint64(r.OrigPort))
	s.addr(r.RespAddr)
	s.u64(uint64(r.RespPort))
	s.u64(uint64(r.Proto))
	s.u64(uint64(r.OrigBytes))
	s.u64(uint64(r.RespBytes))
	s.u64(uint64(r.OrigPkts))
	s.u64(uint64(r.RespPkts))
	s.str(r.Service)
	s.u64(uint64(r.State))
	s.emit(EventFlow)
}

func (s *streamHasher) DNS(e dnssim.Entry) {
	s.ts(e.Time)
	s.addr(e.Client)
	s.str(e.Query)
	s.addr(e.Answer)
	s.u64(uint64(e.TTL))
	s.emit(EventDNS)
}

func (s *streamHasher) HTTPMeta(e httplog.Entry) {
	s.ts(e.Time)
	s.addr(e.Client)
	s.str(e.Host)
	s.str(e.UserAgent)
	s.emit(EventHTTP)
}

func (s *streamHasher) Lease(l dhcp.Lease) {
	s.buf = append(s.buf, l.MAC[:]...)
	s.addr(l.Addr)
	s.ts(l.Start)
	s.ts(l.End)
	s.emit(EventLease)
}

func (s *streamHasher) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// batchHasher takes the BatchSink path into the same digest.
type batchHasher struct {
	*streamHasher
	flushes  int
	maxBatch int
}

func (b *batchHasher) EventBatch(events []Event) {
	b.maxBatch = max(b.maxBatch, len(events))
	for i := range events {
		events[i].Deliver(b.streamHasher)
	}
}

func (b *batchHasher) Flush() { b.flushes++ }

// TestGoldenStream pins the sha256 of the delivered event stream for a
// pandemic and a counterfactual day range, through both delivery paths, at
// one and four scheduler procs. The digests were produced by the serial
// single-sort generator, so any drift in merge order or RNG use fails here.
func TestGoldenStream(t *testing.T) {
	cases := []struct {
		name       string
		noPandemic bool
		from, to   campus.Day
		events     int
		digest     string
	}{
		{"pandemic", false, 20, 28, 102228,
			"83211c8a82d0e125572f3379270ba873807ec14eea6fe3f3c1ecbf105e763cd9"},
		{"no-pandemic", true, 84, 90, 78213,
			"c6de973ba2c2bd8f05ab1cabdc65b80a9d180b818202d436349d5f8b69ec906b"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		for _, procs := range []int{1, 4} {
			for _, batched := range []bool{false, true} {
				runtime.GOMAXPROCS(procs)
				cfg := smallConfig()
				cfg.NoPandemic = tc.noPandemic
				g := newTestGenerator(t, cfg)
				h := newStreamHasher()
				var sink Sink = h
				bh := &batchHasher{streamHasher: h}
				if batched {
					sink = bh
				}
				if err := g.RunDays(sink, tc.from, tc.to); err != nil {
					t.Fatal(err)
				}
				if got := h.sum(); got != tc.digest || h.events != tc.events {
					t.Errorf("%s procs=%d batched=%v: %d events, digest %s; want %d events, %s",
						tc.name, procs, batched, h.events, got, tc.events, tc.digest)
				}
				if batched && (bh.flushes != int(tc.to-tc.from) || bh.maxBatch > batchEmitCap) {
					t.Errorf("%s procs=%d: flushes=%d maxBatch=%d, want %d flushes and batches ≤ %d",
						tc.name, procs, bh.flushes, bh.maxBatch, tc.to-tc.from, batchEmitCap)
				}
			}
		}
	}
}

// panicSink fails on its n-th day boundary.
type panicSink struct {
	nullSink
	days, at int
}

func (p *panicSink) EventBatch([]Event) {}
func (p *panicSink) Flush() {
	if p.days++; p.days == p.at {
		panic("sink failure")
	}
}

// TestRunDaysUnwindsOnSinkPanic checks that a sink panic mid-range
// propagates to the caller only after the producer goroutine has stopped,
// and that the generator can run again afterwards.
func TestRunDaysUnwindsOnSinkPanic(t *testing.T) {
	g := newTestGenerator(t, smallConfig())
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("sink panic did not reach the caller")
			}
		}()
		_ = g.RunDays(&panicSink{at: 2}, 10, 20)
	}()
	// RunDays waited for the producer's done signal; give exiting
	// goroutines a bounded moment to leave the scheduler's count.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after unwinding, %d before", n, before)
	}
	var rec eventRecorder
	if err := g.RunDays(&rec, 30, 32); err != nil || len(rec.events) == 0 {
		t.Fatalf("rerun after unwinding: err=%v events=%d", err, len(rec.events))
	}
}
