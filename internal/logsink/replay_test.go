package logsink

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/faultline"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
)

// Event kinds a recorder logs; TestReplayFaultOutputsPinned's digests fix
// their values.
const (
	kindFlow uint8 = iota
	kindDNS
	kindHTTP
	kindLease
)

// streamEvent is one recorded replay event: its kind, its timestamp, and
// a digest of the decoded record standing in for the raw line it came
// from.
type streamEvent struct {
	kind uint8
	at   int64
	id   uint64
}

// recorder is a sink that logs the exact event sequence a replay path
// delivers.
type recorder struct{ seq []streamEvent }

func (r *recorder) add(kind uint8, at time.Time, v any) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	r.seq = append(r.seq, streamEvent{kind: kind, at: at.UnixNano(), id: h.Sum64()})
}

func (r *recorder) Flow(f flow.Record)       { r.add(kindFlow, f.Start, f) }
func (r *recorder) DNS(e dnssim.Entry)       { r.add(kindDNS, e.Time, e) }
func (r *recorder) HTTPMeta(e httplog.Entry) { r.add(kindHTTP, e.Time, e) }
func (r *recorder) Lease(l dhcp.Lease)       { r.add(kindLease, l.Start, l) }

// requireSameSeq fails at the first position where got departs from want.
func requireSameSeq(t *testing.T, what string, got, want []streamEvent) {
	t.Helper()
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
}

// TestReplayPathsSameStream pins the single replay order: the whole-
// dataset batch replay, a loop of per-day replays and the live tail over
// a complete rotated dataset deliver the identical event sequence — clean,
// and under seeded corruption, where the guards must also agree on every
// drop and quarantined line.
func TestReplayPathsSameStream(t *testing.T) {
	src := writeRotated(t)
	writeSentinel(t, src)
	days, err := DayDirs(src)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name   string
		replay func(sink trace.Sink, opts ReplayOptions) error
	}{
		{"rotated", func(sink trace.Sink, opts ReplayOptions) error {
			return ReplayRotatedWithOptions(src, sink, opts)
		}},
		{"per-day", func(sink trace.Sink, opts ReplayOptions) error {
			for _, d := range days {
				if err := ReplayRotatedDay(src, d, sink, opts); err != nil {
					return err
				}
			}
			return nil
		}},
		{"tail", func(sink trace.Sink, opts ReplayOptions) error {
			return TailRotated(src, sink, TailOptions{ReplayOptions: opts, Poll: tailPoll})
		}},
	}
	for _, tc := range []struct {
		name   string
		inject *faultline.Config
	}{
		{"clean", nil},
		{"injected", &faultline.Config{Seed: 7, Rate: 0.001}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref *recorder
			var refSummary string
			var refQuarantine []byte
			for _, p := range paths {
				// The quarantine policy is skip plus a copy of every
				// rejected line, so the drop order is observable too.
				var quarantine bytes.Buffer
				guard := faultline.NewGuard(faultline.PolicyQuarantine, 0, &quarantine, nil)
				rec := &recorder{}
				if err := p.replay(rec, ReplayOptions{Guard: guard, Inject: tc.inject}); err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				if ref == nil {
					ref, refSummary, refQuarantine = rec, guard.Summary(), quarantine.Bytes()
					if len(rec.seq) == 0 {
						t.Fatalf("%s: no events", p.name)
					}
					if dropped := guard.DropTotal(); (tc.inject != nil) != (dropped > 0) {
						t.Fatalf("%s: %d drops with inject=%v", p.name, dropped, tc.inject != nil)
					}
					continue
				}
				requireSameSeq(t, p.name, rec.seq, ref.seq)
				if s := guard.Summary(); s != refSummary {
					t.Fatalf("%s guard: %s, want %s", p.name, s, refSummary)
				}
				if !bytes.Equal(quarantine.Bytes(), refQuarantine) {
					t.Fatalf("%s: quarantine log differs (%d bytes, want %d)", p.name, quarantine.Len(), len(refQuarantine))
				}
			}
		})
	}
}
