package zeeklog

import (
	"bytes"
	"io"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"testing"

	"repro/internal/decodeerr"
	"repro/internal/flow"
)

// TestParseStringRoundTripRegressions pins values whose escapes overlap:
// a literal backslash followed by an escape-looking tail, and the two
// markers, which must not read back as unset or empty.
func TestParseStringRoundTripRegressions(t *testing.T) {
	for _, s := range []string{`a\x09b`, `C:\x0a`, `\\`, `\`, `a\`, "tab\there", "-", "(empty)", `\x2d`} {
		enc := FormatString(s)
		if strings.ContainsAny(enc, "\t\n") {
			t.Errorf("FormatString(%q) = %q is not TSV-safe", s, enc)
		}
		if got := ParseString(enc); got != s {
			t.Errorf("ParseString(FormatString(%q)) = %q (encoded %q)", s, got, enc)
		}
	}
	for enc, want := range map[string]string{"-": "", "(empty)": "", `\x41\q`: `A\q`, `x\x4`: `x\x4`} {
		if got := ParseString(enc); got != want {
			t.Errorf("ParseString(%q) = %q, want %q", enc, got, want)
		}
	}
}

// sameResult fails t unless a byte fast path and its string parser agree
// on in: the same value, and either no error from both or errors with the
// same decode class and message.
func sameResult[T comparable](t *testing.T, parser, in string, got, want T, err, werr error) {
	t.Helper()
	same := err == nil && werr == nil
	if err != nil && werr != nil {
		c1, ok1 := decodeerr.ClassOf(err)
		c2, ok2 := decodeerr.ClassOf(werr)
		same = c1 == c2 && ok1 == ok2 && err.Error() == werr.Error()
	}
	if got != want || !same {
		t.Errorf("%s(%q): bytes %v, %v; string %v, %v", parser, in, got, err, want, werr)
	}
}

// FuzzFieldBytes holds every byte fast path to its string parser: the
// same value, the same decode class and the same message on any input.
func FuzzFieldBytes(f *testing.F) {
	for _, s := range []string{
		"1583020800.000000", "0.000000", "1.500000", "3600.000000",
		"9007199254.740991", "9007199254.740992", "9007199254.740993", "9999999999.999999",
		"+1.5", "1e9", "NaN", "0x1p3", "-1.000000", ".000000", "1.00000", "01583020800.000000",
		"10.0.0.1", "0.0.0.0", "255.255.255.255", "01.2.3.4", "256.0.0.1", "1.2.3", "1.2.3.4.5",
		"::ffff:1.2.3.4", "2001:db8::9", "1..2.3",
		"fe80::1%eth0", "fe80::1%", "::", "1::", "::1", "::1.2.3.4", "64:ff9b::192.0.2.33",
		"2001:DB8:0:0:8:800:200C:417A", "2001:db8:0:0:8:800:200c:417a", "1:2:3:4:5:6:7::", "::2:3:4:5:6:7:8",
		"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7:8::", "1:2:3:4:5:6:7", "12345::1", "00000::1",
		"1::2::3", ":::", ":1::", "1:", "1::2:", "::g", "fffff::", "2001:db8::9 ",
		"443", "65535", "65536", "00080", "-1", "+5", "", "9223372036854775807", "9223372036854775808",
		"999999999999999999", "tls", "-", "(empty)", `a\x09b`, `C:\x0a`, `\\x41`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b := []byte(s)
		t1, e1 := ParseTimeBytes(b)
		t2, e2 := ParseTime(s)
		sameResult(t, "ParseTime", s, t1, t2, e1, e2)
		d1, e1 := ParseIntervalBytes(b)
		d2, e2 := ParseInterval(s)
		sameResult(t, "ParseInterval", s, d1, d2, e1, e2)
		n1, e1 := ParseCountBytes(b)
		n2, e2 := ParseCount(s)
		sameResult(t, "ParseCount", s, n1, n2, e1, e2)
		p1, e1 := ParsePortBytes(b)
		p2, e2 := strconv.ParseUint(s, 10, 16)
		sameResult(t, "ParsePort", s, p1, uint16(p2), e1, e2)
		a1, e1 := ParseAddrBytes(b)
		a2, e2 := netip.ParseAddr(s)
		sameResult(t, "ParseAddr", s, a1, a2, e1, e2)
		var v Vocab
		for i := 0; i < 2; i++ { // a miss, then a hit
			if got, want := v.Parse(b), ParseString(s); got != want {
				t.Errorf("Vocab.Parse(%q) = %q, ParseString = %q", s, got, want)
			}
		}
		if got := ParseString(FormatString(s)); got != s {
			t.Errorf("ParseString(FormatString(%q)) = %q", s, got)
		}
	})
}

// TestConnReaderZeroAllocs pins the in-place decode: after warm-up, a
// canonical conn.log line decodes without allocating, with IPv4 and with
// IPv6 endpoints.
func TestConnReaderZeroAllocs(t *testing.T) {
	v6 := func(r flow.Record) flow.Record {
		o, s := r.OrigAddr.As4(), r.RespAddr.As4()
		r.OrigAddr = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0xca, 0xfe, 0, 0, 0x02, 0x16, 0xb9, 0xff, 0xfe, o[1], o[2], o[3]})
		r.RespAddr = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, s[0], s[1], 0, 0, 0, 0, 0, 0, 0, 0, s[2], s[3]})
		return r
	}
	for _, family := range []struct {
		name string
		addr func(flow.Record) flow.Record
	}{
		{"IPv4", func(r flow.Record) flow.Record { return r }},
		{"IPv6", v6},
	} {
		rng := rand.New(rand.NewSource(3))
		var buf bytes.Buffer
		w := NewConnWriter(&buf)
		for i := 0; i < 400; i++ {
			if err := w.Write(family.addr(randomRecord(rng))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewConnReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ { // warm-up: fills the service vocabulary
			rec, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if family.name == "IPv6" && !rec.RespAddr.Is6() {
				t.Fatalf("%s: decoded %v", family.name, rec.RespAddr)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := r.Next(); err != nil && err != io.EOF {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ConnReader.Next (%s): %v allocs per line, want 0", family.name, allocs)
		}
	}
}
