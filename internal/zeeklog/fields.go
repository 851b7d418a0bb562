package zeeklog

import (
	"math"
	"net/netip"
	"strconv"
	"time"
)

// Byte fast paths for the typed fields a Reader hands out. Each decodes
// the canonical spelling the writers emit straight from the borrowed
// field and falls back to the string parser for anything else, so values,
// decode classes and error messages are the string parser's on every
// input (FuzzFieldBytes holds them to that).

// ParseTimeBytes is ParseTime on a borrowed field.
func ParseTimeBytes(b []byte) (time.Time, error) {
	if f, ok := micros(b); ok {
		return timeOf(f), nil
	}
	return ParseTime(string(b))
}

// ParseIntervalBytes is ParseInterval on a borrowed field.
func ParseIntervalBytes(b []byte) (time.Duration, error) {
	if f, ok := micros(b); ok {
		return intervalOf(f), nil
	}
	return ParseInterval(string(b))
}

// micros decodes the FormatTime/FormatInterval shape: digits, a dot and
// exactly six digits, worth at most 2^53 micro-units. float64(n)/1e6 is
// then bit for bit strconv.ParseFloat's result: n and 1e6 are exact
// doubles and IEEE division rounds correctly, so both give the double
// nearest the decimal value.
func micros(b []byte) (float64, bool) {
	dot := len(b) - 7
	if dot < 1 || len(b) > 17 || b[dot] != '.' {
		return 0, false
	}
	var n uint64
	for i, c := range b {
		if i == dot {
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if n > 1<<53 {
		return 0, false
	}
	return float64(n) / 1e6, true
}

// ParseCountBytes is ParseCount on a borrowed field.
func ParseCountBytes(b []byte) (int64, error) {
	if n, ok := digits(b, 18); ok {
		return int64(n), nil
	}
	return ParseCount(string(b))
}

// ParsePortBytes is strconv.ParseUint(s, 10, 16) on a borrowed field,
// returning its error unwrapped for the caller to classify.
func ParsePortBytes(b []byte) (uint16, error) {
	if n, ok := digits(b, 5); ok && n <= math.MaxUint16 {
		return uint16(n), nil
	}
	n, err := strconv.ParseUint(string(b), 10, 16)
	return uint16(n), err
}

// digits decodes 1 to max decimal digits (max ≤ 19 cannot overflow).
func digits(b []byte, max int) (uint64, bool) {
	if len(b) == 0 || len(b) > max {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// ParseAddrBytes is netip.ParseAddr on a borrowed field. Dotted-quad IPv4
// and plain IPv6 literals decode in place; the rest (zones, embedded IPv4
// tails, malformed input) take netip.ParseAddr, which owns the errors.
func ParseAddrBytes(b []byte) (netip.Addr, error) {
	if a, ok := ipv4(b); ok {
		return a, nil
	}
	if a, ok := ipv6(b); ok {
		return a, nil
	}
	return netip.ParseAddr(string(b))
}

// ipv6 decodes an IPv6 literal made only of hex groups of 1-4 digits and
// colons, with at most one "::" standing for at least one zero group —
// exactly the zone-free literals without an IPv4 tail that
// netip.ParseAddr accepts, decoded the way it decodes them. Anything else
// reports false.
func ipv6(b []byte) (netip.Addr, bool) {
	var ip [16]byte
	ellipsis := -1 // byte offset in ip where "::" stands
	if len(b) >= 2 && b[0] == ':' && b[1] == ':' {
		ellipsis = 0
		b = b[2:]
		if len(b) == 0 {
			return netip.IPv6Unspecified(), true
		}
	}
	i := 0
	for i < 16 {
		off, acc := 0, 0
		for ; off < len(b); off++ {
			v, ok := hexDigit(b[off])
			if !ok {
				break
			}
			acc = acc<<4 | int(v)
		}
		if off == 0 || off > 4 {
			return netip.Addr{}, false
		}
		ip[i], ip[i+1] = byte(acc>>8), byte(acc)
		i += 2
		b = b[off:]
		if len(b) == 0 {
			break
		}
		if b[0] != ':' || len(b) == 1 {
			return netip.Addr{}, false // an IPv4 tail, a zone, or garbage
		}
		b = b[1:]
		if b[0] == ':' {
			if ellipsis >= 0 {
				return netip.Addr{}, false
			}
			ellipsis = i
			b = b[1:]
			if len(b) == 0 {
				break
			}
		}
	}
	if len(b) != 0 {
		return netip.Addr{}, false
	}
	if i < 16 {
		if ellipsis < 0 {
			return netip.Addr{}, false
		}
		n := 16 - i
		copy(ip[ellipsis+n:], ip[ellipsis:i])
		clear(ip[ellipsis : ellipsis+n])
	} else if ellipsis >= 0 {
		return netip.Addr{}, false
	}
	return netip.AddrFrom16(ip), true
}

// ipv4 decodes a dotted quad of 1-3 digit octets ≤ 255 without leading
// zeros — exactly the IPv4 literals netip.ParseAddr accepts.
func ipv4(b []byte) (netip.Addr, bool) {
	var q [4]byte
	k, v, nd := 0, 0, 0 // octet index, its value, its digit count
	for _, c := range b {
		switch {
		case c == '.':
			if nd == 0 || k == 3 {
				return netip.Addr{}, false
			}
			q[k] = byte(v)
			k, v, nd = k+1, 0, 0
		case c >= '0' && c <= '9':
			if nd > 0 && v == 0 {
				return netip.Addr{}, false // leading zero
			}
			v, nd = v*10+int(c-'0'), nd+1
			if v > 255 {
				return netip.Addr{}, false
			}
		default:
			return netip.Addr{}, false
		}
	}
	if k != 3 || nd == 0 {
		return netip.Addr{}, false
	}
	q[3] = byte(v)
	return netip.AddrFrom4(q), true
}

// vocabMax bounds a Vocab: a column with a small vocabulary (conn
// service, DNS query, HTTP host and user agent) fits with room to spare,
// and a column that turns out not to repeat stops growing the table.
const vocabMax = 1024

// Vocab decodes one string column of a reader, handing out one shared
// string per distinct raw value, so a repeated value costs a map probe
// instead of an allocation. The first vocabMax distinct values are kept;
// later ones decode to a fresh string each. The zero value is ready to
// use. Not safe for concurrent use.
type Vocab struct {
	m map[string]string
}

// Parse is ParseString on a borrowed field.
func (v *Vocab) Parse(b []byte) string {
	if s, ok := v.m[string(b)]; ok {
		return s
	}
	raw := string(b)
	s := ParseString(raw)
	if v.m == nil {
		v.m = make(map[string]string)
	}
	if len(v.m) < vocabMax {
		v.m[raw] = s
	}
	return s
}
