package dhcp

import (
	"io"

	"repro/internal/decodeerr"
	"repro/internal/packet"
	"repro/internal/zeeklog"
)

// LogSchema is the Zeek-style envelope for lease logs.
var LogSchema = zeeklog.Schema{
	Path: "dhcp",
	Fields: []zeeklog.Field{
		{Name: "ts", Type: "time"},
		{Name: "mac", Type: "string"},
		{Name: "assigned_addr", Type: "addr"},
		{Name: "lease_end", Type: "time"},
	},
}

// LogWriter persists leases as a Zeek-style dhcp log.
type LogWriter struct {
	w *zeeklog.Writer
}

// NewLogWriter returns a lease log writer on w.
func NewLogWriter(w io.Writer) *LogWriter {
	return &LogWriter{w: zeeklog.NewWriter(w, LogSchema)}
}

// Write emits one lease.
func (lw *LogWriter) Write(l Lease) error {
	return lw.w.Write([]string{
		zeeklog.FormatTime(l.Start),
		l.MAC.String(),
		l.Addr.String(),
		zeeklog.FormatTime(l.End),
	})
}

// Close flushes the log.
func (lw *LogWriter) Close() error { return lw.w.Close() }

// LogReader reads leases back from a Zeek-style dhcp log.
type LogReader struct {
	r *zeeklog.Reader
}

// NewLogReader validates the header and returns a reader.
func NewLogReader(r io.Reader) (*LogReader, error) {
	rd, err := zeeklog.NewReader(r, LogSchema)
	if err != nil {
		return nil, err
	}
	return &LogReader{r: rd}, nil
}

// Next returns the next lease or io.EOF. Failures are classified
// (*decodeerr.Error) so a fault-tolerant replay can skip-and-count them.
func (lr *LogReader) Next() (Lease, error) {
	f, err := lr.r.Next()
	if err != nil {
		return Lease{}, err
	}
	line := lr.r.Line()
	var l Lease
	if l.Start, err = zeeklog.ParseTimeBytes(f[0]); err != nil {
		return l, err
	}
	if l.MAC, err = parseMAC(f[1]); err != nil {
		return l, decodeerr.New(decodeerr.Malformed, "dhcp", line, err)
	}
	if l.Addr, err = zeeklog.ParseAddrBytes(f[2]); err != nil {
		return l, decodeerr.Newf(decodeerr.Malformed, "dhcp", line, "bad address %q: %w", f[2], err)
	}
	if l.End, err = zeeklog.ParseTimeBytes(f[3]); err != nil {
		return l, err
	}
	return l, nil
}

// parseMAC is packet.ParseMAC on a borrowed field: six colon-separated
// two-digit hex octets decode in place, anything else goes to ParseMAC.
func parseMAC(b []byte) (packet.MAC, error) {
	var m packet.MAC
	if len(b) == 17 {
		ok := true
		for i := range m {
			hi, lo := unhex(b[3*i]), unhex(b[3*i+1])
			ok = ok && hi < 16 && lo < 16 && (i == 5 || b[3*i+2] == ':')
			m[i] = hi<<4 | lo
		}
		if ok {
			return m, nil
		}
	}
	return packet.ParseMAC(string(b))
}

// unhex returns a hex digit's value, or 16 for any other byte.
func unhex(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10
	}
	return 16
}

// Raw returns the data line behind the most recent Next, borrowed until
// the next call.
func (lr *LogReader) Raw() []byte { return lr.r.Raw() }

// Line returns the input line number of the most recent Next.
func (lr *LogReader) Line() int { return lr.r.Line() }

// ReadAll drains a lease log into a slice.
func ReadAll(r io.Reader) ([]Lease, error) {
	lr, err := NewLogReader(r)
	if err != nil {
		return nil, err
	}
	var out []Lease
	for {
		l, err := lr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
}
