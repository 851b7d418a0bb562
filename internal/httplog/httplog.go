// Package httplog carries the cleartext HTTP metadata side channel of the
// capture: for the minority of flows that are plain HTTP, the tap records
// the Host header and User-Agent string. This is the pipeline's only source
// of User-Agent evidence for device classification (§3) — HTTPS-only
// devices never appear here, which is one reason many devices stay
// unclassified.
package httplog

import (
	"io"
	"net/netip"
	"time"

	"repro/internal/decodeerr"
	"repro/internal/zeeklog"
)

// Entry is one observed HTTP request's metadata.
type Entry struct {
	Time      time.Time
	Client    netip.Addr
	Host      string
	UserAgent string
}

// Schema is the Zeek-style envelope (a subset of Zeek's http.log).
var Schema = zeeklog.Schema{
	Path: "http",
	Fields: []zeeklog.Field{
		{Name: "ts", Type: "time"},
		{Name: "id.orig_h", Type: "addr"},
		{Name: "host", Type: "string"},
		{Name: "user_agent", Type: "string"},
	},
}

// Writer persists entries as a Zeek-style http log.
type Writer struct {
	w *zeeklog.Writer
}

// NewWriter returns an http log writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: zeeklog.NewWriter(w, Schema)}
}

// Write emits one entry.
func (lw *Writer) Write(e Entry) error {
	return lw.w.Write([]string{
		zeeklog.FormatTime(e.Time),
		e.Client.String(),
		zeeklog.FormatString(e.Host),
		zeeklog.FormatString(e.UserAgent),
	})
}

// Close flushes the log.
func (lw *Writer) Close() error { return lw.w.Close() }

// Reader reads entries back.
type Reader struct {
	r        *zeeklog.Reader
	host, ua zeeklog.Vocab
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	rd, err := zeeklog.NewReader(r, Schema)
	if err != nil {
		return nil, err
	}
	return &Reader{r: rd}, nil
}

// Next returns the next entry or io.EOF. Failures are classified
// (*decodeerr.Error) so a fault-tolerant replay can skip-and-count them.
func (lr *Reader) Next() (Entry, error) {
	f, err := lr.r.Next()
	if err != nil {
		return Entry{}, err
	}
	line := lr.r.Line()
	var e Entry
	if e.Time, err = zeeklog.ParseTimeBytes(f[0]); err != nil {
		return e, err
	}
	if e.Client, err = zeeklog.ParseAddrBytes(f[1]); err != nil {
		return e, decodeerr.Newf(decodeerr.Malformed, "http", line, "bad client %q: %w", f[1], err)
	}
	e.Host = lr.host.Parse(f[2])
	e.UserAgent = lr.ua.Parse(f[3])
	return e, nil
}

// Raw returns the data line behind the most recent Next, borrowed until
// the next call.
func (lr *Reader) Raw() []byte { return lr.r.Raw() }

// Line returns the input line number of the most recent Next.
func (lr *Reader) Line() int { return lr.r.Line() }
