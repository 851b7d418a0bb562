package dnssim

import (
	"io"

	"repro/internal/decodeerr"
	"repro/internal/zeeklog"
)

// LogSchema is the Zeek-style envelope for resolver logs.
var LogSchema = zeeklog.Schema{
	Path: "dns",
	Fields: []zeeklog.Field{
		{Name: "ts", Type: "time"},
		{Name: "id.orig_h", Type: "addr"},
		{Name: "query", Type: "string"},
		{Name: "answer", Type: "addr"},
		{Name: "ttl", Type: "interval"},
	},
}

// LogWriter persists resolver entries as a Zeek-style dns log.
type LogWriter struct {
	w *zeeklog.Writer
}

// NewLogWriter returns a dns log writer on w.
func NewLogWriter(w io.Writer) *LogWriter {
	return &LogWriter{w: zeeklog.NewWriter(w, LogSchema)}
}

// Write emits one entry.
func (lw *LogWriter) Write(e Entry) error {
	return lw.w.Write([]string{
		zeeklog.FormatTime(e.Time),
		e.Client.String(),
		zeeklog.FormatString(e.Query),
		e.Answer.String(),
		zeeklog.FormatInterval(e.TTL),
	})
}

// Close flushes the log.
func (lw *LogWriter) Close() error { return lw.w.Close() }

// LogReader reads entries back from a Zeek-style dns log.
type LogReader struct {
	r     *zeeklog.Reader
	query zeeklog.Vocab
}

// NewLogReader validates the header and returns a reader.
func NewLogReader(r io.Reader) (*LogReader, error) {
	rd, err := zeeklog.NewReader(r, LogSchema)
	if err != nil {
		return nil, err
	}
	return &LogReader{r: rd}, nil
}

// Next returns the next entry or io.EOF. Failures are classified
// (*decodeerr.Error) so a fault-tolerant replay can skip-and-count them.
func (lr *LogReader) Next() (Entry, error) {
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
		return e, decodeerr.Newf(decodeerr.Malformed, "dns", line, "bad client %q: %w", f[1], err)
	}
	e.Query = lr.query.Parse(f[2])
	if e.Answer, err = zeeklog.ParseAddrBytes(f[3]); err != nil {
		return e, decodeerr.Newf(decodeerr.Malformed, "dns", line, "bad answer %q: %w", f[3], err)
	}
	if e.TTL, err = zeeklog.ParseIntervalBytes(f[4]); err != nil {
		return e, err
	}
	return e, nil
}

// Raw returns the data line behind the most recent Next, borrowed until
// the next call.
func (lr *LogReader) Raw() []byte { return lr.r.Raw() }

// Line returns the input line number of the most recent Next.
func (lr *LogReader) Line() int { return lr.r.Line() }
