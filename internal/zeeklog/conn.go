package zeeklog

import (
	"io"
	"strconv"

	"repro/internal/decodeerr"
	"repro/internal/flow"
)

// ConnSchema is the subset of Zeek's conn.log that the pipeline consumes.
var ConnSchema = Schema{
	Path: "conn",
	Fields: []Field{
		{"ts", "time"},
		{"id.orig_h", "addr"},
		{"id.orig_p", "port"},
		{"id.resp_h", "addr"},
		{"id.resp_p", "port"},
		{"proto", "enum"},
		{"service", "string"},
		{"conn_state", "string"},
		{"duration", "interval"},
		{"orig_bytes", "count"},
		{"resp_bytes", "count"},
		{"orig_pkts", "count"},
		{"resp_pkts", "count"},
	},
}

// ConnWriter writes flow records as a Zeek conn.log.
type ConnWriter struct {
	w *Writer
}

// NewConnWriter returns a conn.log writer on w.
func NewConnWriter(w io.Writer) *ConnWriter {
	return &ConnWriter{w: NewWriter(w, ConnSchema)}
}

// Write emits one flow record.
func (c *ConnWriter) Write(r flow.Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	return c.w.Write([]string{
		FormatTime(r.Start),
		r.OrigAddr.String(),
		strconv.Itoa(int(r.OrigPort)),
		r.RespAddr.String(),
		strconv.Itoa(int(r.RespPort)),
		r.Proto.String(),
		FormatString(r.Service),
		r.State.String(),
		FormatInterval(r.Duration),
		FormatCount(r.OrigBytes),
		FormatCount(r.RespBytes),
		FormatCount(r.OrigPkts),
		FormatCount(r.RespPkts),
	})
}

// Count returns the number of records written.
func (c *ConnWriter) Count() int { return c.w.Count() }

// Close flushes the log.
func (c *ConnWriter) Close() error { return c.w.Close() }

// ConnReader reads a conn.log back into flow records.
type ConnReader struct {
	r       *Reader
	service Vocab
}

// NewConnReader validates the header of r and returns a reader.
func NewConnReader(r io.Reader) (*ConnReader, error) {
	rd, err := NewReader(r, ConnSchema)
	if err != nil {
		return nil, err
	}
	return &ConnReader{r: rd}, nil
}

// Next returns the next record or io.EOF. Failures are classified
// (*decodeerr.Error): bad literals are malformed, ports or counts outside
// their domain are out-of-range, and a record that parses but fails
// semantic validation is out-of-range too.
func (c *ConnReader) Next() (flow.Record, error) {
	f, err := c.r.Next()
	if err != nil {
		return flow.Record{}, err
	}
	line := c.r.Line()
	var rec flow.Record
	if rec.Start, err = ParseTimeBytes(f[0]); err != nil {
		return rec, err
	}
	if rec.OrigAddr, err = ParseAddrBytes(f[1]); err != nil {
		return rec, decodeerr.Newf(decodeerr.Malformed, "conn", line, "bad orig addr %q: %w", f[1], err)
	}
	if rec.OrigPort, err = ParsePortBytes(f[2]); err != nil {
		return rec, decodeerr.Newf(decodeerr.NumericClass(err), "conn", line, "bad orig port %q: %w", f[2], err)
	}
	if rec.RespAddr, err = ParseAddrBytes(f[3]); err != nil {
		return rec, decodeerr.Newf(decodeerr.Malformed, "conn", line, "bad resp addr %q: %w", f[3], err)
	}
	if rec.RespPort, err = ParsePortBytes(f[4]); err != nil {
		return rec, decodeerr.Newf(decodeerr.NumericClass(err), "conn", line, "bad resp port %q: %w", f[4], err)
	}
	// Matched in place: ParseProto would copy the field on every line;
	// it runs only to build the error.
	switch string(f[5]) {
	case "tcp":
		rec.Proto = flow.ProtoTCP
	case "udp":
		rec.Proto = flow.ProtoUDP
	default:
		_, err = flow.ParseProto(string(f[5]))
		return rec, decodeerr.New(decodeerr.Malformed, "conn", line, err)
	}
	rec.Service = c.service.Parse(f[6])
	rec.State = flow.ParseConnState(string(f[7]))
	if rec.Duration, err = ParseIntervalBytes(f[8]); err != nil {
		return rec, err
	}
	if rec.OrigBytes, err = ParseCountBytes(f[9]); err != nil {
		return rec, err
	}
	if rec.RespBytes, err = ParseCountBytes(f[10]); err != nil {
		return rec, err
	}
	if rec.OrigPkts, err = ParseCountBytes(f[11]); err != nil {
		return rec, err
	}
	if rec.RespPkts, err = ParseCountBytes(f[12]); err != nil {
		return rec, err
	}
	return rec, decodeerr.New(decodeerr.OutOfRange, "conn", line, rec.Validate())
}

// Raw returns the data line behind the most recent Next, borrowed until
// the next call.
func (c *ConnReader) Raw() []byte { return c.r.Raw() }

// Line returns the input line number of the most recent Next.
func (c *ConnReader) Line() int { return c.r.Line() }
