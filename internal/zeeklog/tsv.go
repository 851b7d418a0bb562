// Package zeeklog reads and writes Zeek-style tab-separated log files: a
// commented header declaring the path, field names and types, one record
// per line, and the Zeek conventions for unset ("-") and empty ("(empty)")
// values. The campus pipeline's inputs (conn, dhcp, dns, http logs) all use
// this envelope, mirroring the format the real measurement system consumed.
package zeeklog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/decodeerr"
)

// Zeek value conventions.
const (
	Separator = "\t"
	Unset     = "-"
	Empty     = "(empty)"
)

// Errors returned by the reader.
var (
	ErrBadHeader    = errors.New("zeeklog: malformed header")
	ErrFieldCount   = errors.New("zeeklog: wrong field count")
	ErrTypeMismatch = errors.New("zeeklog: header types do not match schema")
)

// Schema describes one log type: its Zeek path and ordered field
// name/type pairs.
type Schema struct {
	Path   string
	Fields []Field
}

// Field is one column.
type Field struct {
	Name string
	Type string // Zeek type name: time, interval, addr, port, count, int, string, bool, double
}

// Writer emits records under a schema.
type Writer struct {
	w      *bufio.Writer
	schema Schema
	wrote  bool
	count  int
}

// NewWriter returns a writer for the given schema. The header is written on
// the first record (or at Close for an empty log).
func NewWriter(w io.Writer, schema Schema) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), schema: schema}
}

func (w *Writer) writeHeader() error {
	names := make([]string, len(w.schema.Fields))
	types := make([]string, len(w.schema.Fields))
	for i, f := range w.schema.Fields {
		names[i], types[i] = f.Name, f.Type
	}
	var sb strings.Builder
	sb.WriteString("#separator \\x09\n")
	sb.WriteString("#set_separator\t,\n")
	sb.WriteString("#empty_field\t(empty)\n")
	sb.WriteString("#unset_field\t-\n")
	fmt.Fprintf(&sb, "#path\t%s\n", w.schema.Path)
	fmt.Fprintf(&sb, "#fields\t%s\n", strings.Join(names, Separator))
	fmt.Fprintf(&sb, "#types\t%s\n", strings.Join(types, Separator))
	w.wrote = true
	_, err := w.w.WriteString(sb.String())
	return err
}

// Write emits one record. values must match the schema arity; the caller is
// responsible for Zeek-encoding each value (see the Format helpers).
func (w *Writer) Write(values []string) error {
	if len(values) != len(w.schema.Fields) {
		return fmt.Errorf("%w: got %d values for %d fields", ErrFieldCount, len(values), len(w.schema.Fields))
	}
	if !w.wrote {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	for i, v := range values {
		if i > 0 {
			if err := w.w.WriteByte('\t'); err != nil {
				return err
			}
		}
		if _, err := w.w.WriteString(v); err != nil {
			return err
		}
	}
	w.count++
	return w.w.WriteByte('\n')
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.count }

// Close flushes the writer, emitting the header and a #close trailer.
func (w *Writer) Close() error {
	if !w.wrote {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	if _, err := w.w.WriteString("#close\n"); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader consumes records under a schema, validating the header against it.
//
// Record-level failures are classified (*decodeerr.Error): a row with fewer
// fields than the schema is a truncated record (the tail was cut, typically
// by a torn write), a row with more is malformed. A failed Next does not
// poison the reader — the next call resumes at the following line, so a
// fault-tolerant caller can skip-and-count bad records.
type Reader struct {
	s      *bufio.Scanner
	schema Schema
	line   int
	raw    []byte
	// fields is the reusable record buffer Next splits into; the slice
	// and the bytes it points at are borrowed until the next call.
	fields [][]byte
}

// NewReader parses the header from r and validates it against schema.
func NewReader(r io.Reader, schema Schema) (*Reader, error) {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 1<<16), 1<<20)
	rd := &Reader{s: s, schema: schema}
	var sawFields bool
	for s.Scan() {
		rd.line++
		line := s.Text()
		if !strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("%w: data before #fields at line %d", ErrBadHeader, rd.line)
		}
		parts := strings.Split(line, Separator)
		switch {
		case strings.HasPrefix(parts[0], "#fields"):
			if err := rd.checkColumns(parts[1:], func(f Field) string { return f.Name }); err != nil {
				return nil, err
			}
			sawFields = true
		case strings.HasPrefix(parts[0], "#types"):
			if err := rd.checkColumns(parts[1:], func(f Field) string { return f.Type }); err != nil {
				return nil, err
			}
			if !sawFields {
				return nil, fmt.Errorf("%w: #types before #fields", ErrBadHeader)
			}
			return rd, nil
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%w: missing #fields/#types", ErrBadHeader)
}

func (r *Reader) checkColumns(got []string, sel func(Field) string) error {
	if len(got) != len(r.schema.Fields) {
		return fmt.Errorf("%w: %d columns, schema has %d", ErrTypeMismatch, len(got), len(r.schema.Fields))
	}
	for i, f := range r.schema.Fields {
		if got[i] != sel(f) {
			return fmt.Errorf("%w: column %d is %q, want %q", ErrTypeMismatch, i, got[i], sel(f))
		}
	}
	return nil
}

// Next returns the next record's fields, or io.EOF. Comment lines
// (including #close) are skipped. A wrong-arity row yields a classified
// *decodeerr.Error wrapping ErrFieldCount — truncated when short (the
// record lost its tail), malformed when long — and leaves the reader
// positioned at the following line.
//
// The fields are split in place from the scanner's line buffer: the
// slice and every byte it points at are borrowed, and the next Next call
// overwrites them. Callers decode (or copy) the values before advancing;
// the Parse*Bytes helpers and Vocab decode without copying.
func (r *Reader) Next() ([][]byte, error) {
	for r.s.Scan() {
		r.line++
		line := r.s.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		r.raw = line
		fields := r.fields[:0]
		for {
			i := bytes.IndexByte(line, '\t')
			if i < 0 {
				fields = append(fields, line)
				break
			}
			fields = append(fields, line[:i])
			line = line[i+1:]
		}
		r.fields = fields
		if len(fields) != len(r.schema.Fields) {
			class := decodeerr.Malformed
			if len(fields) < len(r.schema.Fields) {
				class = decodeerr.Truncated
			}
			return nil, decodeerr.Newf(class, "zeeklog", r.line,
				"%w: %d values for %d fields", ErrFieldCount, len(fields), len(r.schema.Fields))
		}
		return fields, nil
	}
	r.raw = nil
	if err := r.s.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// Raw returns the data line behind the most recent Next (accepted or
// rejected) — the replay guard quarantines it and detects verbatim
// adjacent duplicates with it. Like the fields, it is borrowed until the
// next Next call: a caller that keeps it must copy it.
func (r *Reader) Raw() []byte { return r.raw }

// Line returns the 1-based input line number of the most recent Next.
func (r *Reader) Line() int { return r.line }

// FormatTime encodes a timestamp as Zeek epoch seconds with microsecond
// precision.
func FormatTime(t time.Time) string {
	return strconv.FormatFloat(float64(t.UnixMicro())/1e6, 'f', 6, 64)
}

// ParseTime decodes a Zeek epoch timestamp.
func ParseTime(s string) (time.Time, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return time.Time{}, decodeerr.Newf(decodeerr.NumericClass(err), "zeeklog", 0,
			"bad time %q: %w", s, err)
	}
	return timeOf(f), nil
}

func timeOf(f float64) time.Time { return time.UnixMicro(int64(math.Round(f * 1e6))).UTC() }

// FormatInterval encodes a duration as fractional seconds.
func FormatInterval(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 6, 64)
}

// ParseInterval decodes a fractional-seconds duration.
func ParseInterval(s string) (time.Duration, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, decodeerr.Newf(decodeerr.NumericClass(err), "zeeklog", 0,
			"bad interval %q: %w", s, err)
	}
	return intervalOf(f), nil
}

func intervalOf(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// FormatCount encodes a non-negative integer.
func FormatCount(v int64) string { return strconv.FormatInt(v, 10) }

// ParseCount decodes a count field. An overflowing value is classified
// out-of-range (the oversized-field fault signature); other failures are
// malformed.
func ParseCount(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, decodeerr.Newf(decodeerr.NumericClass(err), "zeeklog", 0,
			"bad count %q: %w", s, err)
	}
	return v, nil
}

// FormatString encodes a string value in Zeek's escaping: "" becomes the
// empty marker, a backslash is doubled, tab and newline become \x09 and
// \x0a, and a value that spells one of the two markers has its first byte
// hex-escaped so it does not read back as unset or empty.
func FormatString(s string) string {
	switch s {
	case "":
		return Empty
	case Unset:
		return `\x2d`
	case Empty:
		return `\x28empty)`
	}
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "\t", "\\x09")
	s = strings.ReplaceAll(s, "\n", "\\x0a")
	return s
}

// ParseString decodes a string value in one left-to-right pass: the two
// markers decode to "", \\ to a backslash, \xHH to the byte 0xHH, and any
// other backslash stands for itself. ParseString(FormatString(s)) == s for
// every s. A value without a backslash is returned as is, without a copy.
func ParseString(s string) string {
	switch s {
	case Empty, Unset:
		return ""
	}
	i := strings.IndexByte(s, '\\')
	if i < 0 {
		return s
	}
	out := make([]byte, i, len(s))
	copy(out, s)
	for ; i < len(s); i++ {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			if s[i+1] == '\\' {
				i++
			} else if v, ok := hexEscape(s[i+1:]); ok {
				c = v
				i += 3
			}
		}
		out = append(out, c)
	}
	return string(out)
}

// hexEscape decodes the "xHH" tail of a \xHH escape.
func hexEscape(s string) (byte, bool) {
	if len(s) < 3 || s[0] != 'x' {
		return 0, false
	}
	hi, ok1 := hexDigit(s[1])
	lo, ok2 := hexDigit(s[2])
	return hi<<4 | lo, ok1 && ok2
}

func hexDigit(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
