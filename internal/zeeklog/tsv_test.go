package zeeklog

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var testSchema = Schema{
	Path: "test",
	Fields: []Field{
		{"ts", "time"},
		{"name", "string"},
		{"n", "count"},
	},
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testSchema)
	ts := time.Date(2020, time.March, 11, 12, 0, 0, 250000000, time.UTC)
	rows := [][]string{
		{FormatTime(ts), FormatString("alpha"), FormatCount(42)},
		{FormatTime(ts.Add(time.Second)), FormatString(""), FormatCount(0)},
		{FormatTime(ts.Add(2 * time.Second)), FormatString("tab\there"), FormatCount(7)},
	}
	for _, row := range rows {
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(rows) {
		t.Errorf("Count = %d", w.Count())
	}

	out := buf.String()
	for _, want := range []string{"#path\ttest", "#fields\tts\tname\tn", "#types\ttime\tstring\tcount", "#close"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}

	r, err := NewReader(strings.NewReader(out), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	got0, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTimeBytes(got0[0])
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(ts) {
		t.Errorf("time round trip: %v != %v", back, ts)
	}
	if ParseString(string(got0[1])) != "alpha" || string(got0[2]) != "42" {
		t.Errorf("row 0 = %q", got0)
	}
	got1, _ := r.Next()
	if s := ParseString(string(got1[1])); s != "" {
		t.Errorf("empty string round trip = %q", s)
	}
	got2, _ := r.Next()
	if s := ParseString(string(got2[1])); s != "tab\there" {
		t.Errorf("escaped string round trip = %q", s)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestWriteWrongArity(t *testing.T) {
	w := NewWriter(io.Discard, testSchema)
	if err := w.Write([]string{"just-one"}); !errors.Is(err, ErrFieldCount) {
		t.Errorf("err = %v, want ErrFieldCount", err)
	}
}

func TestReaderSchemaMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testSchema)
	w.Write([]string{FormatTime(time.Now()), "x", "1"})
	w.Close()
	other := Schema{Path: "test", Fields: []Field{{"ts", "time"}, {"name", "string"}}}
	if _, err := NewReader(bytes.NewReader(buf.Bytes()), other); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("err = %v, want ErrTypeMismatch", err)
	}
	renamed := testSchema
	renamed.Fields = append([]Field(nil), testSchema.Fields...)
	renamed.Fields[1] = Field{"nom", "string"}
	if _, err := NewReader(bytes.NewReader(buf.Bytes()), renamed); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("renamed field err = %v, want ErrTypeMismatch", err)
	}
}

func TestReaderMissingHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("no header at all\n"), testSchema); !errors.Is(err, ErrBadHeader) {
		t.Errorf("err = %v, want ErrBadHeader", err)
	}
	if _, err := NewReader(strings.NewReader(""), testSchema); !errors.Is(err, ErrBadHeader) {
		t.Errorf("empty input err = %v, want ErrBadHeader", err)
	}
}

func TestReaderBadRowArity(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testSchema)
	w.Write([]string{FormatTime(time.Now()), "x", "1"})
	w.Close()
	corrupted := strings.Replace(buf.String(), "x\t1", "x", 1)
	r, err := NewReader(strings.NewReader(corrupted), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrFieldCount) {
		t.Errorf("err = %v, want ErrFieldCount", err)
	}
}

func TestEmptyLogHasHeaderAndClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testSchema)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestTimeRoundTripProperty(t *testing.T) {
	f := func(sec int32, micros uint32) bool {
		ts := time.Unix(int64(sec)+1500000000, int64(micros%1000000)*1000).UTC()
		back, err := ParseTime(FormatTime(ts))
		return err == nil && back.Equal(ts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalRoundTripProperty(t *testing.T) {
	f := func(ms uint32) bool {
		d := time.Duration(ms) * time.Millisecond
		back, err := ParseInterval(FormatInterval(d))
		if err != nil {
			return false
		}
		diff := back - d
		if diff < 0 {
			diff = -diff
		}
		return diff <= time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringEscapingProperty(t *testing.T) {
	f := func(s string) bool {
		enc := FormatString(s)
		if strings.ContainsAny(enc, "\t\n") {
			return false // encoded value must be TSV-safe
		}
		return ParseString(enc) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
