package zeeklog

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/decodeerr"
)

// testLogWith renders a valid header for testSchema followed by the given
// raw data rows.
func testLogWith(t *testing.T, rows ...string) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, testSchema)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Splice the rows in before the #close trailer.
	out := buf.String()
	idx := strings.Index(out, "#close")
	if idx < 0 {
		t.Fatal("no #close trailer")
	}
	return out[:idx] + strings.Join(rows, "\n") + "\n" + out[idx:]
}

// TestRowArityClassification pins the decode-error taxonomy on the TSV
// layer: rows with too few values are truncated records, rows with too
// many are malformed, and empty fields are not errors at all (Zeek writes
// them as the empty string between tabs).
func TestRowArityClassification(t *testing.T) {
	valid := FormatTime(time.Date(2020, time.March, 11, 12, 0, 0, 0, time.UTC))
	cases := []struct {
		name      string
		row       string
		wantClass decodeerr.Class
		wantOK    bool
	}{
		{"short row", valid + "\talpha", decodeerr.Truncated, false},
		{"single field", valid, decodeerr.Truncated, false},
		{"long row", valid + "\talpha\t42\textra", decodeerr.Malformed, false},
		{"way too long", valid + "\talpha\t42\ta\tb\tc", decodeerr.Malformed, false},
		{"empty middle field", valid + "\t\t42", 0, true},
		{"all empty fields", "\t\t", 0, true},
		{"unset markers", "-\t-\t-", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(strings.NewReader(testLogWith(t, tc.row)), testSchema)
			if err != nil {
				t.Fatal(err)
			}
			vals, err := r.Next()
			if tc.wantOK {
				if err != nil {
					t.Fatalf("Next: %v, want accepted row", err)
				}
				if len(vals) != len(testSchema.Fields) {
					t.Fatalf("got %d values, want %d", len(vals), len(testSchema.Fields))
				}
				return
			}
			if err == nil {
				t.Fatal("Next accepted a bad-arity row")
			}
			// The typed error carries the class, and the legacy sentinel
			// still matches so existing errors.Is callers keep working.
			class, ok := decodeerr.ClassOf(err)
			if !ok || class != tc.wantClass {
				t.Errorf("class = %v (typed %v), want %v", class, ok, tc.wantClass)
			}
			if !errors.Is(err, ErrFieldCount) {
				t.Errorf("err = %v, want wrapped ErrFieldCount", err)
			}
			// The raw line and its position survive for quarantine.
			if string(r.Raw()) != tc.row {
				t.Errorf("Raw() = %q, want %q", r.Raw(), tc.row)
			}
			if r.Line() <= 0 {
				t.Errorf("Line() = %d, want positive", r.Line())
			}
			// The reader itself stays usable: the stream ends cleanly.
			if _, err := r.Next(); err != io.EOF {
				t.Errorf("after bad row: %v, want EOF", err)
			}
		})
	}
}

// TestNumericClassification pins the parse-helper taxonomy: garbage is
// malformed, out-of-range values are their own class (the oversized-field
// corruption shape), and valid values carry no error.
func TestNumericClassification(t *testing.T) {
	if _, err := ParseCount("not-a-number"); err == nil {
		t.Fatal("ParseCount accepted garbage")
	} else if class, _ := decodeerr.ClassOf(err); class != decodeerr.Malformed {
		t.Errorf("garbage count class = %v, want malformed", class)
	}
	if _, err := ParseCount("99999999999999999999999"); err == nil {
		t.Fatal("ParseCount accepted an out-of-range value")
	} else if class, _ := decodeerr.ClassOf(err); class != decodeerr.OutOfRange {
		t.Errorf("oversized count class = %v, want out_of_range", class)
	}
	if _, err := ParseTime("1583020800.notatime"); err == nil {
		t.Fatal("ParseTime accepted garbage")
	} else if class, _ := decodeerr.ClassOf(err); class != decodeerr.Malformed {
		t.Errorf("garbage time class = %v, want malformed", class)
	}
	if _, err := ParseCount("42"); err != nil {
		t.Fatalf("ParseCount(42): %v", err)
	}
}
