// Package faultline is the ingest fault-injection and fault-policy layer.
//
// The paper's pipeline ran unattended for four months against live campus
// traffic, where truncated Zeek logs, malformed wire data and mid-rotation
// corruption are routine. This package makes that failure surface testable
// and survivable:
//
//   - a deterministic, seeded corruption injector (Reader, CorruptDataset)
//     that applies configurable fault classes — byte flips, mid-record
//     truncation, duplicated and reordered records, oversized fields,
//     invalid UTF-8, torn writes at rotation boundaries — to any replayed
//     log stream at a given rate;
//   - a Guard implementing the error-budget policies (skip-and-count,
//     quarantine-to-sidecar, abort-above-threshold) over the typed
//     decode errors (internal/decodeerr) the hardened parsers return,
//     with per-class drop counters threaded through internal/obs.
//
// Everything is deterministic under (Seed, Rate, Classes): the same input
// produces byte-identical corruption regardless of read chunking, so the
// differential robustness harness is a regression test, not a dice roll.
package faultline

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
)

// Class is one corruption fault class.
type Class uint8

// Fault classes. The first six are drawn per record at Config.Rate; torn
// tails are positional (they model a write cut off at a rotation boundary)
// and applied to the final record when Config.TornTail is set.
const (
	// FaultByteFlip flips one bit of one byte of the record.
	FaultByteFlip Class = iota
	// FaultTruncate cuts the record mid-way, losing its tail.
	FaultTruncate
	// FaultDuplicate writes the record twice back to back — the doubled
	// write a crash-looping logger produces around rotation.
	FaultDuplicate
	// FaultReorder swaps the record with its successor.
	FaultReorder
	// FaultOversize inflates a numeric field beyond its type's range (or,
	// with no numeric field, pads the record with a 4 KiB tail).
	FaultOversize
	// FaultBadUTF8 splices invalid UTF-8 bytes into the record.
	FaultBadUTF8
	// FaultTornTail cuts the final record mid-way and drops its newline —
	// a torn write at the end of a rotated file.
	FaultTornTail
	NumFaults
)

var faultNames = [NumFaults]string{
	"byte_flip", "truncate", "duplicate", "reorder",
	"oversize", "bad_utf8", "torn_tail",
}

// String returns the fault class's snake_case name.
func (c Class) String() string {
	if int(c) < len(faultNames) {
		return faultNames[c]
	}
	return "unknown"
}

// AllClasses is the default per-record fault mix (everything except the
// positional torn tail).
var AllClasses = []Class{
	FaultByteFlip, FaultTruncate, FaultDuplicate,
	FaultReorder, FaultOversize, FaultBadUTF8,
}

// Config parameterizes an injector. The zero Rate disables per-record
// faults (useful to apply only a torn tail).
type Config struct {
	// Seed drives all fault decisions; equal seeds replay identical
	// corruption on identical input.
	Seed int64
	// Rate is the per-record fault probability (0.001 = 0.1%).
	Rate float64
	// Classes is the fault mix drawn from at Rate; nil means AllClasses.
	Classes []Class
	// TornTail additionally cuts the final record mid-way (torn write).
	TornTail bool
}

// Sub derives a stream-specific config so every file of a dataset is
// corrupted independently but reproducibly.
func (c Config) Sub(name string) Config {
	h := fnv.New64a()
	_, _ = io.WriteString(h, name)
	c.Seed ^= int64(h.Sum64() &^ (1 << 63))
	return c
}

// Report accounts what an injector did: how many records it read, how many
// it emitted (duplicates add one), and the faults applied per class.
type Report struct {
	Records int64 // records read from the source
	Emitted int64 // records emitted (Records + duplicates)
	Faults  [NumFaults]int64
}

// Total returns the number of faults applied across all classes.
func (r Report) Total() int64 {
	var n int64
	for _, f := range r.Faults {
		n += f
	}
	return n
}

// Merge folds another report into r.
func (r *Report) Merge(o Report) {
	r.Records += o.Records
	r.Emitted += o.Emitted
	for i := range r.Faults {
		r.Faults[i] += o.Faults[i]
	}
}

// String renders the report compactly for status lines.
func (r Report) String() string {
	var parts []string
	for c, n := range r.Faults {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", Class(c), n))
		}
	}
	return fmt.Sprintf("%d/%d records faulted [%s]", r.Total(), r.Records, strings.Join(parts, " "))
}

// Reader streams a Zeek-style log through the corruption injector: header
// and comment lines pass verbatim (a corrupted header would kill the whole
// file, which is abort-policy territory, not graceful degradation), data
// records are faulted per Config. Corruption is line-deterministic — the
// caller's Read chunk sizes do not change the output.
type Reader struct {
	s    *bufio.Scanner
	rng  *rand.Rand
	cfg  Config
	out  bytes.Buffer
	held []byte // record awaiting a reorder swap
	// Under TornTail, output lags the input by one line (deferred/haveDef)
	// so the physical last line is still in hand at EOF to tear.
	deferred []byte
	haveDef  bool
	rep      Report
	eof      bool
}

// NewReader wraps src with a corruption injector under cfg.
func NewReader(src io.Reader, cfg Config) *Reader {
	if cfg.Classes == nil {
		cfg.Classes = AllClasses
	}
	s := bufio.NewScanner(src)
	s.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &Reader{s: s, rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// Report returns the injector's accounting so far (complete after EOF).
func (r *Reader) Report() Report { return r.rep }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	for r.out.Len() == 0 && !r.eof {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	if r.out.Len() == 0 {
		return 0, io.EOF
	}
	return r.out.Read(p)
}

// fill advances one input line, appending its (possibly corrupted) output.
func (r *Reader) fill() error {
	if !r.s.Scan() {
		if err := r.s.Err(); err != nil {
			return err
		}
		r.finish()
		r.eof = true
		return nil
	}
	line := r.s.Text()
	if line == "" || strings.HasPrefix(line, "#") {
		// Structure lines pass through; flush a pending swap first so a
		// held record never crosses a #close trailer.
		r.flushHeld()
		r.write([]byte(line))
		return nil
	}
	r.rep.Records++
	if r.held != nil {
		// Complete the reorder: successor first, held record after. The
		// successor is emitted verbatim — structural faults don't stack.
		r.emit([]byte(line))
		r.flushHeld()
		return nil
	}
	if r.cfg.Rate <= 0 || r.rng.Float64() >= r.cfg.Rate {
		r.emit([]byte(line))
		return nil
	}
	r.corrupt([]byte(line))
	return nil
}

// emit writes one record line.
func (r *Reader) emit(line []byte) {
	r.rep.Emitted++
	r.write(line)
}

// write appends one output line. Under TornTail it lags one line behind so
// finish still holds the file's physical last line.
func (r *Reader) write(line []byte) {
	if !r.cfg.TornTail {
		r.out.Write(line)
		r.out.WriteByte('\n')
		return
	}
	if r.haveDef {
		r.out.Write(r.deferred)
		r.out.WriteByte('\n')
	}
	r.deferred = append(r.deferred[:0], line...)
	r.haveDef = true
}

func (r *Reader) flushHeld() {
	if r.held != nil {
		h := r.held
		r.held = nil
		r.emit(h)
	}
}

// finish handles EOF: flush a dangling reorder, then tear the deferred
// physical last line mid-way and drop its newline — a torn write cuts the
// end of the file regardless of what the final line is (a torn #close is
// invisible to parsers; a torn record surfaces exactly one truncation).
func (r *Reader) finish() {
	r.flushHeld()
	if !r.cfg.TornTail || !r.haveDef {
		return
	}
	r.haveDef = false
	if len(r.deferred) < 2 {
		r.out.Write(r.deferred)
		return
	}
	cut := 1 + r.rng.Intn(len(r.deferred)-1)
	r.out.Write(r.deferred[:cut])
	r.rep.Faults[FaultTornTail]++
}

// corrupt applies one randomly chosen fault class to the record.
func (r *Reader) corrupt(line []byte) {
	class := r.cfg.Classes[r.rng.Intn(len(r.cfg.Classes))]
	switch class {
	case FaultByteFlip:
		r.emit(r.flip(line))
	case FaultTruncate:
		if len(line) < 2 {
			r.emit(line)
			return
		}
		r.emit(line[:1+r.rng.Intn(len(line)-1)])
	case FaultDuplicate:
		r.emit(line)
		r.rep.Records++ // the copy is offered to the parser as its own record
		r.emit(line)
	case FaultReorder:
		r.held = append([]byte(nil), line...)
	case FaultOversize:
		r.emit(oversize(line))
	case FaultBadUTF8:
		pos := r.rng.Intn(len(line) + 1)
		bad := append(append(append([]byte(nil), line[:pos]...), 0xff, 0xfe, 0xfd), line[pos:]...)
		r.emit(bad)
	default:
		r.emit(line)
	}
	r.rep.Faults[class]++
}

// flip flips one bit of one byte, steering clear of byte values that would
// change the record count ('\n' splits a record; a leading '#' turns it
// into a comment) — those shapes are covered by the truncate/torn classes.
func (r *Reader) flip(line []byte) []byte {
	out := append([]byte(nil), line...)
	pos := r.rng.Intn(len(out))
	b := out[pos] ^ (1 << uint(r.rng.Intn(8)))
	if b == '\n' || (pos == 0 && b == '#') {
		b = out[pos] ^ 0x01
		if b == '\n' || (pos == 0 && b == '#') {
			b = 'X'
		}
	}
	out[pos] = b
	return out
}

// oversize pushes the record's first integer field out of int64 range; a
// record with no such field gets a 4 KiB tail instead (stress, not parse
// failure — string fields have no declared bound).
func oversize(line []byte) []byte {
	fields := bytes.Split(append([]byte(nil), line...), []byte("\t"))
	for i, f := range fields {
		if len(f) == 0 || !allDigits(f) {
			continue
		}
		fields[i] = append(f, []byte("9999999999999999999999")...)
		return bytes.Join(fields, []byte("\t"))
	}
	return append(line, bytes.Repeat([]byte("A"), 4096)...)
}

func allDigits(b []byte) bool {
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// CorruptFile streams src through an injector into dst.
func CorruptFile(dst io.Writer, src io.Reader, cfg Config) (Report, error) {
	r := NewReader(src, cfg)
	if _, err := io.Copy(dst, r); err != nil {
		return r.Report(), err
	}
	return r.Report(), nil
}

// CorruptDataset copies a dataset directory (flat or day-rotated), passing
// every .log file through the injector — each under a sub-seed derived from
// its relative path, so the corruption of one file is independent of the
// others but the whole dataset is reproducible. Non-log files are copied
// verbatim. It returns per-file reports keyed by relative path.
func CorruptDataset(srcDir, dstDir string, cfg Config) (map[string]Report, error) {
	reports := make(map[string]Report)
	err := filepath.Walk(srcDir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(srcDir, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dstDir, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		src, err := os.Open(path)
		if err != nil {
			return err
		}
		defer src.Close()
		dst, err := os.Create(target)
		if err != nil {
			return err
		}
		if filepath.Ext(rel) == ".log" {
			rep, cerr := CorruptFile(dst, src, cfg.Sub(rel))
			if cerr != nil {
				dst.Close()
				return cerr
			}
			reports[rel] = rep
		} else if _, err := io.Copy(dst, src); err != nil {
			dst.Close()
			return err
		}
		return dst.Close()
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}
