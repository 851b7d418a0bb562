package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/anonymize"
	"repro/internal/campus"
	"repro/internal/devclass"
	"repro/internal/geo"
)

// DatasetCodecVersion is the dataset.bin payload format version. It enters
// every stage-cache key, so bumping it (any wire-format change) cleanly
// invalidates cached datasets; a stale payload that slips past the key is
// still rejected by the header check in DecodeDataset.
const DatasetCodecVersion = 1

// frame is what the dataset, truth and checkpoint payloads share: a header
// (magic, codec version and, for the formats whose arrays are sized by
// them, the campus dimensions) and a sha256 trailer over everything
// before it.
type frame struct {
	magic   [4]byte
	version uint64
	// scope names the payload in error messages.
	scope string
	// dims: the header carries the campus dimensions, so a payload written
	// by a build with different campus constants fails the header check
	// instead of misparsing fixed-size arrays.
	dims bool
}

var (
	datasetFrame    = frame{[4]byte{'L', 'K', 'D', 'S'}, DatasetCodecVersion, "dataset", true}
	truthFrame      = frame{[4]byte{'L', 'K', 'T', 'R'}, DatasetCodecVersion, "truth", false}
	checkpointFrame = frame{[4]byte{'L', 'K', 'C', 'P'}, CheckpointCodecVersion, "checkpoint", true}
)

// dimensions are the campus constants a dims header records, in order.
var dimensions = []struct {
	name string
	v    uint64
}{
	{"num_days", campus.NumDays},
	{"num_months", uint64(campus.NumMonths)},
	{"num_groups", uint64(NumGroups)},
	{"hours_per_week", campus.HoursPerWeek},
}

// header starts a payload of about size bytes with the frame's header.
func (f frame) header(size int) *enc {
	e := &enc{b: make([]byte, 0, size)}
	e.b = append(e.b, f.magic[:]...)
	e.uvarint(f.version)
	if f.dims {
		for _, dim := range dimensions {
			e.uvarint(dim.v)
		}
	}
	return e
}

// seal appends the sha256 trailer over b.
func seal(b []byte) []byte {
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// open checks a sealed payload's length, trailer, magic, version and
// dimensions, and returns a cursor over the body after the header.
func (f frame) open(b []byte) (*dec, error) {
	if len(b) < len(f.magic)+sha256.Size {
		return nil, fmt.Errorf("core: decode %s: payload too short (%d bytes)", f.scope, len(b))
	}
	body, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("core: decode %s: checksum mismatch", f.scope)
	}
	d := &dec{b: body, scope: f.scope}
	if string(d.take(len(f.magic))) != string(f.magic[:]) {
		return nil, fmt.Errorf("core: decode %s: bad magic", f.scope)
	}
	if v := d.uvarint(); d.err == nil && v != f.version {
		d.fail("codec version %d, want %d", v, f.version)
	}
	for i := 0; f.dims && i < len(dimensions); i++ {
		if got := d.uvarint(); d.err == nil && got != dimensions[i].v {
			d.fail("dimension %s=%d, want %d", dimensions[i].name, got, dimensions[i].v)
		}
	}
	return d, d.err
}

// The encoding is columnar: after a self-describing header (magic,
// version, the campus dimensions the arrays are sized by, the device
// count) and the run Stats, each DeviceData field is written as one column
// across all devices, and the whole payload ends in a sha256 trailer.
// Columns compress well because neighboring devices look alike
// (delta-coded sorted IDs, shared label strings, runs of zero counters),
// and exact byte round-tripping is guaranteed by encoding floats as raw
// IEEE bit patterns and keeping the nil-vs-empty distinction for every
// nilable slice. Encode(Decode(b)) is byte-identical to b, and
// Decode(Encode(ds)) is semantically identical to ds — the property the
// warm/cold parity tests pin.

// enc is a little append-only buffer with varint helpers.
type enc struct {
	b []byte
}

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) byte(v byte)      { e.b = append(e.b, v) }
func (e *enc) f32(v float32)    { e.b = binary.LittleEndian.AppendUint32(e.b, math.Float32bits(v)) }
func (e *enc) f64(v float64)    { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) string(s string)  { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) f32slice(s []float32) {
	// Nil-able slice: 0 = nil, n+1 = length n. Several accumulator fields
	// use nil as "never seen", which the figures distinguish from
	// all-zero, so the codec must too.
	if s == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(len(s)) + 1)
	for _, v := range s {
		e.f32(v)
	}
}

// dec is the matching cursor with error latching: after the first
// malformed read every subsequent read fails fast. scope names the payload
// kind in error messages.
type dec struct {
	b     []byte
	off   int
	err   error
	scope string
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: decode "+d.scope+": "+format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("truncated at offset %d (want %d more bytes)", d.off, n)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// uvarint and varint accept only the minimal encoding (no zero last
// byte after the first), the one the encoder writes, so a decoded payload
// re-encodes to its own bytes.
func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads an element count, failing on one the rest of the payload
// cannot hold (every element takes at least a byte), so a corrupt count
// never sizes an allocation.
func (d *dec) count(what string) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.fail("implausible %s count %d", what, n)
		return 0
	}
	return int(n)
}

// end is the trailing-bytes check: the body must be consumed exactly.
func (d *dec) end() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

func (d *dec) byte() byte {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *dec) f32() float32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(s))
}

func (d *dec) f64() float64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s))
}

func (d *dec) string() string {
	n := d.uvarint()
	s := d.take(int(n))
	if s == nil {
		return ""
	}
	return string(s)
}

func (d *dec) f32slice(maxLen int) []float32 {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	if n-1 > uint64(maxLen) {
		d.fail("f32 slice length %d exceeds bound %d", n-1, maxLen)
		return nil
	}
	ln := int(n - 1)
	out := make([]float32, ln)
	for i := range out {
		out[i] = d.f32()
	}
	return out
}

func encStats(e *enc, st *Stats) {
	for _, p := range st.fields() {
		e.varint(*p)
	}
}

func decStats(d *dec, st *Stats) {
	for _, p := range st.fields() {
		*p = d.varint()
	}
}

// EncodeDataset serializes a finalized Dataset (devices are already
// sorted by ID — Finalize/Snapshot guarantee it, which makes the encoding
// canonical: one dataset, one byte sequence).
func EncodeDataset(ds *Dataset) []byte {
	e := datasetFrame.header(1 << 16)
	e.uvarint(uint64(len(ds.Devices)))
	encStats(e, &ds.Stats)

	devs := ds.Devices
	// Column 1: IDs, delta-coded (sorted ascending).
	var prev uint64
	for _, d := range devs {
		e.uvarint(uint64(d.ID) - prev)
		prev = uint64(d.ID)
	}
	// Classification columns.
	for _, d := range devs {
		e.uvarint(uint64(d.Type))
	}
	for _, d := range devs {
		e.string(d.ClassifiedBy)
	}
	for _, d := range devs {
		e.uvarint(uint64(d.Geo))
	}
	for _, d := range devs {
		e.uvarint(uint64(d.GeoCDNAblation))
	}
	for _, d := range devs {
		e.f64(d.IoTScore)
	}
	for _, d := range devs {
		e.string(d.IoTPlatform)
	}
	for _, d := range devs {
		e.uvarint(uint64(d.UAType))
	}
	for _, d := range devs {
		e.uvarint(uint64(d.OUIHint))
	}
	// Boolean flags packed into one byte per device.
	for _, d := range devs {
		var f byte
		if d.Resident {
			f |= 1
		}
		if d.PostShutdown {
			f |= 2
		}
		if d.IsSwitch {
			f |= 4
		}
		e.byte(f)
	}
	// Time-series columns.
	for _, d := range devs {
		e.f32slice(d.Daily)
	}
	for _, d := range devs {
		e.f32slice(d.ZoomDaily)
	}
	for _, d := range devs {
		e.f32slice(d.GameplayDaily)
	}
	numWeeks := len((&DeviceData{}).HourWeek)
	for w := 0; w < numWeeks; w++ {
		for _, d := range devs {
			e.f32slice(d.HourWeek[w])
		}
	}
	for _, d := range devs {
		e.uvarint(uint64(d.SitesFeb))
	}
	for _, d := range devs {
		e.uvarint(uint64(d.SitesAprMay))
	}
	// Monthly aggregate columns.
	for _, d := range devs {
		for m := range d.Social {
			for a := range d.Social[m] {
				e.varint(int64(d.Social[m][a].Duration))
				e.uvarint(uint64(d.Social[m][a].Sessions))
			}
		}
	}
	for _, d := range devs {
		for m := range d.Steam {
			e.varint(d.Steam[m].Bytes)
			e.uvarint(uint64(d.Steam[m].Connections))
		}
	}
	for _, d := range devs {
		for m := range d.GroupBytes {
			for g := range d.GroupBytes[m] {
				e.varint(d.GroupBytes[m][g])
			}
		}
	}
	// ZoomHourly: presence byte (most devices never touch Zoom), then the
	// 48 raw values for those that do.
	for _, d := range devs {
		present := byte(0)
		for k := range d.ZoomHourly {
			for h := range d.ZoomHourly[k] {
				if d.ZoomHourly[k][h] != 0 {
					present = 1
				}
			}
		}
		e.byte(present)
		if present == 1 {
			for k := range d.ZoomHourly {
				for h := range d.ZoomHourly[k] {
					e.f32(d.ZoomHourly[k][h])
				}
			}
		}
	}
	for _, d := range devs {
		e.varint(d.Flows)
	}
	return seal(e.b)
}

// DecodeDataset parses an EncodeDataset payload, verifying the sha256
// trailer, the header version and the campus dimensions before trusting a
// single column. Any mismatch returns an error — the stage cache treats it
// as a verify failure and recomputes.
func DecodeDataset(b []byte) (*Dataset, error) {
	d, err := datasetFrame.open(b)
	if err != nil {
		return nil, err
	}
	n := d.count("device")
	ds := &Dataset{byID: make(map[anonymize.DeviceID]*DeviceData, n)}
	decStats(d, &ds.Stats)
	if d.err != nil {
		return nil, d.err
	}

	devs := make([]*DeviceData, n)
	for i := range devs {
		devs[i] = &DeviceData{}
	}
	var prev uint64
	for _, dd := range devs {
		prev += d.uvarint()
		dd.ID = anonymize.DeviceID(prev)
	}
	for _, dd := range devs {
		dd.Type = devclass.Type(d.uvarint())
	}
	for _, dd := range devs {
		dd.ClassifiedBy = d.string()
	}
	for _, dd := range devs {
		dd.Geo = geo.Classification(d.uvarint())
	}
	for _, dd := range devs {
		dd.GeoCDNAblation = geo.Classification(d.uvarint())
	}
	for _, dd := range devs {
		dd.IoTScore = d.f64()
	}
	for _, dd := range devs {
		dd.IoTPlatform = d.string()
	}
	for _, dd := range devs {
		dd.UAType = devclass.Type(d.uvarint())
	}
	for _, dd := range devs {
		dd.OUIHint = devclass.Type(d.uvarint())
	}
	for _, dd := range devs {
		f := d.byte()
		if f > 7 {
			d.fail("device flags %#x", f)
		}
		dd.Resident = f&1 != 0
		dd.PostShutdown = f&2 != 0
		dd.IsSwitch = f&4 != 0
	}
	for _, dd := range devs {
		dd.Daily = d.f32slice(campus.NumDays)
	}
	for _, dd := range devs {
		dd.ZoomDaily = d.f32slice(campus.NumDays)
	}
	for _, dd := range devs {
		dd.GameplayDaily = d.f32slice(campus.NumDays)
	}
	numWeeks := len((&DeviceData{}).HourWeek)
	for w := 0; w < numWeeks; w++ {
		for _, dd := range devs {
			dd.HourWeek[w] = d.f32slice(campus.HoursPerWeek)
		}
	}
	for _, dd := range devs {
		dd.SitesFeb = int(d.uvarint())
	}
	for _, dd := range devs {
		dd.SitesAprMay = int(d.uvarint())
	}
	for _, dd := range devs {
		for m := range dd.Social {
			for a := range dd.Social[m] {
				dd.Social[m][a].Duration = time.Duration(d.varint())
				dd.Social[m][a].Sessions = int(d.uvarint())
			}
		}
	}
	for _, dd := range devs {
		for m := range dd.Steam {
			dd.Steam[m].Bytes = d.varint()
			dd.Steam[m].Connections = int(d.uvarint())
		}
	}
	for _, dd := range devs {
		for m := range dd.GroupBytes {
			for g := range dd.GroupBytes[m] {
				dd.GroupBytes[m][g] = d.varint()
			}
		}
	}
	for _, dd := range devs {
		switch present := d.byte(); {
		case present == 1:
			for k := range dd.ZoomHourly {
				for h := range dd.ZoomHourly[k] {
					dd.ZoomHourly[k][h] = d.f32()
				}
			}
			if dd.ZoomHourly == ([2][24]float32{}) {
				d.fail("zoom-hourly row present but zero")
			}
		case present != 0:
			d.fail("zoom-hourly presence byte %d", present)
		}
	}
	for _, dd := range devs {
		dd.Flows = d.varint()
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	for i, dd := range devs {
		if i > 0 && devs[i-1].ID >= dd.ID {
			return nil, fmt.Errorf("core: decode dataset: device IDs not strictly ascending")
		}
		ds.byID[dd.ID] = dd
	}
	ds.Devices = devs
	return ds, nil
}

// EncodeTruth serializes a generator ground-truth map (device pseudonym →
// true device type) canonically: sorted by ID, delta-coded.
func EncodeTruth(truth map[anonymize.DeviceID]devclass.Type) []byte {
	ids := make([]uint64, 0, len(truth))
	for id := range truth {
		ids = append(ids, uint64(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e := truthFrame.header(1024)
	e.uvarint(uint64(len(ids)))
	var prev uint64
	for _, id := range ids {
		e.uvarint(id - prev)
		prev = id
		e.uvarint(uint64(truth[anonymize.DeviceID(id)]))
	}
	return seal(e.b)
}

// DecodeTruth parses an EncodeTruth payload.
func DecodeTruth(b []byte) (map[anonymize.DeviceID]devclass.Type, error) {
	d, err := truthFrame.open(b)
	if err != nil {
		return nil, err
	}
	n := d.count("entry")
	truth := make(map[anonymize.DeviceID]devclass.Type, n)
	var prev uint64
	for i := 0; i < n; i++ {
		id := prev + d.uvarint()
		if i > 0 && id <= prev {
			d.fail("device IDs not strictly ascending")
		}
		prev = id
		truth[anonymize.DeviceID(id)] = devclass.Type(d.uvarint())
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return truth, nil
}
