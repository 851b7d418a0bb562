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

// datasetMagic / truthMagic head the two payload formats.
var (
	datasetMagic = [4]byte{'L', 'K', 'D', 'S'}
	truthMagic   = [4]byte{'L', 'K', 'T', 'R'}
)

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
// kind in error messages ("dataset" when empty — the original format; the
// checkpoint codec sets its own).
type dec struct {
	b     []byte
	off   int
	err   error
	scope string
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		scope := d.scope
		if scope == "" {
			scope = "dataset"
		}
		d.err = fmt.Errorf("core: decode "+scope+": "+format, args...)
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

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
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
	if n <= 0 {
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

// EncodeDataset serializes a finalized Dataset (devices are already
// sorted by ID — Finalize/Snapshot guarantee it, which makes the encoding
// canonical: one dataset, one byte sequence).
func EncodeDataset(ds *Dataset) []byte {
	e := &enc{b: make([]byte, 0, 1<<16)}
	e.b = append(e.b, datasetMagic[:]...)
	e.uvarint(DatasetCodecVersion)
	// Dimensions the fixed-size arrays are declared with: a binary written
	// by a build with different campus constants fails the header check
	// instead of misparsing columns.
	e.uvarint(campus.NumDays)
	e.uvarint(uint64(campus.NumMonths))
	e.uvarint(uint64(NumGroups))
	e.uvarint(campus.HoursPerWeek)
	e.uvarint(uint64(len(ds.Devices)))

	st := &ds.Stats
	for _, v := range []int64{
		st.FlowsProcessed, st.FlowsTapDropped, st.FlowsUnattributed,
		st.FlowsUnlabeled, st.FlowsOutOfWindow, st.DNSEntries,
		st.HTTPEntries, st.Leases, st.BytesProcessed,
	} {
		e.varint(v)
	}

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

	sum := sha256.Sum256(e.b)
	e.b = append(e.b, sum[:]...)
	return e.b
}

// DecodeDataset parses an EncodeDataset payload, verifying the sha256
// trailer, the header version and the campus dimensions before trusting a
// single column. Any mismatch returns an error — the stage cache treats it
// as a verify failure and recomputes.
func DecodeDataset(b []byte) (*Dataset, error) {
	if len(b) < len(datasetMagic)+sha256.Size {
		return nil, fmt.Errorf("core: decode dataset: payload too short (%d bytes)", len(b))
	}
	body, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("core: decode dataset: checksum mismatch")
	}
	d := &dec{b: body}
	if string(d.take(4)) != string(datasetMagic[:]) {
		return nil, fmt.Errorf("core: decode dataset: bad magic")
	}
	if v := d.uvarint(); v != DatasetCodecVersion {
		return nil, fmt.Errorf("core: decode dataset: codec version %d, want %d", v, DatasetCodecVersion)
	}
	for _, dim := range []struct {
		name string
		want uint64
	}{
		{"num_days", campus.NumDays},
		{"num_months", uint64(campus.NumMonths)},
		{"num_groups", uint64(NumGroups)},
		{"hours_per_week", campus.HoursPerWeek},
	} {
		if got := d.uvarint(); d.err == nil && got != dim.want {
			return nil, fmt.Errorf("core: decode dataset: dimension %s=%d, want %d", dim.name, got, dim.want)
		}
	}
	n := int(d.uvarint())
	if d.err != nil {
		return nil, d.err
	}
	if n < 0 || n > len(body) {
		return nil, fmt.Errorf("core: decode dataset: implausible device count %d", n)
	}

	ds := &Dataset{byID: make(map[anonymize.DeviceID]*DeviceData, n)}
	for _, p := range []*int64{
		&ds.Stats.FlowsProcessed, &ds.Stats.FlowsTapDropped, &ds.Stats.FlowsUnattributed,
		&ds.Stats.FlowsUnlabeled, &ds.Stats.FlowsOutOfWindow, &ds.Stats.DNSEntries,
		&ds.Stats.HTTPEntries, &ds.Stats.Leases, &ds.Stats.BytesProcessed,
	} {
		*p = d.varint()
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
		if d.byte() == 1 {
			for k := range dd.ZoomHourly {
				for h := range dd.ZoomHourly[k] {
					dd.ZoomHourly[k][h] = d.f32()
				}
			}
		}
	}
	for _, dd := range devs {
		dd.Flows = d.varint()
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("core: decode dataset: %d trailing bytes", len(body)-d.off)
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
	e := &enc{b: make([]byte, 0, 1024)}
	e.b = append(e.b, truthMagic[:]...)
	e.uvarint(DatasetCodecVersion)
	e.uvarint(uint64(len(ids)))
	var prev uint64
	for _, id := range ids {
		e.uvarint(id - prev)
		prev = id
		e.uvarint(uint64(truth[anonymize.DeviceID(id)]))
	}
	sum := sha256.Sum256(e.b)
	e.b = append(e.b, sum[:]...)
	return e.b
}

// DecodeTruth parses an EncodeTruth payload.
func DecodeTruth(b []byte) (map[anonymize.DeviceID]devclass.Type, error) {
	if len(b) < len(truthMagic)+sha256.Size {
		return nil, fmt.Errorf("core: decode truth: payload too short (%d bytes)", len(b))
	}
	body, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("core: decode truth: checksum mismatch")
	}
	d := &dec{b: body}
	if string(d.take(4)) != string(truthMagic[:]) {
		return nil, fmt.Errorf("core: decode truth: bad magic")
	}
	if v := d.uvarint(); v != DatasetCodecVersion {
		return nil, fmt.Errorf("core: decode truth: codec version %d, want %d", v, DatasetCodecVersion)
	}
	n := int(d.uvarint())
	if d.err != nil {
		return nil, d.err
	}
	if n < 0 || n > len(body) {
		return nil, fmt.Errorf("core: decode truth: implausible entry count %d", n)
	}
	truth := make(map[anonymize.DeviceID]devclass.Type, n)
	var prev uint64
	for i := 0; i < n; i++ {
		prev += d.uvarint()
		truth[anonymize.DeviceID(prev)] = devclass.Type(d.uvarint())
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("core: decode truth: %d trailing bytes", len(body)-d.off)
	}
	return truth, nil
}
