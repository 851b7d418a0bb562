package core

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"slices"
	"testing"

	"repro/internal/anonymize"
	"repro/internal/campus"
	"repro/internal/devclass"
	"repro/internal/trace"
	"repro/internal/universe"
)

// codecTestDataset builds a real finalized Dataset (plus a synthetic truth
// map over its pseudonyms) by running the generator through a pipeline at
// small scale — the same object the stats stage caches.
func codecTestDataset(t *testing.T) (*Dataset, map[anonymize.DeviceID]devclass.Type) {
	t.Helper()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.01
	from, to := campus.Day(0), campus.Day(campus.NumDays)
	if testing.Short() {
		from, to = 40, 55
	}
	g, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(reg, Options{Key: []byte("codec-test-key-0123456789abcdef01")})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunDays(p, from, to); err != nil {
		t.Fatal(err)
	}
	ds := p.Finalize()
	if len(ds.Devices) == 0 {
		t.Fatal("degenerate dataset: no devices")
	}
	truth := make(map[anonymize.DeviceID]devclass.Type, len(ds.Devices))
	for _, d := range ds.Devices {
		truth[d.ID] = d.Type
	}
	return ds, truth
}

// TestDatasetCodecRoundTrip is the stats cache's core safety property:
// decode(encode(ds)) reproduces the Dataset exactly — every column,
// including the nil-vs-empty slice distinction the figures depend on —
// and re-encoding the decoded dataset reproduces the original bytes
// (the encoding is canonical, so content digests are stable).
func TestDatasetCodecRoundTrip(t *testing.T) {
	ds, _ := codecTestDataset(t)
	enc := EncodeDataset(ds)
	dec, err := DecodeDataset(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(ds.Stats, dec.Stats) {
		t.Errorf("Stats differ:\n got %+v\nwant %+v", dec.Stats, ds.Stats)
	}
	if len(dec.Devices) != len(ds.Devices) {
		t.Fatalf("decoded %d devices, want %d", len(dec.Devices), len(ds.Devices))
	}
	for i, want := range ds.Devices {
		if !reflect.DeepEqual(want, dec.Devices[i]) {
			t.Fatalf("device %d (%d) differs:\n got %+v\nwant %+v", i, want.ID, dec.Devices[i], want)
		}
	}
	// The byID view must be rebuilt and point into the decoded slice.
	for _, d := range dec.Devices {
		if dec.Device(d.ID) != d {
			t.Fatalf("decoded byID does not resolve device %d", d.ID)
		}
	}
	if re := EncodeDataset(dec); !bytes.Equal(enc, re) {
		t.Error("encoding is not canonical: decode→encode changed bytes")
	}
}

// TestDatasetCodecDetectsCorruption flips single bits across the encoded
// payload and truncates it at several points; every damaged form must fail
// to decode (the sha256 trailer makes silent acceptance impossible), so a
// corrupt cache entry can never be mistaken for data.
func TestDatasetCodecDetectsCorruption(t *testing.T) {
	ds, _ := codecTestDataset(t)
	enc := EncodeDataset(ds)

	// Sample bit flips across the whole payload, including the magic, the
	// header, deep columnar data, and the trailer itself.
	step := len(enc)/64 + 1
	for off := 0; off < len(enc); off += step {
		mut := make([]byte, len(enc))
		copy(mut, enc)
		mut[off] ^= 0x01
		if _, err := DecodeDataset(mut); err == nil {
			t.Fatalf("flipped bit at offset %d/%d decoded without error", off, len(enc))
		}
	}
	for _, n := range []int{0, 1, 4, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeDataset(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	if _, err := DecodeDataset(append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}

// TestTruthCodecRoundTrip covers the companion ground-truth payload.
func TestTruthCodecRoundTrip(t *testing.T) {
	ds, truth := codecTestDataset(t)
	_ = ds
	enc := EncodeTruth(truth)
	dec, err := DecodeTruth(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(truth, dec) {
		t.Errorf("truth map did not round-trip: %d entries in, %d out", len(truth), len(dec))
	}
	if re := EncodeTruth(dec); !bytes.Equal(enc, re) {
		t.Error("truth encoding is not canonical")
	}
	step := len(enc)/16 + 1
	for off := 0; off < len(enc); off += step {
		mut := make([]byte, len(enc))
		copy(mut, enc)
		mut[off] ^= 0x01
		if _, err := DecodeTruth(mut); err == nil {
			t.Fatalf("flipped bit at offset %d decoded without error", off)
		}
	}
	// A repeated ID would collapse two entries into one.
	e := truthFrame.header(0)
	for _, v := range []uint64{2, 7, uint64(devclass.Mobile), 0, uint64(devclass.IoT)} {
		e.uvarint(v)
	}
	if _, err := DecodeTruth(seal(e.b)); err == nil {
		t.Error("repeated device ID decoded without error")
	}
}

// TestEmptyDatasetRoundTrip pins the degenerate end of the codec: a
// pipeline that saw no traffic still encodes and decodes cleanly.
func TestEmptyDatasetRoundTrip(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(reg, Options{Key: []byte("codec-test-key-0123456789abcdef01")})
	if err != nil {
		t.Fatal(err)
	}
	ds := p.Finalize()
	dec, err := DecodeDataset(EncodeDataset(ds))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Devices) != 0 {
		t.Fatalf("empty dataset decoded to %d devices", len(dec.Devices))
	}
	if !reflect.DeepEqual(ds.Stats, dec.Stats) {
		t.Error("empty dataset Stats did not round-trip")
	}
	if _, err := DecodeTruth(EncodeTruth(nil)); err != nil {
		t.Fatalf("empty truth map: %v", err)
	}
}

// FuzzDecodeDataset mutates the body of a real dataset payload and
// re-seals the trailer over it, so the column checks run rather than only
// the checksum. Every input must give either a dataset or an error, and an
// accepted payload must re-encode to its own bytes: the encoding is
// canonical, so a cache entry has one content digest.
func FuzzDecodeDataset(f *testing.F) {
	p, _ := smallCheckpointPipeline(f)
	b := EncodeDataset(p.Snapshot())
	f.Add(b[:len(b)-sha256.Size])
	b = EncodeDataset(&Dataset{})
	f.Add(b[:len(b)-sha256.Size])
	f.Add([]byte{})
	f.Add(datasetFrame.magic[:])
	f.Fuzz(func(t *testing.T, body []byte) {
		b := seal(slices.Clip(body))
		ds, err := DecodeDataset(b)
		if (ds == nil) == (err == nil) {
			t.Fatalf("dataset %v with error %v: want exactly one", ds != nil, err)
		}
		if ds != nil && !bytes.Equal(EncodeDataset(ds), b) {
			t.Fatal("accepted payload re-encodes to different bytes")
		}
	})
}

// TestStatsFieldsListEveryCounter: fields, the one list Add, Sub and the
// codecs walk, names every Stats counter exactly once.
func TestStatsFieldsListEveryCounter(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	listed := make(map[*int64]bool)
	for _, p := range s.fields() {
		listed[p] = true
	}
	if len(listed) != v.NumField() {
		t.Errorf("fields lists %d distinct counters, Stats has %d", len(listed), v.NumField())
	}
	for i := 0; i < v.NumField(); i++ {
		if !listed[v.Field(i).Addr().Interface().(*int64)] {
			t.Errorf("Stats.%s is not in fields", v.Type().Field(i).Name)
		}
	}
}

// TestDecodeDatasetRejectsNonCanonical: the encodings EncodeDataset never
// writes fail the decode, so every accepted payload re-encodes to its own
// bytes.
func TestDecodeDatasetRejectsNonCanonical(t *testing.T) {
	encode := func(mod func(d *DeviceData)) []byte {
		d := &DeviceData{ID: 5}
		mod(d)
		b := EncodeDataset(&Dataset{Devices: []*DeviceData{d}})
		return b[:len(b)-sha256.Size]
	}
	plain := encode(func(*DeviceData) {})
	// offset is where a one-field change first moves the body.
	offset := func(mod func(d *DeviceData)) int {
		b := encode(mod)
		i := 0
		for plain[i] == b[i] {
			i++
		}
		return i
	}
	flags := offset(func(d *DeviceData) { d.Resident = true })
	zoom := offset(func(d *DeviceData) { d.ZoomHourly[0][0] = 1 })
	count := len(datasetFrame.header(0).b)
	splice := func(at int, with ...byte) []byte {
		return slices.Concat(plain[:at], with, plain[at+1:])
	}
	if _, err := DecodeDataset(seal(slices.Clone(plain))); err != nil {
		t.Fatalf("plain payload: %v", err)
	}
	for name, body := range map[string][]byte{
		"flags byte with an unknown bit":        splice(flags, 8),
		"zoom-hourly presence byte 2":           splice(zoom, 2),
		"zoom-hourly row present but zero":      splice(zoom, append([]byte{1}, make([]byte, 2*24*4)...)...),
		"device count as an overlong varint":    splice(count, 0x81, 0x00),
		"a Stats counter as an overlong varint": splice(count+1, 0x80, 0x00),
	} {
		if _, err := DecodeDataset(seal(body)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
