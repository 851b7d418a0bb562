package geo

import (
	"math"
	"net/netip"
	"sort"
)

// Midpoint computes the weighted geographic midpoint of a set of locations:
// each point is mapped to a unit vector on the sphere, vectors are averaged
// with the given weights, and the mean vector is projected back to
// latitude/longitude. This is the computation §4.2 runs over each device's
// February destinations, weighting each connection by its bytes.
type Midpoint struct {
	x, y, z float64
	weight  float64
	n       int
}

// Point is a location's unit-vector terms, the trigonometry Add would
// otherwise recompute for every flow to the same destination.
type Point struct {
	cosLat, sinLat, cosLon, sinLon float64
}

// Point resolves the location's unit-vector terms.
func (loc Location) Point() Point {
	latR := loc.Lat * math.Pi / 180
	lonR := loc.Lon * math.Pi / 180
	return Point{
		cosLat: math.Cos(latR), sinLat: math.Sin(latR),
		cosLon: math.Cos(lonR), sinLon: math.Sin(lonR),
	}
}

// Add folds one location with the given weight (e.g. flow bytes).
// Non-positive weights are ignored.
func (m *Midpoint) Add(loc Location, weight float64) { m.AddPoint(loc.Point(), weight) }

// AddPoint is Add on a resolved point. Each component is folded as
// weight*cosLat*cos(lon), in that order, so the sums are bit-identical to
// Add's however the point was obtained.
func (m *Midpoint) AddPoint(p Point, weight float64) {
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return
	}
	m.x += weight * p.cosLat * p.cosLon
	m.y += weight * p.cosLat * p.sinLon
	m.z += weight * p.sinLat
	m.weight += weight
	m.n++
}

// N returns the number of points folded in.
func (m *Midpoint) N() int { return m.n }

// Weight returns the total weight folded in.
func (m *Midpoint) Weight() float64 { return m.weight }

// Result returns the weighted midpoint. ok is false when no points were
// added or the weighted vectors cancel (antipodal inputs), in which case
// the midpoint is undefined.
func (m *Midpoint) Result() (Location, bool) {
	if m.weight <= 0 {
		return Location{}, false
	}
	x, y, z := m.x/m.weight, m.y/m.weight, m.z/m.weight
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm < 1e-9 {
		return Location{}, false
	}
	lat := math.Asin(z/norm) * 180 / math.Pi
	lon := math.Atan2(y, x) * 180 / math.Pi
	return Location{Lat: lat, Lon: lon}, true
}

// Classification is the population label derived from a device's midpoint.
type Classification int

// Population labels.
const (
	// Unknown means the device had no geolocatable traffic.
	Unknown Classification = iota
	// Domestic means the weighted midpoint fell inside the United States.
	Domestic
	// International means the midpoint fell outside the United States.
	International
)

// String returns the label name.
func (c Classification) String() string {
	switch c {
	case Domestic:
		return "domestic"
	case International:
		return "international"
	default:
		return "unknown"
	}
}

// Classifier accumulates per-device midpoints from flows and classifies
// each device, implementing §4.2 end to end: CDN prefixes are excluded,
// each destination is weighted by bytes, and a midpoint outside the US
// marks the device international.
type Classifier struct {
	db *DB
	// IncludeCDNs disables the CDN exclusion (ablation only — §4.2
	// explains why production keeps it on: CDN answers are near the user,
	// not the visited site, dragging every midpoint toward campus).
	IncludeCDNs bool

	points map[uint64]*Midpoint
}

// NewClassifier returns a classifier over the database.
func NewClassifier(db *DB) *Classifier {
	return &Classifier{db: db, points: make(map[uint64]*Midpoint)}
}

// AddFlow folds one flow: the device's pseudonymous ID, the server address,
// and the flow's byte count.
func (c *Classifier) AddFlow(device uint64, server netip.Addr, bytes int64) {
	if p, ok := c.Point(server); ok {
		c.Device(device).AddPoint(p, float64(bytes))
	}
}

// Point resolves a server address to the point AddFlow folds for it. ok is
// false when AddFlow skips the server: no database entry, or a CDN prefix
// while the exclusion is on. The answer never changes for an address, so a
// caller may resolve each server once.
func (c *Classifier) Point(server netip.Addr) (Point, bool) {
	e, ok := c.db.Lookup(server)
	if !ok || e.CDNExcluded && !c.IncludeCDNs {
		return Point{}, false
	}
	return e.Loc.Point(), true
}

// Device returns the device's midpoint accumulator, creating it on first
// call. AddFlow creates it on the device's first resolved flow; a caller
// that folds points itself must call Device at that same point, or Export
// would carry an accumulator AddFlow never made.
func (c *Classifier) Device(device uint64) *Midpoint {
	mp := c.points[device]
	if mp == nil {
		mp = &Midpoint{}
		c.points[device] = mp
	}
	return mp
}

// Classify returns the device's population label.
func (c *Classifier) Classify(device uint64) Classification {
	mp := c.points[device]
	if mp == nil {
		return Unknown
	}
	loc, ok := mp.Result()
	if !ok {
		return Unknown
	}
	if InUS(loc) {
		return Domestic
	}
	return International
}

// MidpointOf exposes the raw midpoint for a device (diagnostics, examples).
func (c *Classifier) MidpointOf(device uint64) (Location, bool) {
	mp := c.points[device]
	if mp == nil {
		return Location{}, false
	}
	return mp.Result()
}

// Devices returns the number of devices with at least one geolocated flow.
func (c *Classifier) Devices() int { return len(c.points) }

// MidpointRecord is one device's raw accumulator state. The vector
// components are transported as exact float64 values (checkpoint codecs
// persist their bit patterns), so a restored classifier reproduces every
// later Classify verdict bit-for-bit.
type MidpointRecord struct {
	Device  uint64
	X, Y, Z float64
	Weight  float64
	N       int
}

// Export returns every device's accumulator in ascending device order.
func (c *Classifier) Export() []MidpointRecord {
	devs := make([]uint64, 0, len(c.points))
	for dev := range c.points {
		devs = append(devs, dev)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	out := make([]MidpointRecord, 0, len(devs))
	for _, dev := range devs {
		mp := c.points[dev]
		out = append(out, MidpointRecord{Device: dev, X: mp.x, Y: mp.y, Z: mp.z, Weight: mp.weight, N: mp.n})
	}
	return out
}

// Restore reinstates accumulators exported by Export into an empty
// classifier (panics otherwise).
func (c *Classifier) Restore(recs []MidpointRecord) {
	if len(c.points) != 0 {
		panic("geo: Restore on a Classifier with state")
	}
	for _, r := range recs {
		c.points[r.Device] = &Midpoint{x: r.X, y: r.Y, z: r.Z, weight: r.Weight, n: r.N}
	}
}
