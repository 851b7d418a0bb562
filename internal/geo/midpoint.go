package geo

import (
	"math"
	"net/netip"
)

// Midpoint computes the weighted geographic midpoint of a set of locations:
// each point is mapped to a unit vector on the sphere, vectors are averaged
// with the given weights, and the mean vector is projected back to
// latitude/longitude. This is the computation §4.2 runs over each device's
// February destinations, weighting each connection by its bytes. The
// fields are the raw sums: X, Y and Z the weighted unit-vector components,
// Weight their total weight and N the number of points folded in. A
// checkpoint codec persists their exact bit patterns, so a restored
// midpoint reproduces every later verdict bit for bit.
type Midpoint struct {
	X, Y, Z float64
	Weight  float64
	N       int
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
	m.X += weight * p.cosLat * p.cosLon
	m.Y += weight * p.cosLat * p.sinLon
	m.Z += weight * p.sinLat
	m.Weight += weight
	m.N++
}

// Result returns the weighted midpoint. ok is false when no points were
// added or the weighted vectors cancel (antipodal inputs), in which case
// the midpoint is undefined.
func (m *Midpoint) Result() (Location, bool) {
	if m.Weight <= 0 {
		return Location{}, false
	}
	x, y, z := m.X/m.Weight, m.Y/m.Weight, m.Z/m.Weight
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

// Classify returns the population label of the midpoint: Unknown for an
// undefined one (the zero midpoint is a device without geolocatable
// traffic), else Domestic or International by whether it falls in the US.
func (m *Midpoint) Classify() Classification {
	loc, ok := m.Result()
	if !ok {
		return Unknown
	}
	if InUS(loc) {
		return Domestic
	}
	return International
}

// Classifier resolves the points §4.2 folds into a device's midpoint:
// each destination is looked up in the database and CDN prefixes are
// excluded. The caller owns the midpoints (one per device), folds each
// accepted point weighted by the flow's bytes, and classifies them with
// Midpoint.Classify.
type Classifier struct {
	db *DB
	// IncludeCDNs disables the CDN exclusion (ablation only — §4.2
	// explains why production keeps it on: CDN answers are near the user,
	// not the visited site, dragging every midpoint toward campus).
	IncludeCDNs bool
}

// NewClassifier returns a classifier over the database.
func NewClassifier(db *DB) *Classifier {
	return &Classifier{db: db}
}

// Point resolves a server address to the point a device's midpoint folds
// for it. ok is false when the server is skipped: no database entry, or a
// CDN prefix while the exclusion is on. The answer never changes for an
// address, so a caller may resolve each server once.
func (c *Classifier) Point(server netip.Addr) (Point, bool) {
	e, ok := c.db.Lookup(server)
	if !ok || e.CDNExcluded && !c.IncludeCDNs {
		return Point{}, false
	}
	return e.Loc.Point(), true
}
