// Package trace generates the synthetic campus workload that substitutes
// for the real (privacy-bound, unreleasable) residential-network capture.
//
// The generator simulates the residential population — students with
// phones, laptops, IoT devices and game consoles — through the four study
// months, driving per-day behavior from the campus calendar: the departure
// waves of March, the switch to Zoom classes on March 30, the lock-down
// surge in streaming, social media and gaming, and the distinct behavior of
// international students. It emits exactly the artifact types the real tap
// produced (flow records, DNS log entries, DHCP leases, HTTP metadata), in
// time order, so the measurement pipeline downstream is identical to one
// running on real data.
//
// Every behavioral constant is calibrated against a number or trend the
// paper reports; see profiles.go for the mapping.
package trace

import (
	"errors"
	"time"
)

// Config controls the generated population. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// Seed drives all randomness. Same seed + same scale → identical
	// output.
	Seed int64
	// Scale multiplies the population (1.0 reproduces paper-scale
	// counts: ~32k peak devices, 6.5k post-shutdown users). Tests and
	// benches run at 0.01–0.05.
	Scale float64

	// Students is the resident student count at Scale 1.0.
	Students int
	// IntlFraction is the international share of the student body (§4.2
	// cites reports of about 25%).
	IntlFraction float64
	// HomeHeavyFraction is the share of international students whose
	// traffic is dominated by home-country services (the sub-population
	// the midpoint method can actually identify).
	HomeHeavyFraction float64

	// DomesticStayRate and IntlStayRate are the probabilities that a
	// student remains on campus through the lock-down. International
	// students stay at a higher rate (flights home vanished).
	DomesticStayRate float64
	IntlStayRate     float64
	// SwitchOwnerStayBoost multiplies the stay probability for Switch
	// owners (calibrates the 1,097 → 267 Switch population drop against
	// the 6,522 post-shutdown total).
	SwitchOwnerStayBoost float64

	// VisitorFraction adds short-lived guest devices (filtered by the
	// pipeline's 14-day rule).
	VisitorFraction float64
	// NewSwitchCount is how many brand-new Switch consoles appear in
	// April and May at Scale 1.0 (§5.3.2 reports 40).
	NewSwitchCount int

	// DNSTTL is the resolver answer TTL.
	DNSTTL time.Duration
	// LeaseTime is the DHCP lease duration.
	LeaseTime time.Duration

	// NoPandemic generates the counterfactual baseline: nobody departs,
	// classes stay in person, and every day behaves like the equivalent
	// February weekday (with a mild end-of-term uptick). This is the
	// stand-in for the paper's 2019 comparison year (§4.1: "Traffic in
	// April and May 2020 was 53% higher than in 2019").
	NoPandemic bool
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Scale:                1.0,
		Students:             15000,
		IntlFraction:         0.25,
		HomeHeavyFraction:    0.45,
		DomesticStayRate:     0.115,
		IntlStayRate:         0.26,
		SwitchOwnerStayBoost: 1.45,
		VisitorFraction:      0.05,
		NewSwitchCount:       40,
		DNSTTL:               5 * time.Minute,
		LeaseTime:            24 * time.Hour,
	}
}

// ScaledConfig returns DefaultConfig with the population scale and
// generator seed set — the two knobs the commands expose as -scale and
// -seed.
func ScaledConfig(scale float64, seed int64) Config {
	cfg := DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = seed
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Scale <= 0 || c.Scale > 4:
		return errors.New("trace: Scale must be in (0, 4]")
	case c.Students <= 0:
		return errors.New("trace: Students must be positive")
	case c.IntlFraction < 0 || c.IntlFraction > 1:
		return errors.New("trace: IntlFraction outside [0,1]")
	case c.HomeHeavyFraction < 0 || c.HomeHeavyFraction > 1:
		return errors.New("trace: HomeHeavyFraction outside [0,1]")
	case c.DomesticStayRate < 0 || c.DomesticStayRate > 1 || c.IntlStayRate < 0 || c.IntlStayRate > 1:
		return errors.New("trace: stay rates outside [0,1]")
	case c.VisitorFraction < 0 || c.VisitorFraction > 1:
		return errors.New("trace: VisitorFraction outside [0,1]")
	}
	return nil
}

// scaled returns n scaled by the population factor, with a floor of zero.
func (c Config) scaled(n int) int {
	v := int(float64(n)*c.Scale + 0.5)
	if v < 0 {
		return 0
	}
	return v
}
