package appsig

// SwitchThreshold is the Nintendo-byte fraction at which §5.3.2 calls a
// device a Nintendo Switch: at least half of its traffic (by bytes) goes
// to the identified Nintendo servers.
const SwitchThreshold = 0.5

// SwitchCounters is one device's byte counters: all its traffic, the
// Nintendo share, and the gameplay part of that. The counters see every
// flow (the verdict needs the total-bytes denominator); the zero value is
// a device without flows.
type SwitchCounters struct {
	Total    int64
	Nintendo int64
	Gameplay int64
}

// Add accounts one flow of the given Nintendo class (NotNintendo for an
// unlabeled flow or any other domain; ClassifyNintendo gives the class of
// a resolved domain).
func (c *SwitchCounters) Add(class NintendoClass, bytes int64) {
	c.Total += bytes
	switch class {
	case NintendoGameplayTraffic:
		c.Nintendo += bytes
		c.Gameplay += bytes
	case NintendoOtherTraffic:
		c.Nintendo += bytes
	}
}

// IsSwitch reports whether the device crosses SwitchThreshold.
func (c *SwitchCounters) IsSwitch() bool {
	if c.Total == 0 {
		return false
	}
	return float64(c.Nintendo)/float64(c.Total) >= SwitchThreshold
}
