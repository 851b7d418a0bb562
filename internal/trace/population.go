package trace

import (
	"math/rand"

	"repro/internal/anonymize"
	"repro/internal/campus"
	"repro/internal/devclass"
	"repro/internal/packet"
)

// Kind is the generator's ground-truth device kind (finer than the
// classifier's output type).
type Kind int

// Device kinds.
const (
	KindPhone Kind = iota
	KindLaptop
	KindDesktop
	KindIoT
	KindSwitch
	KindPlayStation
	KindXbox
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPhone:
		return "phone"
	case KindLaptop:
		return "laptop"
	case KindDesktop:
		return "desktop"
	case KindIoT:
		return "iot"
	case KindSwitch:
		return "switch"
	case KindPlayStation:
		return "playstation"
	case KindXbox:
		return "xbox"
	default:
		return "unknown"
	}
}

// TruthType maps a kind to the classifier type it should ideally resolve
// to (consoles are IoT for Figure 1's taxonomy).
func (k Kind) TruthType() devclass.Type {
	switch k {
	case KindPhone:
		return devclass.Mobile
	case KindLaptop, KindDesktop:
		return devclass.LaptopDesktop
	default:
		return devclass.IoT
	}
}

// Truth maps every device's pseudonym, as id derives it from the MAC, to
// the type the classifier should resolve it to — the ground truth the
// accuracy experiments score against. Pseudonyms need only the key, so a
// pipeline can rebuild the truth before or after ingest.
func (g *Generator) Truth(id func(packet.MAC) anonymize.DeviceID) map[anonymize.DeviceID]devclass.Type {
	truth := make(map[anonymize.DeviceID]devclass.Type, len(g.devices))
	for _, d := range g.devices {
		truth[id(d.MAC)] = d.Kind.TruthType()
	}
	return truth
}

// Device is one simulated network device with its behavioral parameters.
type Device struct {
	// Index is the device's position in the population (stable across
	// runs for a given config).
	Index int
	MAC   packet.MAC
	Kind  Kind

	// Student context.
	Intl      bool
	HomeHeavy bool
	// HomeRegion is the universe region code of an international
	// student's home country ("" for domestic students).
	HomeRegion string
	// ArriveDay is the first day the device can appear (0 for most; new
	// Switches arrive in April/May; visitors arrive throughout).
	ArriveDay campus.Day
	// DepartDay is the first day the device is gone, or campus.NumDays if
	// it stays the whole window.
	DepartDay campus.Day

	// Stealth devices use randomized MACs and never emit cleartext
	// User-Agent metadata: they are the raw material of the paper's
	// "unclassified" class.
	Stealth bool
	// V6Capable devices carry a share of their traffic over IPv6 from
	// their SLAAC (EUI-64) residence address.
	V6Capable bool
	// UserAgent is the device's UA string when it does emit HTTP
	// metadata ("" for stealth devices and most IoT).
	UserAgent string
	// IoTPlatform names the universe IoT service whose backends this
	// device (kind IoT) contacts.
	IoTPlatform string

	// Intensity is a per-device multiplicative traffic factor (lognormal
	// around 1) giving Figure 2 its mean ≫ median tails.
	Intensity float64

	// Social/gaming behavior flags.
	FacebookUser  bool
	InstagramUser bool
	// TikTokAdoptMonth is the first study month the device uses TikTok,
	// or -1 for never (adoption grows across the window, matching the
	// rising n in Figure 6c).
	TikTokAdoptMonth int
	// SteamMonthly[m] reports whether this device plays Steam in study
	// month m (kind laptop/desktop only; drives Figure 7's n counts).
	SteamMonthly [campus.NumMonths]bool

	// desktopModeBrowser marks phones that sometimes present a desktop
	// User-Agent — the generator's source of affirmative
	// misclassification (the paper found 2/100).
	desktopModeBrowser bool
}

// Present reports whether the device is on campus on the given day.
func (d *Device) Present(day campus.Day) bool {
	return day >= d.ArriveDay && day < d.DepartDay
}

// Stays reports whether the device remains into the online term (the
// post-shutdown population's ground truth).
func (d *Device) Stays() bool {
	onlineDay, _ := campus.DayOf(campus.BreakEnd)
	return d.DepartDay > onlineDay
}

// iotPlatforms lists the universe IoT services devices are drawn from,
// with ownership weights and the OUI vendor their hardware reports.
var iotPlatforms = []struct {
	platform string
	vendor   string
	weight   int
}{
	{"roku", "Roku", 20},
	{"samsung-tv", "Samsung TV", 15},
	{"lg-tv", "LG TV", 10},
	{"sonos", "Sonos", 10},
	{"hue", "Philips Hue", 8},
	{"kasa", "TP-Link", 10},
	{"wyze", "Wyze", 8},
	{"ring", "Ring", 5},
	{"nest", "Nest Labs", 5},
	{"smartthings", "Samsung", 4},
	{"tuya", "Espressif", 3},
	{"ecobee", "Espressif", 2},
}

// phone and laptop fleets: vendor OUI name, UA string.
var phoneModels = []struct {
	vendor string
	ua     string
	weight int
}{
	{"Apple", "Mozilla/5.0 (iPhone; CPU iPhone OS 13_3 like Mac OS X) AppleWebKit/605.1.15 Mobile/15E148", 55},
	{"Samsung Mobile", "Mozilla/5.0 (Linux; Android 10; SM-G973U) AppleWebKit/537.36 Chrome/80.0 Mobile", 20},
	{"OnePlus", "Mozilla/5.0 (Linux; Android 10; ONEPLUS A6013) AppleWebKit/537.36 Chrome/80.0 Mobile", 8},
	{"Xiaomi", "Mozilla/5.0 (Linux; Android 9; Mi 9T) AppleWebKit/537.36 Chrome/80.0 Mobile", 9},
	{"Huawei", "Mozilla/5.0 (Linux; Android 10; ELS-NX9) AppleWebKit/537.36 Chrome/80.0 Mobile", 8},
}

var laptopModels = []struct {
	vendor string
	ua     string
	weight int
}{
	{"Apple", "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_3) AppleWebKit/605.1.15 Safari/605.1.15", 40},
	{"Intel", "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/80.0", 25},
	{"Dell", "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Edg/80.0", 15},
	{"HP", "Mozilla/5.0 (Windows NT 10.0; Win64; x64) Gecko/20100101 Firefox/73.0", 10},
	{"Lenovo", "Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101 Firefox/73.0", 10},
}

const desktopModeUA = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/80.0"

// consoleUA maps console kinds to the UA their embedded browsers emit.
var consoleUA = map[Kind]string{
	KindSwitch:      "Mozilla/5.0 (Nintendo Switch; WebApplet) AppleWebKit/606.4",
	KindPlayStation: "Mozilla/5.0 (PlayStation 4 7.02) AppleWebKit/605.1.15",
	KindXbox:        "Mozilla/5.0 (Windows NT 10.0; Xbox; Xbox One) AppleWebKit/537.36 Edge/44",
}

// pickWeighted returns an index into weights proportional to weight.
func pickWeighted(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	r := rng.Intn(total)
	for i, w := range weights {
		if r < w {
			return i
		}
		r -= w
	}
	return len(weights) - 1
}

// mintMAC builds a MAC in the given OUI with device-unique low bytes, or a
// locally administered (randomized) MAC when stealth.
func mintMAC(rng *rand.Rand, oui [3]byte, stealth bool) packet.MAC {
	var m packet.MAC
	if stealth {
		m[0] = byte(rng.Intn(256))&0xfc | 0x02 // local bit set, unicast
		for i := 1; i < 6; i++ {
			m[i] = byte(rng.Intn(256))
		}
		return m
	}
	m[0], m[1], m[2] = oui[0], oui[1], oui[2]
	for i := 3; i < 6; i++ {
		m[i] = byte(rng.Intn(256))
	}
	return m
}

func vendorOUI(rng *rand.Rand, vendor string) [3]byte {
	ouis := devclass.VendorOUIs(vendor)
	if len(ouis) == 0 {
		// Unregistered vendor: mint a plausible global OUI the registry
		// does not know (classifier will miss it, which is realistic).
		return [3]byte{byte(rng.Intn(128)) & 0xfc, byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	return ouis[rng.Intn(len(ouis))]
}
