package trace

import (
	"math/rand"

	"repro/internal/campus"
	"repro/internal/universe"
)

// This file holds the behavioral calibration tables. Each constant is tied
// to a number or trend the paper reports; EXPERIMENTS.md records how well
// the generated dataset reproduces them.

// ---- Figure 7: Steam monthly activity probabilities -----------------------
//
// Fraction of (post-shutdown) laptop/desktop devices with any Steam traffic
// per month. Calibrated to the n= counts in Figure 7: domestic 681, 958,
// 958, 1243 of ≈1,650 domestic machines; international 212, 363, 312, 308
// of ≈440 identified-international machines.
var (
	steamMonthlyDomestic = [campus.NumMonths]float64{0.41, 0.58, 0.58, 0.75}
	steamMonthlyIntl     = [campus.NumMonths]float64{0.48, 0.82, 0.71, 0.70}
)

// sampleTikTokAdoption draws the month a phone starts using TikTok, or -1.
// Cumulative adoption targets Figure 6c's growing n: domestic 32%→45%,
// international 27%→46% of mobile devices from February to May.
func sampleTikTokAdoption(rng *rand.Rand, intl bool) int {
	r := rng.Float64()
	cum := [campus.NumMonths]float64{0.32, 0.37, 0.42, 0.45}
	if intl {
		cum = [campus.NumMonths]float64{0.27, 0.36, 0.42, 0.46}
	}
	for m, c := range cum {
		if r < c {
			return m
		}
	}
	return -1
}

// ---- Figure 6: social media session models --------------------------------
//
// Monthly session rates and lengths per app and population. The shapes
// encode §5.2's narrative:
//   - Facebook: domestic flat then down in May; international rises during
//     the shutdown, closing the February gap.
//   - Instagram: domestic flat then down in May (Q1 drops earlier);
//     international rises into May.
//   - TikTok: domestic median up in March, down in April, back to February
//     levels in May, with spread (σ) growing all window; international
//     much less active with growing variance.
type socialProfile struct {
	sessionsPerDay [campus.NumMonths]float64 // Poisson rate per active day
	medianMinutes  float64
	lengthMult     [campus.NumMonths]float64 // per-month session length scale
	sigma          float64                   // lognormal σ of session length
	// spread is the σ of a per-device-per-month lognormal multiplier
	// (median 1): it widens the cross-device distribution — TikTok's
	// rising 3rd quartile and 99th percentile — without moving the
	// median.
	spread         [campus.NumMonths]float64
	bytesPerMinute float64 // median application bytes
}

var socialProfiles = map[string]map[bool]socialProfile{ // app -> intl? -> profile
	"facebook": {
		false: {sessionsPerDay: [4]float64{1.10, 1.10, 1.05, 0.72}, medianMinutes: 7, lengthMult: [4]float64{1, 1, 1, 0.85}, sigma: 1.0, bytesPerMinute: 3 << 20},
		true:  {sessionsPerDay: [4]float64{0.62, 0.80, 1.00, 1.05}, medianMinutes: 7, lengthMult: [4]float64{1, 1, 1.05, 1.1}, sigma: 1.0, bytesPerMinute: 3 << 20},
	},
	"instagram": {
		false: {sessionsPerDay: [4]float64{1.30, 1.30, 1.15, 0.85}, medianMinutes: 6, lengthMult: [4]float64{1, 1, 0.95, 0.8}, sigma: 1.0, bytesPerMinute: 4 << 20},
		true:  {sessionsPerDay: [4]float64{1.00, 1.25, 1.25, 1.40}, medianMinutes: 6, lengthMult: [4]float64{1, 1.05, 1.1, 1.2}, sigma: 1.0, bytesPerMinute: 4 << 20},
	},
	"tiktok": {
		false: {sessionsPerDay: [4]float64{1.00, 1.35, 1.12, 1.00}, medianMinutes: 9, lengthMult: [4]float64{1, 1.05, 1, 1}, sigma: 1.0, spread: [4]float64{0, 0.20, 0.45, 0.60}, bytesPerMinute: 6 << 20},
		true:  {sessionsPerDay: [4]float64{0.50, 0.70, 0.75, 0.70}, medianMinutes: 8, lengthMult: [4]float64{1, 1.1, 1.15, 1.1}, sigma: 1.1, spread: [4]float64{0.10, 0.30, 0.55, 0.70}, bytesPerMinute: 6 << 20},
	},
}

// ---- Figure 3 / §4.1: diurnal shapes and volume growth --------------------

// hourWeights are relative activity weights per campus-local hour.
var (
	// Pre-pandemic weekdays: classes during the day, evening peak.
	hoursPreWeekday = [24]float64{
		0.35, 0.2, 0.12, 0.08, 0.06, 0.08, 0.15, 0.3, 0.5, 0.55,
		0.55, 0.6, 0.65, 0.6, 0.55, 0.55, 0.6, 0.7, 0.8, 0.95,
		1.0, 1.0, 0.9, 0.6,
	}
	// Lock-down weekdays: traffic spikes earlier (online classes from
	// 8am) and overall volume is higher; evening peak remains.
	hoursLockWeekday = [24]float64{
		0.35, 0.2, 0.12, 0.08, 0.06, 0.08, 0.2, 0.45, 0.8, 0.95,
		0.95, 0.9, 0.85, 0.85, 0.8, 0.75, 0.7, 0.75, 0.85, 0.95,
		1.0, 1.0, 0.9, 0.6,
	}
	// Weekends: late start, flat afternoon — §4.1 finds them essentially
	// unchanged across the shutdown.
	hoursWeekend = [24]float64{
		0.4, 0.25, 0.15, 0.1, 0.07, 0.07, 0.1, 0.15, 0.3, 0.45,
		0.6, 0.7, 0.75, 0.75, 0.7, 0.7, 0.7, 0.7, 0.75, 0.8,
		0.85, 0.85, 0.8, 0.6,
	}
)

// dayHourWeights returns the diurnal shape for a given study day.
func dayHourWeights(day campus.Day) *[24]float64 {
	if day.IsWeekend() {
		return &hoursWeekend
	}
	if day.Phase() >= campus.Lockdown {
		return &hoursLockWeekday
	}
	return &hoursPreWeekday
}

// sampleHour draws an hour of day from the weights.
func sampleHour(rng *rand.Rand, w *[24]float64) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	r := rng.Float64() * total
	for h, v := range w {
		if r < v {
			return h
		}
		r -= v
	}
	return 23
}

// leisureMult scales non-Zoom leisure bytes per phase, producing §4.1's
// +58% February→April/May total traffic among post-shutdown users (Zoom
// contributes the rest) and Figure 4's international elevation from the
// break onward. The elevation concentrates in home-heavy international
// students (the sub-population the midpoint method identifies); moderate
// international students rise less, and domestic traffic stays flat during
// break, matching Figure 4's contrast.
func leisureMult(day campus.Day, intl, homeHeavy bool) float64 {
	switch day.Phase() {
	case campus.PrePandemic:
		return 1.0
	case campus.Emergency:
		return 1.05
	case campus.PandemicDeparture:
		return 1.08
	case campus.Lockdown:
		return 1.10
	case campus.AcademicBreak:
		switch {
		case homeHeavy:
			return 2.05
		case intl:
			return 1.30
		default:
			return 0.98
		}
	default: // online term
		switch {
		case homeHeavy:
			return 1.72
		case intl:
			return 1.22
		default:
			return 1.13
		}
	}
}

// browseServicesPerDay is the number of distinct leisure services a device
// samples per active day. The online-term increase yields §4.1's "34%
// more distinct sites".
func browseServicesPerDay(kind Kind, day campus.Day) float64 {
	base := 0.0
	switch kind {
	case KindPhone:
		base = 5.5
	case KindLaptop:
		base = 6.5
	case KindDesktop:
		base = 6.5
	default:
		return 0
	}
	switch day.Phase() {
	case campus.AcademicBreak:
		base *= 1.15
	case campus.OnlineTerm:
		base *= 1.38
	}
	// Weekend dips in per-device volume persist across the whole window
	// (§4.1's contrast with Feldmann et al.), though they soften once
	// students are trapped indoors.
	if day.IsWeekend() {
		if day.Phase() >= campus.Lockdown {
			base *= 0.88
		} else {
			base *= 0.78
		}
	}
	return base
}

// phoneLockdownBoost is an extra byte multiplier for phones once the
// lock-down begins: phones carry much of the new streaming/scrolling load,
// keeping Figure 2's post-shutdown mobile and laptop medians roughly equal
// despite laptops gaining Zoom.
const phoneLockdownBoost = 1.32

// activityP is the probability a present device produces any traffic on a
// day — the weekday/weekend sawtooth of Figure 1.
func activityP(kind Kind, day campus.Day) float64 {
	weekend := day.IsWeekend()
	post := day.Phase() >= campus.Lockdown
	switch kind {
	case KindPhone:
		switch {
		case weekend && !post:
			return 0.86
		case weekend && post:
			return 0.92
		default:
			return 0.96
		}
	case KindLaptop:
		switch {
		case weekend && !post:
			return 0.76
		case weekend && post:
			return 0.85
		default:
			return 0.89
		}
	case KindDesktop:
		if weekend {
			return 0.85
		}
		return 0.93
	case KindIoT:
		return 0.99
	case KindSwitch:
		return 0.93 // standby pings nearly daily
	default: // other consoles
		return 0.85
	}
}

// ---- Browsing preference tables -------------------------------------------

// svcPref weights one catalog service for leisure selection, with the
// median bytes one day's visit transfers (before intensity and phase
// multipliers).
type svcPref struct {
	service *universe.Service
	weight  int
	bytes   float64
	sigma   float64
}

// categoryBytes returns the per-visit byte scale for a category, per device
// kind (phones stream smaller renditions).
func categoryBytes(cat universe.Category, kind Kind) (median float64, sigma float64) {
	switch cat {
	case universe.CatVideo:
		if kind == KindPhone {
			return 180 << 20, 0.9
		}
		return 350 << 20, 0.9
	case universe.CatMusic:
		return 45 << 20, 0.8
	case universe.CatSocial:
		return 25 << 20, 0.9 // non-session social browsing (reddit etc.)
	case universe.CatMessaging:
		return 12 << 20, 0.9
	case universe.CatGaming:
		return 40 << 20, 1.1
	case universe.CatNews, universe.CatEducation, universe.CatWeb, universe.CatCampus:
		return 7 << 20, 1.0
	case universe.CatInfra, universe.CatCloud:
		return 1 << 20, 1.0
	default:
		return 5 << 20, 1.0
	}
}

// buildPrefs derives the US-service and per-home-region preference tables
// from the catalog.
func buildPrefs(reg *universe.Registry) (us []svcPref, home map[string][]svcPref) {
	home = make(map[string][]svcPref)
	for i := range reg.Services() {
		s := &reg.Services()[i]
		switch s.Category {
		case universe.CatCDN, universe.CatConferencing:
			continue // reached via other paths
		case universe.CatInfra:
			continue // infra handled as background
		}
		if s.Name == "nintendo" || s.Name == "steam" {
			continue // gaming models handle these explicitly
		}
		w := prefWeight(s)
		if w == 0 {
			continue
		}
		median, sigma := categoryBytes(s.Category, KindLaptop)
		p := svcPref{service: s, weight: w, bytes: median, sigma: sigma}
		if s.Region.US || s.Region.Code == "campus" {
			us = append(us, p)
		} else {
			home[s.Region.Code] = append(home[s.Region.Code], p)
		}
	}
	return us, home
}

// prefWeight sets how often a service is visited relative to others in its
// pool.
func prefWeight(s *universe.Service) int {
	switch s.Category {
	case universe.CatVideo:
		switch s.Name {
		case "youtube":
			return 26
		case "netflix":
			return 20
		case "bilibili", "iqiyi":
			return 22
		default:
			return 7
		}
	case universe.CatSocial:
		// Facebook/Instagram/TikTok flows come from the session model,
		// not general browsing.
		switch s.Name {
		case "facebook", "instagram", "tiktok":
			return 0
		default:
			return 6
		}
	case universe.CatMusic:
		return 8
	case universe.CatMessaging:
		return 8
	case universe.CatEducation:
		return 5
	case universe.CatNews:
		return 4
	case universe.CatWeb:
		return 6
	case universe.CatGaming:
		return 3
	case universe.CatIoT:
		// People shop for gadgets: browsers visit the vendor site
		// (Domains[0]) — never the device backends, so this does not
		// pollute Saidi signatures.
		return 1
	case universe.CatCampus:
		if s.TapExcluded {
			return 2
		}
		return 5
	default:
		if s.TapExcluded {
			return 4 // tap-excluded traffic is generated and then dropped
		}
		return 2
	}
}

// homeRegions distributes international students across home regions.
var homeRegions = []struct {
	code   string
	weight int
}{
	{"cn", 60}, {"kr", 12}, {"in", 10}, {"jp", 8}, {"eu", 6}, {"br", 2}, {"mx", 2},
}

func sampleHomeRegion(rng *rand.Rand) string {
	w := make([]int, len(homeRegions))
	for i, h := range homeRegions {
		w[i] = h.weight
	}
	return homeRegions[pickWeighted(rng, w)].code
}

// foreignByteFraction is the share of leisure picks an international
// student directs at home-region services. Home-heavy students are the
// sub-population §4.2's midpoint method can identify; moderate students
// stay (conservatively) classified domestic.
// Foreign *picks* understate foreign *bytes*: video services dominate both
// pools, so even a modest pick share yields a large byte share. 0.08 keeps
// moderate students' midpoints (conservatively) inside the US; 0.62 places
// home-heavy students' midpoints abroad.
func foreignByteFraction(homeHeavy bool) float64 {
	if homeHeavy {
		return 0.62
	}
	return 0.06
}

// ---- Zoom (Figure 5) -------------------------------------------------------

// zoomProfile describes class attendance after instruction moved online.
type zoomDayProfile struct {
	sessionP   float64 // probability the device attends at all
	meanCount  float64 // Poisson mean of sessions given attendance
	minMinutes float64
	expMinutes float64 // exponential tail beyond the minimum
	startHour  int     // earliest class hour
	endHour    int     // latest class start hour
}

// zoomFor returns the Zoom profile for a device kind on a day; ok is false
// when no Zoom traffic applies.
func zoomFor(kind Kind, day campus.Day) (prof zoomDayProfile, ok bool) {
	phase := day.Phase()
	online := phase == campus.OnlineTerm
	var participate float64
	switch kind {
	case KindLaptop:
		participate = 0.85
	case KindDesktop:
		participate = 0.60
	case KindPhone:
		participate = 0.20
	default:
		return prof, false
	}
	switch {
	case online && !day.IsWeekend():
		// §5.1: most active 8am–6pm on weekdays.
		return zoomDayProfile{
			sessionP:  participate,
			meanCount: 1.5, minMinutes: 45, expMinutes: 25,
			startHour: 8, endHour: 17,
		}, true
	case online && day.IsWeekend():
		// Small weekend afternoon bump: clubs, calls home.
		return zoomDayProfile{
			sessionP:  participate * 0.12,
			meanCount: 1.0, minMinutes: 25, expMinutes: 20,
			startHour: 12, endHour: 16,
		}, true
	case phase <= campus.PandemicDeparture && !day.IsWeekend():
		// Pre-pandemic: occasional meetings.
		return zoomDayProfile{
			sessionP:  participate * 0.02,
			meanCount: 1.0, minMinutes: 30, expMinutes: 15,
			startHour: 9, endHour: 16,
		}, true
	default:
		return prof, false
	}
}

// zoomBytesPerMinute is the media rate of one Zoom session (≈100 MB/hour,
// calibrated so aggregate daily Zoom peaks near Figure 5's ≈600 GB at full
// scale).
const zoomBytesPerMinute = 1.6 * (1 << 20)

// heartbeatDomains are the always-on sync/push backends phones and laptops
// chat with hourly. The hourly cadence gives every device traffic in most
// hours, which Figure 3's per-hour medians require (an hour with traffic on
// fewer than half the devices has a zero median).
var (
	heartbeatDomainsUS   = []string{"google.com", "whatsapp.net", "discord.com", "gmail.com", "outlook.com"}
	heartbeatDomainsHome = map[string][]string{
		"cn": {"weixin.qq.com", "qq.com"},
		"kr": {"kakao.com", "naver.com"},
		"jp": {"line.me"},
		"in": {"jio.com"},
		"eu": {"telegram.org"},
		"br": {"globo.com"},
		"mx": {"televisa.com"},
	}
)

// ---- Gaming ----------------------------------------------------------------

// steamSessionMult scales Steam play-session frequency per month,
// reproducing Figure 7b's trends (domestic connections decline over the
// window; international spike in March).
var (
	steamSessionMultDom  = [campus.NumMonths]float64{1.00, 0.95, 0.80, 0.65}
	steamSessionMultIntl = [campus.NumMonths]float64{1.00, 1.30, 1.15, 0.80}
	// steamDownloadP is the per-day probability of a multi-GB game
	// download, the driver of Figure 7a's March byte spike.
	steamDownloadPDom  = [campus.NumMonths]float64{0.035, 0.10, 0.055, 0.04}
	steamDownloadPIntl = [campus.NumMonths]float64{0.04, 0.14, 0.12, 0.045}
)

// switchPlayP is the probability a Switch has a gameplay session on a day,
// shaping Figure 8: break/early-term spikes (Animal Crossing released
// March 20), a return toward pre-pandemic levels in late April, and a May
// rise as "boredom kicks in".
func switchPlayP(day campus.Day) float64 {
	acnh, _ := campus.DayOf(campus.AnimalCrossingRelease)
	switch {
	case day >= acnh && day < acnh+10:
		return 0.90
	case day.Phase() == campus.AcademicBreak:
		return 0.85
	case day.Phase() == campus.OnlineTerm:
		mayD := campus.FirstDay(campus.May)
		lateAprD := campus.FirstDay(campus.April) + 14
		switch {
		case day >= mayD+10:
			return 0.62
		case day >= lateAprD:
			return 0.38
		default:
			return 0.50
		}
	case day.Phase() >= campus.Lockdown:
		return 0.60
	default:
		return 0.35
	}
}
