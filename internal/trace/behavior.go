package trace

import (
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/campus"
	"repro/internal/flow"
	"repro/internal/universe"
)

// deviceDay generates one device's full day of traffic.
func (g *Generator) deviceDay(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr) {
	switch dev.Kind {
	case KindPhone:
		g.background(ds, dev, rng, ip)
		g.heartbeats(ds, dev, rng, ip)
		g.browse(ds, dev, rng, ip)
		g.social(ds, dev, rng, ip)
		g.zoom(ds, dev, rng, ip)
	case KindLaptop, KindDesktop:
		g.background(ds, dev, rng, ip)
		g.heartbeats(ds, dev, rng, ip)
		g.browse(ds, dev, rng, ip)
		g.zoom(ds, dev, rng, ip)
		g.steam(ds, dev, rng, ip)
		// Light desktop social media — §5.2 found it insignificant, and
		// Figure 6 filters to mobile; a trickle keeps that filter honest.
		if dev.FacebookUser && rng.Float64() < 0.05 {
			g.socialSession(ds, dev, rng, ip, "facebook", 4*time.Minute)
		}
	case KindIoT:
		g.iotDay(ds, dev, rng, ip)
	case KindSwitch:
		g.switchDay(ds, dev, rng, ip)
	case KindPlayStation, KindXbox:
		g.consoleDay(ds, dev, rng, ip)
	}
}

// background emits the infra chatter every general-purpose device produces:
// NTP, OCSP, connectivity checks (the cleartext HTTP that carries
// User-Agent evidence), and OS updates.
func (g *Generator) background(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr) {
	t := g.at(ds, rng, sampleHour(rng, ds.hours))
	g.emitFlow(ds, rng, dev, ip, flowSpec{
		domain: "pool.ntp.org", start: t, dur: time.Second,
		bytes: 512, proto: flow.ProtoUDP, respPort: 123, withDNS: rng.Float64() < 0.3,
	})
	if rng.Float64() < 0.7 {
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: "ocsp.digicert.com", start: g.at(ds, rng, sampleHour(rng, ds.hours)),
			dur: 2 * time.Second, bytes: int64(3<<10 + rng.Intn(5<<10)), respPort: 80, withDNS: true,
		})
	}
	// Connectivity checks reveal the User-Agent for non-stealth devices.
	if dev.UserAgent != "" && rng.Float64() < 0.8 {
		g.emitHTTPMeta(ds, rng, dev, ip, "detectportal.firefox.com", dev.UserAgent,
			g.at(ds, rng, sampleHour(rng, ds.hours)))
	}
	// Desktop-mode browsing on a few phones: the affirmative
	// misclassification source (§3's 2/100).
	if dev.desktopModeBrowser && rng.Float64() < 0.5 {
		g.emitHTTPMeta(ds, rng, dev, ip, "detectportal.firefox.com", desktopModeUA,
			g.at(ds, rng, sampleHour(rng, ds.hours)))
	}
	// OS updates (bulky, occasional).
	if (dev.Kind == KindLaptop || dev.Kind == KindDesktop) && rng.Float64() < 0.08 {
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: "windowsupdate.com", start: g.at(ds, rng, sampleHour(rng, ds.hours)),
			dur:   time.Duration(5+rng.Intn(20)) * time.Minute,
			bytes: int64(logNormal(rng, 0, 0.8) * float64(300<<20)), withDNS: true,
		})
	}
	// Apple devices phone home to tap-excluded Apple networks; the
	// capture filter drops these downstream.
	if rng.Float64() < 0.25 {
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: "push.apple.com", start: g.at(ds, rng, sampleHour(rng, ds.hours)),
			dur: 10 * time.Minute, bytes: int64(1<<20 + rng.Intn(4<<20)), withDNS: true,
		})
	}
}

// heartbeats emits the hourly push/sync chatter of interactive devices,
// modulated by the diurnal shape so per-hour medians (Figure 3) follow the
// day's rhythm.
func (g *Generator) heartbeats(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr) {
	mult := leisureMult(ds.behaviorDay, dev.Intl, dev.HomeHeavy) * ds.seasonal
	domains := heartbeatDomainsUS
	var home []string
	if dev.Intl {
		home = heartbeatDomainsHome[dev.HomeRegion]
	}
	for h := 0; h < 24; h++ {
		w := ds.hours[h]
		if rng.Float64() >= 0.5+0.45*w {
			continue
		}
		domain := domains[rng.Intn(len(domains))]
		if len(home) > 0 && rng.Float64() < 0.4 {
			domain = home[rng.Intn(len(home))]
		}
		bytes := int64(logNormal(rng, 0, 0.5) * 1.6 * float64(1<<20) * w * mult)
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: domain, start: g.at(ds, rng, h),
			dur:   time.Duration(20+rng.Intn(300)) * time.Second,
			bytes: bytes, withDNS: h == 0 || rng.Float64() < 0.08,
		})
	}
}

// browse emits general leisure traffic from the preference tables.
func (g *Generator) browse(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr) {
	mean := browseServicesPerDay(dev.Kind, ds.behaviorDay)
	if mean <= 0 {
		return
	}
	n := poisson(rng, mean)
	if n == 0 {
		return
	}
	mult := leisureMult(ds.behaviorDay, dev.Intl, dev.HomeHeavy) * dev.Intensity * ds.seasonal
	if dev.Kind == KindPhone && ds.behaviorDay.Phase() >= campus.Lockdown {
		mult *= phoneLockdownBoost
	}
	foreignP := 0.02
	if dev.Intl {
		foreignP = foreignByteFraction(dev.HomeHeavy)
	}
	for i := 0; i < n; i++ {
		prefs, weights := g.usPrefs, g.usWeights
		foreignPick := false
		if dev.Intl && rng.Float64() < foreignP {
			if hp := g.homePrefs[dev.HomeRegion]; len(hp) > 0 {
				prefs, weights = hp, g.homeWts[dev.HomeRegion]
				foreignPick = true
			}
		}
		p := prefs[pickWeighted(rng, weights)]
		median, sigma := p.bytes, p.sigma
		if dev.Kind == KindPhone {
			m, s := categoryBytes(p.service.Category, KindPhone)
			median, sigma = m, s
		}
		if foreignPick && !dev.HomeHeavy {
			// Moderate international students keep home-country chat and
			// news, not home-country video streaming — their foreign
			// *byte* share stays small, which is why the midpoint method
			// (conservatively) classifies them domestic.
			if median > 25<<20 {
				median, sigma = 25<<20, 0.8
			}
		}
		bytes := int64(logNormal(rng, 0, sigma) * median * mult)
		dur := time.Duration(2+rng.Intn(8)) * time.Minute
		if p.service.Category == universe.CatVideo {
			dur = time.Duration(15+rng.Intn(50)) * time.Minute
		}
		domain := p.service.Domains[rng.Intn(len(p.service.Domains))]
		if p.service.Category == universe.CatIoT {
			// Humans visit the vendor's website, not device backends.
			domain = p.service.Domains[0]
		}
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: domain, start: g.at(ds, rng, sampleHour(rng, ds.hours)),
			dur: dur, bytes: bytes, withDNS: true,
		})
	}
}

// socialApps indexes the social apps for the spread-multiplier seeds and
// memo.
var socialApps = [...]string{"facebook", "instagram", "tiktok"}

// social emits the day's Facebook/Instagram/TikTok sessions for a phone.
func (g *Generator) social(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr) {
	month := campus.MonthOfDay(ds.behaviorDay)
	run := func(appIdx int, user bool) {
		if !user {
			return
		}
		app := socialApps[appIdx]
		prof := socialProfiles[app][dev.HomeHeavy]
		count := poisson(rng, prof.sessionsPerDay[month])
		if count == 0 {
			return
		}
		spreadMult := g.spreadMult(dev, month, appIdx, prof.spread[month])
		for i := 0; i < count; i++ {
			minutes := logNormal(rng, 0, prof.sigma) * prof.medianMinutes * prof.lengthMult[month] * spreadMult
			g.socialSession(ds, dev, rng, ip, app, time.Duration(minutes*float64(time.Minute)))
		}
	}
	run(0, dev.FacebookUser)
	run(1, dev.InstagramUser)
	run(2, dev.TikTokAdoptMonth >= 0 && int(month) >= dev.TikTokAdoptMonth)
}

// spreadMult returns the per-device-per-month spread multiplier (median 1)
// that widens the cross-device session-length distribution without moving
// the median. It depends only on (device, month, app), so it is drawn from
// its own seeded source once and memoized (0 marks "not drawn yet").
func (g *Generator) spreadMult(dev *Device, month campus.Month, appIdx int, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	m := &g.spread[dev.Index][month][appIdx]
	if *m == 0 {
		r := rand.New(rand.NewSource(deviceDaySeed(g.cfg.Seed, dev.Index,
			campus.Day(4000+int(month)*8+appIdx))))
		*m = logNormal(r, 0, sigma)
	}
	return *m
}

// socialSession emits one stitched-session's worth of overlapping flows
// across the app's domains — the structure §5.2's duration computation
// reconstructs.
func (g *Generator) socialSession(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr, app string, dur time.Duration) {
	if dur < 30*time.Second {
		dur = 30 * time.Second
	}
	if dur > 5*time.Hour {
		dur = 5 * time.Hour
	}
	start := g.at(ds, rng, sampleHour(rng, ds.hours))
	prof := socialProfiles[app][dev.HomeHeavy]
	totalBytes := int64(float64(dur) / float64(time.Minute) * prof.bytesPerMinute * logNormal(rng, 0, 0.4))

	type part struct {
		domain string
		frac   float64
	}
	var parts []part
	switch app {
	case "facebook":
		parts = []part{{"facebook.com", 0.25}, {"fbcdn.net", 0.6}, {"facebook.net", 0.15}}
	case "instagram":
		// Instagram sessions traverse the shared Facebook CDN domains —
		// exactly the ambiguity the §5.2 heuristic resolves.
		parts = []part{{"instagram.com", 0.2}, {"cdninstagram.com", 0.55}, {"fbcdn.net", 0.25}}
	case "tiktok":
		parts = []part{{"tiktok.com", 0.1}, {"tiktokcdn.com", 0.65}, {"tiktokv.com", 0.25}}
	}
	for i, p := range parts {
		// Parts start staggered but overlap for the session's span.
		offset := time.Duration(float64(dur) * 0.05 * float64(i))
		partDur := dur - offset - time.Duration(float64(dur)*0.03*float64(i))
		if partDur < time.Second {
			partDur = time.Second
		}
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: p.domain, start: start.Add(offset), dur: partDur,
			bytes: int64(float64(totalBytes) * p.frac), withDNS: i == 0 || rng.Float64() < 0.5,
		})
	}
}

// zoom emits the day's class sessions (Figure 5).
func (g *Generator) zoom(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr) {
	prof, ok := zoomFor(dev.Kind, ds.behaviorDay)
	if !ok || rng.Float64() >= prof.sessionP {
		return
	}
	count := poisson(rng, prof.meanCount)
	if count < 1 {
		count = 1
	}
	for i := 0; i < count; i++ {
		hour := prof.startHour + rng.Intn(prof.endHour-prof.startHour+1)
		start := g.at(ds, rng, hour)
		minutes := prof.minMinutes + rng.ExpFloat64()*prof.expMinutes
		dur := time.Duration(minutes * float64(time.Minute))
		// Signaling via zoom.us (DNS-labeled)...
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: "zoom.us", start: start, dur: dur,
			bytes: int64(2<<20 + rng.Intn(6<<20)), withDNS: true,
		})
		// ...and bulk media over UDP 8801 straight to an address from the
		// published list, with no DNS label — the flows §5.1's IP-list
		// matching exists for.
		media := g.zoomMediaAddr(rng)
		mediaBytes := int64(minutes * zoomBytesPerMinute * logNormal(rng, 0, 0.35))
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			directAddr: media, domain: "", start: start.Add(5 * time.Second),
			dur: dur - 10*time.Second, bytes: mediaBytes,
			proto: flow.ProtoUDP, respPort: 8801,
		})
	}
}

// zoomMediaAddr picks a media-server address inside the Zoom ranges but
// outside the DNS-mapped space (hosts .0.2–.0.250 are reserved for direct
// connections in the address plan).
func (g *Generator) zoomMediaAddr(rng *rand.Rand) netip.Addr {
	p := g.zoomPrefixes[rng.Intn(len(g.zoomPrefixes))]
	base := p.Addr().As4()
	return netip.AddrFrom4([4]byte{base[0], base[1], 0, byte(2 + rng.Intn(249))})
}

// steam emits Steam play sessions and occasional multi-GB downloads
// (Figure 7).
func (g *Generator) steam(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr) {
	month := campus.MonthOfDay(ds.behaviorDay)
	if !dev.SteamMonthly[month] {
		return
	}
	sessMult, dlP := steamSessionMultDom[month], steamDownloadPDom[month]
	if dev.HomeHeavy {
		sessMult, dlP = steamSessionMultIntl[month], steamDownloadPIntl[month]
	}
	sessions := poisson(rng, 0.55*sessMult)
	for i := 0; i < sessions; i++ {
		start := g.at(ds, rng, sampleHour(rng, ds.hours))
		dur := time.Duration(20+rng.Intn(100)) * time.Minute
		// A play session opens several control connections plus one bulk
		// content flow — Figure 7b counts connections, 7a counts bytes.
		conns := 4 + rng.Intn(7)
		for c := 0; c < conns; c++ {
			domain := steamControlDomains[rng.Intn(len(steamControlDomains))]
			g.emitFlow(ds, rng, dev, ip, flowSpec{
				domain: domain, start: start.Add(time.Duration(c) * 3 * time.Second),
				dur: dur / time.Duration(1+c%3), bytes: int64(100<<10 + rng.Intn(2<<20)),
				withDNS: c == 0,
			})
		}
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: "steamcontent.com", start: start.Add(time.Minute), dur: dur,
			bytes: int64(logNormal(rng, 0, 1.2) * float64(6<<20) * dev.Intensity), withDNS: true,
		})
	}
	if rng.Float64() < dlP {
		// Game download: the March byte spike.
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: "steamcontent.com", start: g.at(ds, rng, sampleHour(rng, ds.hours)),
			dur:   time.Duration(20+rng.Intn(60)) * time.Minute,
			bytes: int64(logNormal(rng, 0, 0.7) * float64(2<<30)), withDNS: true,
		})
	}
}

var steamControlDomains = []string{
	"steampowered.com", "steamcommunity.com", "steamstatic.com", "steamusercontent.com",
}

// iotDay emits an IoT device's platform chatter and, for streaming
// hardware, its evening video sessions (the heavy tail of Figure 2).
func (g *Generator) iotDay(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr) {
	svc := g.reg.ServiceByName(dev.IoTPlatform)
	if svc == nil || len(svc.Domains) < 4 {
		return
	}
	// Domains[0] is the vendor's human-facing website; devices talk to
	// the backends: [1] the control/heartbeat endpoint, [2] telemetry,
	// [3] the firmware/update endpoint (rare) — so a device's Saidi
	// signature fraction is usually 2/3 or 3/3, occasionally 1/3.
	heartbeat, telemetry, firmware := svc.Domains[1], svc.Domains[2], svc.Domains[3]
	for h := 0; h < 24; h++ {
		if rng.Float64() < 0.9 {
			g.emitFlow(ds, rng, dev, ip, flowSpec{
				domain: heartbeat, start: g.at(ds, rng, h), dur: 5 * time.Second,
				bytes: int64(8<<10 + rng.Intn(30<<10)), withDNS: h == 0 || rng.Float64() < 0.1,
			})
		}
	}
	if rng.Float64() < 0.7 {
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: telemetry, start: g.at(ds, rng, 3), dur: 30 * time.Second,
			bytes: int64(logNormal(rng, 0, 0.8) * float64(2<<20)), withDNS: true,
		})
	}
	if rng.Float64() < 0.03 {
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: firmware, start: g.at(ds, rng, 4), dur: 5 * time.Minute,
			bytes: int64(logNormal(rng, 0, 0.5) * float64(40<<20)), withDNS: true,
		})
	}
	// UA-revealing devices check in over cleartext occasionally.
	if dev.UserAgent != "" && rng.Float64() < 0.4 {
		g.emitHTTPMeta(ds, rng, dev, ip, heartbeat, dev.UserAgent, g.at(ds, rng, 19))
	}
	// Streaming hardware plays video in the evening; lock-down boosts it.
	if dev.IoTPlatform == "roku" || dev.IoTPlatform == "samsung-tv" || dev.IoTPlatform == "lg-tv" {
		watchP := 0.55
		if ds.behaviorDay.Phase() >= campus.Lockdown {
			watchP = 0.75
		}
		if rng.Float64() < watchP {
			streamSvc := []string{"netflix.com", "hulu.com", "youtube.com"}[rng.Intn(3)]
			g.emitFlow(ds, rng, dev, ip, flowSpec{
				domain: streamSvc, start: g.at(ds, rng, 18+rng.Intn(5)),
				dur:   time.Duration(40+rng.Intn(120)) * time.Minute,
				bytes: int64(logNormal(rng, 0, 0.9) * float64(1<<30) * dev.Intensity), withDNS: true,
			})
		}
	}
}

// switchDay emits a Nintendo Switch's standby pings, gameplay sessions, and
// download traffic (Figure 8 and the §5.3.2 device counts).
func (g *Generator) switchDay(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr) {
	// Standby: connectivity test plus push-notification keepalive.
	g.emitFlow(ds, rng, dev, ip, flowSpec{
		domain: "conntest.nintendowifi.net", start: g.at(ds, rng, 9+rng.Intn(4)),
		dur: 2 * time.Second, bytes: int64(4<<10 + rng.Intn(8<<10)), respPort: 80, withDNS: true,
	})
	g.emitFlow(ds, rng, dev, ip, flowSpec{
		domain: "npns.srv.nintendo.net", start: g.at(ds, rng, 0), dur: 20 * time.Hour,
		bytes: int64(150<<10 + rng.Intn(300<<10)), withDNS: rng.Float64() < 0.2,
	})
	// Gameplay sessions (Figure 8's headline series).
	if rng.Float64() < switchPlayP(ds.behaviorDay) {
		sessions := 1 + poisson(rng, 0.4)
		for i := 0; i < sessions; i++ {
			start := g.at(ds, rng, 14+rng.Intn(8))
			dur := time.Duration(30+rng.Intn(90)) * time.Minute
			g.emitFlow(ds, rng, dev, ip, flowSpec{
				domain: "nex.nintendo.net", start: start, dur: dur,
				bytes: int64(logNormal(rng, 0, 0.8) * float64(12<<20)), withDNS: true,
			})
			g.emitFlow(ds, rng, dev, ip, flowSpec{
				domain: "baas.nintendo.com", start: start, dur: time.Minute,
				bytes: int64(200<<10 + rng.Intn(400<<10)), withDNS: rng.Float64() < 0.3,
			})
		}
	}
	// Game downloads: heavy around the Animal Crossing release.
	acnh, _ := campus.DayOf(campus.AnimalCrossingRelease)
	dlP := 0.02
	if ds.behaviorDay >= acnh && ds.behaviorDay < acnh+8 {
		dlP = 0.30
	}
	if rng.Float64() < dlP {
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: "atum.hac.lp1.d4c.nintendo.net", start: g.at(ds, rng, 12+rng.Intn(8)),
			dur:   time.Duration(25+rng.Intn(50)) * time.Minute,
			bytes: int64(logNormal(rng, 0, 0.4) * float64(5<<30)), withDNS: true,
		})
	}
	// Occasional system update.
	if rng.Float64() < 0.02 {
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: "sun.hac.lp1.d4c.nintendo.net", start: g.at(ds, rng, 4),
			dur: 10 * time.Minute, bytes: int64(logNormal(rng, 0, 0.4) * float64(300<<20)), withDNS: true,
		})
	}
}

// consoleDay emits PlayStation/Xbox traffic.
func (g *Generator) consoleDay(ds *dayState, dev *Device, rng *rand.Rand, ip netip.Addr) {
	domain, cdn := "playstation.net", "playstation.com"
	if dev.Kind == KindXbox {
		domain, cdn = "xboxlive.com", "xbox.com"
	}
	// Presence ping.
	g.emitFlow(ds, rng, dev, ip, flowSpec{
		domain: domain, start: g.at(ds, rng, 10+rng.Intn(6)), dur: 30 * time.Second,
		bytes: int64(50<<10 + rng.Intn(200<<10)), withDNS: rng.Float64() < 0.3,
	})
	playP := 0.45
	if ds.behaviorDay.Phase() >= campus.Lockdown {
		playP = 0.65
	}
	if rng.Float64() < playP {
		start := g.at(ds, rng, 16+rng.Intn(6))
		dur := time.Duration(40+rng.Intn(120)) * time.Minute
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: domain, start: start, dur: dur,
			bytes: int64(logNormal(rng, 0, 0.8) * float64(40<<20)), withDNS: true,
		})
	}
	if rng.Float64() < 0.04 {
		g.emitFlow(ds, rng, dev, ip, flowSpec{
			domain: cdn, start: g.at(ds, rng, 13+rng.Intn(6)),
			dur:   time.Duration(30+rng.Intn(60)) * time.Minute,
			bytes: int64(logNormal(rng, 0, 0.6) * float64(8<<30)), withDNS: true,
		})
	}
}
