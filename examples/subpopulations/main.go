// Subpopulations demonstrates the §4.2 methodology in isolation: the
// byte-weighted spherical midpoint of a device's destinations, the CDN
// exclusion, and the United-States containment test that splits the
// population into domestic and international students.
package main

import (
	"fmt"
	"log"

	"repro/internal/geo"
	"repro/internal/universe"
)

func main() {
	reg, err := universe.New()
	if err != nil {
		log.Fatal(err)
	}
	db := geo.FromRegistry(reg)
	fmt.Printf("geolocation database: %d prefixes\n\n", db.Size())

	// Three hand-built traffic profiles.
	profiles := []struct {
		name  string
		flows map[string]int64 // domain -> bytes
	}{
		{"domestic student", map[string]int64{
			"nflxvideo.net":   3 << 30,
			"googlevideo.com": 2 << 30,
			"hulustream.com":  1 << 30,
			"instagram.com":   300 << 20,
			"zoom.us":         500 << 20,
		}},
		{"international student (home-heavy)", map[string]int64{
			"hdslb.com":     4 << 30, // bilibili video
			"weixin.qq.com": 500 << 20,
			"iqiyi.com":     2 << 30,
			"nflxvideo.net": 800 << 20,
			"zoom.us":       500 << 20,
		}},
		{"international student (US-centric)", map[string]int64{
			"nflxvideo.net":   3 << 30,
			"googlevideo.com": 2 << 30,
			"weixin.qq.com":   400 << 20, // keeps WeChat for family
			"zoom.us":         500 << 20,
		}},
	}

	for _, prof := range profiles {
		cls := geo.NewClassifier(db)
		var mp geo.Midpoint
		for domain, bytes := range prof.flows {
			ip, ok := reg.ResolveIP(domain, 1)
			if !ok {
				log.Fatalf("domain %s not in universe", domain)
			}
			if pt, ok := cls.Point(ip); ok {
				mp.AddPoint(pt, float64(bytes))
			}
		}
		mid, ok := mp.Result()
		verdict := mp.Classify()
		fmt.Printf("%-36s → ", prof.name)
		if ok {
			fmt.Printf("midpoint (%.1f, %.1f), inUS=%v → %s\n", mid.Lat, mid.Lon, geo.InUS(mid), verdict)
		} else {
			fmt.Printf("no geolocatable traffic → %s\n", verdict)
		}
	}

	fmt.Println("\nNote the third profile: a real international student whose traffic")
	fmt.Println("is mostly US services classifies as domestic — the method is")
	fmt.Println("conservative, exactly as §4.2 acknowledges.")

	// The CDN exclusion ablation: why Akamai/AWS/Cloudfront/Optimizely
	// must be excluded from the midpoint.
	fmt.Println("\nCDN exclusion ablation (device fetching cnn.com via Akamai):")
	for _, include := range []bool{false, true} {
		cls := geo.NewClassifier(db)
		cls.IncludeCDNs = include
		ip, _ := reg.ResolveIP("cnn.com", 1)
		var mp geo.Midpoint
		if pt, ok := cls.Point(ip); ok {
			mp.AddPoint(pt, 1<<30)
		}
		fmt.Printf("  IncludeCDNs=%-5v → %s\n", include, mp.Classify())
	}
}
