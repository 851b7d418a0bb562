package main

import (
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/universe"
)

// Each benchmark seed picks its own generator seed, deterministically, and
// the picked population sits near the target size whatever the seed.
func TestGeneratorSeedHoldsInputSize(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for s := int64(1); s <= 6; s++ {
		g, err := generatorSeed(s, scale)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := generatorSeed(s, scale); again != g {
			t.Errorf("seed %d picked %d, then %d", s, g, again)
		}
		if g < s*seedCandidates || g >= (s+1)*seedCandidates {
			t.Errorf("seed %d picked %d, outside its candidates", s, g)
		}
		seen[g] = true
		cfg := trace.DefaultConfig()
		cfg.Scale, cfg.Seed = scale, g
		gen, err := trace.New(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		target := deviceDaysPerScale * scale
		if off := math.Abs(float64(deviceDays(gen))-target) / target; off > 0.03 {
			t.Errorf("seed %d: %d device-days, %.1f%% from the target %.0f", s, deviceDays(gen), 100*off, target)
		}
	}
	if len(seen) != 6 {
		t.Errorf("six seeds picked %d distinct generator seeds", len(seen))
	}
}
