package runner

import (
	"fmt"

	"repro/internal/anonymize"
	"repro/internal/appsig"
	"repro/internal/core"
	"repro/internal/devclass"
	"repro/internal/obs"
	"repro/internal/stagecache"
	"repro/internal/universe"
)

// The content-keying layer. A cached batch run probes the store in one
// fixed order: the stats entry; on a miss over a rotated dataset, the
// per-day checkpoints from the final day backward (statsday.go); the
// counterfactual baseline's stats entry under -yoy; then the figures
// entry. The `cache:` status line and the bench report count these probes,
// so the order is part of the output.

// Cache is one run's stage-cache state: the store (nil when caching is
// inactive), the run-invariant code and rules digests every stage key
// chains from, and a human-readable note when a cache directory was given
// but caching could not engage.
type Cache struct {
	Store *stagecache.Store
	Code  stagecache.Digest
	Rules stagecache.Digest
	Note  string
}

// OpenCache resolves the cache settings. Caching requires a fixed
// pseudonymization key: with a random per-run key the device pseudonyms in
// a cached dataset are unlinkable to any other run, so reuse would be
// meaningless — the cache stays off (with a note) rather than serving
// surprising results.
func OpenCache(cfg Config, reg *universe.Registry, metrics *obs.Metrics) (*Cache, error) {
	rc := &Cache{}
	if cfg.CacheDir == "" {
		return rc, nil
	}
	mode, err := stagecache.ParseMode(cfg.CacheMode)
	if err != nil {
		return nil, err
	}
	if mode == stagecache.ModeOff {
		rc.Note = "mode=off"
		return rc, nil
	}
	if len(cfg.Key) == 0 {
		rc.Note = "disabled: -key required (random per-run pseudonyms make cached stages unlinkable)"
		return rc, nil
	}
	rc.Code, err = stagecache.CodeDigest()
	if err != nil {
		return nil, fmt.Errorf("stage cache: code digest: %w", err)
	}
	rc.Rules = stagecache.RulesDigest(reg, appsig.TableRows())
	rc.Store, err = stagecache.Open(cfg.CacheDir, mode, metrics)
	if err != nil {
		return nil, fmt.Errorf("stage cache: %w", err)
	}
	return rc, nil
}

// StatsKey derives the stats stage's cache key: everything that can move
// a byte of the finalized Dataset or the ground-truth map enters the
// digest; knobs that provably cannot (output paths, progress and report
// options) deliberately do not. logsDigest is the replayed
// dataset's TreeDigest ("" in generator mode); noPandemic selects the
// counterfactual baseline world (the -yoy second pipeline).
func (rc *Cache) StatsKey(cfg Config, logsDigest stagecache.Digest, noPandemic bool) stagecache.Digest {
	h := stagecache.NewHasher("lockdown/stats")
	h.Digest("code", rc.Code)
	h.Digest("rules", rc.Rules)
	h.Int("dataset_codec", core.DatasetCodecVersion)
	h.Bytes("key", cfg.Key)
	h.Float("scale", cfg.Scale)
	h.Int("seed", cfg.Seed)
	h.Bool("no_pandemic", noPandemic)
	if logsDigest != "" {
		h.String("source", "logs")
		h.Digest("dataset", logsDigest)
		// The fault layer shapes which records survive replay, so every
		// knob is key material — a replay under a different policy or
		// injection rate is a different dataset.
		h.String("fault_policy", cfg.FaultPolicy)
		h.Float("fault_budget", cfg.FaultBudget)
		h.Float("fault_inject", cfg.FaultInject)
		h.Int("fault_seed", cfg.FaultSeed)
	} else {
		h.String("source", "generate")
	}
	return h.Sum()
}

// FiguresKey derives the figures stage's cache key. The stage is chained
// on the *content* of its inputs (the encoded dataset, truth map and
// optional counterfactual baseline), buildkit-style: two configurations
// that produce byte-identical stats share one figures entry. Figure-only
// knobs (here FigWorkers, conservatively keyed even though the pool size
// is output-neutral) invalidate figures without touching stats — that
// asymmetry is what makes a figure-only change replay from cached stats in
// milliseconds.
func (rc *Cache) FiguresKey(cfg Config, dsDigest, truthDigest, yoyDigest stagecache.Digest) stagecache.Digest {
	h := stagecache.NewHasher("lockdown/figures")
	h.Digest("code", rc.Code)
	h.Digest("rules", rc.Rules)
	h.Digest("dataset", dsDigest)
	h.Digest("truth", truthDigest)
	h.Bool("yoy", yoyDigest != "")
	if yoyDigest != "" {
		h.Digest("yoy_baseline", yoyDigest)
	}
	h.Float("scale", cfg.Scale)
	h.Int("seed", cfg.Seed)
	h.Int("fig_workers", int64(cfg.FigWorkers))
	return h.Sum()
}

// truthMap is the ground truth the accuracy experiment scores against.
type truthMap = map[anonymize.DeviceID]devclass.Type

// statsEntry is one resolved stats-stage entry: the dataset and, for the
// main run, the ground truth, plus the encodings the figures key chains on
// (nil when caching is off).
type statsEntry struct {
	ds                  *core.Dataset
	truth               truthMap
	dsBytes, truthBytes []byte
	hit                 bool
}

// stats resolves one stats-stage entry under key. A verified hit decodes
// the payload. Otherwise compute produces the dataset (and the truth when
// withTruth; the counterfactual baseline carries none), and a cached run
// encodes both and publishes them with the manifest's inputs.
func (rc *Cache) stats(key stagecache.Digest, withTruth bool, inputs map[string]stagecache.Digest,
	compute func() (*core.Dataset, truthMap, error)) (*statsEntry, error) {
	e := &statsEntry{}
	if rc.Store != nil {
		files, ok := rc.Store.GetBytes("stats", key, func(files map[string][]byte) error {
			ds, err := core.DecodeDataset(files["dataset.bin"])
			if err != nil {
				return err
			}
			var truth truthMap
			if withTruth {
				if truth, err = core.DecodeTruth(files["truth.bin"]); err != nil {
					return err
				}
			}
			e.ds, e.truth = ds, truth
			return nil
		})
		if ok {
			e.dsBytes, e.truthBytes, e.hit = files["dataset.bin"], files["truth.bin"], true
			return e, nil
		}
	}
	var err error
	if e.ds, e.truth, err = compute(); err != nil || rc.Store == nil {
		return e, err
	}
	files := map[string][]byte{"dataset.bin": core.EncodeDataset(e.ds)}
	if withTruth {
		files["truth.bin"] = core.EncodeTruth(e.truth)
	}
	e.dsBytes, e.truthBytes = files["dataset.bin"], files["truth.bin"]
	return e, rc.Store.PutBytes("stats", key, inputs, files)
}
