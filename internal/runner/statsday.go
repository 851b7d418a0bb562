package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/faultline"
	"repro/internal/logsink"
	"repro/internal/stagecache"
	"repro/internal/universe"
)

// The statsday stage makes a rotated-dataset replay incremental: after each
// ingested day the pipeline seals the day (a checkpoint is only valid at a
// seal boundary) and, at the final day, writes one checkpoint of its full
// state to the cache under a key chained through every day's content. A
// later run over the same dataset grown by one day probes backward from its
// own final day, hits the previous run's checkpoint at N-1, restores the
// pipeline mid-stream, and replays only the appended day — O(delta)
// instead of O(dataset).

// rotatedLayout reports whether dir holds a rotated dataset (per-day
// subdirectories) rather than a flat one (top-level conn.log).
func rotatedLayout(dir string) bool {
	if _, err := os.Stat(filepath.Join(dir, logsink.ConnFile)); err == nil {
		return false
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if e.IsDir() {
			if _, err := os.Stat(filepath.Join(dir, e.Name(), logsink.ConnFile)); err == nil {
				return true
			}
		}
	}
	return false
}

// StatsdayEligible gates the per-day checkpoint path to configurations
// whose replay is day-separable: strict policy with no injection (the
// guard's global error budget and the injector's whole-dataset accounting
// would otherwise span days and break per-day key independence), and a
// rotated layout (flat datasets have no day boundaries to key on).
func StatsdayEligible(cfg Config, rc *Cache, policy faultline.Policy) bool {
	return rc.Store != nil && cfg.Logs != "" &&
		policy == faultline.PolicyStrict && cfg.FaultInject == 0 &&
		rotatedLayout(cfg.Logs)
}

// statsdayKey derives day i's chained checkpoint key: everything that can
// move a byte of the checkpoint enters the digest — the code and rules, the
// two codec versions, the pseudonymization key, the fault knobs, the
// previous day's key (so any upstream day change cascades) and this day's
// own content digest. The generator knobs (scale, seed) deliberately do
// not: a checkpoint is a pure function of the replayed bytes and the key,
// and scale/seed only matter for the truth rebuild, which happens outside
// this stage.
func (rc *Cache) statsdayKey(cfg Config, prev stagecache.Digest, day string, dayDigest stagecache.Digest) stagecache.Digest {
	h := stagecache.NewHasher("lockdown/statsday")
	h.Digest("code", rc.Code)
	h.Digest("rules", rc.Rules)
	h.Int("dataset_codec", core.DatasetCodecVersion)
	h.Int("checkpoint_codec", core.CheckpointCodecVersion)
	h.Bytes("key", cfg.Key)
	h.String("fault_policy", cfg.FaultPolicy)
	h.Float("fault_budget", cfg.FaultBudget)
	h.Float("fault_inject", cfg.FaultInject)
	h.Int("fault_seed", cfg.FaultSeed)
	h.Digest("prev", prev)
	h.String("day", day)
	h.Digest("tree", dayDigest)
	return h.Sum()
}

// statsday reports one incremental replay: the pipeline ready to Finalize,
// the probe accounting behind the `statsday:` status line (the CI
// append-smoke assertion surface), and the seal timing for the bench
// report.
type statsday struct {
	pipe     *core.Pipeline
	days     int     // day directories in the dataset
	replayed int     // days actually ingested this run
	hits     int     // checkpoint probes that hit (0 or 1)
	misses   int     // checkpoint probes that missed
	sealMS   float64 // total SealDay cost across replayed days
}

func (r *statsday) line() string {
	return fmt.Sprintf("statsday: days=%d replayed=%d misses=%d hits=%d",
		r.days, r.replayed, r.misses, r.hits)
}

// runStatsday replays a rotated dataset through the per-day checkpoint
// cache: derive every day's chained key, probe backward for the deepest
// cached checkpoint, restore (or start fresh), replay and seal only the
// remaining days, and publish the final day's checkpoint for the next run.
// The caller finalizes the returned pipeline.
func (rc *Cache) runStatsday(cfg Config, tree *stagecache.Tree, reg *universe.Registry, opts core.Options, replayOpts logsink.ReplayOptions) (*statsday, error) {
	days, err := logsink.DayDirs(cfg.Logs)
	if err != nil {
		return nil, err
	}
	keys := make([]stagecache.Digest, len(days))
	var prev stagecache.Digest
	for i, d := range days {
		// Each day's digest is a Merkle child of the stats key's tree
		// digest: the one pass over the tree already computed it.
		dayDigest, ok := tree.Dirs[d]
		if !ok {
			return nil, fmt.Errorf("statsday: day %s appeared after %s was hashed", d, cfg.Logs)
		}
		keys[i] = rc.statsdayKey(cfg, prev, d, dayDigest)
		prev = keys[i]
	}

	res := &statsday{days: len(days)}
	var pipe *core.Pipeline
	start := 0
	// Deepest checkpoint wins: the final day's key hits on an unchanged
	// dataset (replay nothing), day N-2's hits after a one-day append
	// (replay one day), and so on down to a cold start.
	for j := len(days) - 1; j >= 0; j-- {
		var restored *core.Pipeline
		if _, ok := rc.Store.GetBytes("statsday", keys[j], func(files map[string][]byte) error {
			p, err := core.RestoreCheckpoint(reg, opts, files["checkpoint.bin"])
			if err != nil {
				return err
			}
			restored = p
			return nil
		}); ok {
			pipe, start = restored, j+1
			res.hits++
			break
		}
		res.misses++
	}
	if pipe == nil {
		pipe, err = core.NewPipeline(reg, opts)
		if err != nil {
			return nil, err
		}
	}

	var replayer logsink.DayReplayer
	for i := start; i < len(days); i++ {
		if err := replayer.Replay(cfg.Logs, days[i], pipe, replayOpts); err != nil {
			return nil, err
		}
		t0 := time.Now()
		pipe.SealDay(days[i])
		res.sealMS += msSince(t0)
		res.replayed++
	}

	if res.replayed > 0 {
		ckpt, err := pipe.EncodeCheckpoint()
		if err != nil {
			return nil, err
		}
		if err := rc.Store.PutBytes("statsday", keys[len(days)-1],
			map[string]stagecache.Digest{"code": rc.Code, "rules": rc.Rules},
			map[string][]byte{"checkpoint.bin": ckpt}); err != nil {
			return nil, err
		}
	}
	res.pipe = pipe
	return res, nil
}
