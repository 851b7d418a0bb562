// Package runner is the stage graph that turns campus logs into figures,
// shared by the batch CLI (cmd/lockdown, through Run) and the daemon
// (cmd/lockdownd, through OpenLive). A batch run passes through these
// layers in order:
//
//   - source: generate the workload, replay a flat dataset, or replay a
//     rotated one day by day from the deepest cached checkpoint;
//   - ingest: the pipeline the source feeds;
//   - seal and checkpoint: the per-day path's seals and final checkpoint
//     (statsday.go);
//   - content keying: the stage-cache keys and probes (cache.go);
//   - figures: figset.Compute, plus the year-over-year comparison;
//   - render: every artifact into memory, the one copy both the cache and
//     the output directory receive.
package runner

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campus"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultline"
	"repro/internal/figset"
	"repro/internal/logsink"
	"repro/internal/obs"
	"repro/internal/stagecache"
	"repro/internal/trace"
	"repro/internal/universe"
	"repro/internal/viz"
)

// Config is one run's settings: everything that can move an output byte or
// a cache key, and nothing that only observes the run.
type Config struct {
	Scale float64 // population scale the workload is (or was) generated at
	Seed  int64   // generator seed
	Key   []byte  // pseudonymization key (nil = random per run)
	Logs  string  // dataset to replay or follow ("" = generate)
	Out   string  // output directory; quarantine.log lands here too
	Yoy   bool    // also simulate the counterfactual baseline year

	// Stage-cache knobs: CacheDir roots the content-addressed store
	// (empty = no caching), CacheMode gates reads/writes, FigWorkers
	// bounds the figure pool (a figure-only knob, so changing it
	// invalidates only the figures stage).
	CacheDir   string
	CacheMode  string
	FigWorkers int

	// Fault-robustness knobs (only meaningful with Logs; the generator
	// path has no decode step to guard).
	FaultPolicy string  // strict | skip | quarantine | abort ("" = strict)
	FaultBudget float64 // tolerated drop fraction under abort
	FaultInject float64 // injected corruption rate (test/CI harness)
	FaultSeed   int64   // corruption injector seed
}

// Env is what a run reports into. Nothing in it can move an output byte.
type Env struct {
	Reg      *universe.Registry
	Metrics  *obs.Metrics  // nil runs the uninstrumented fast path
	Progress *obs.Progress // nil prints no progress lines
	Status   io.Writer     // stage status lines
}

// Result is what a batch run hands back for the caller's report.
type Result struct {
	Dataset *core.Dataset
	Report  []byte        // report.txt as written
	Ingest  time.Duration // the stats stage's wall time
	// Replayed marks Ingest as a cache replay (the whole stage, or every
	// day up to a checkpoint), not pipeline throughput.
	Replayed      bool
	SealMS        float64 // day-seal cost on the per-day checkpoint path
	FiguresMS     map[string]float64
	FiguresWallMS float64
	Cache         string // the `cache:` status text ("" without -cache-dir)
	Cached        bool   // the store engaged
	// KeyingMS is the content-keying layer's cost: the replayed tree's
	// one hashing pass plus the stats and figures keys (the per-day keys
	// reuse the tree's day digests). HashedBytes is what the tree pass
	// read (cached -logs runs only).
	KeyingMS    float64
	HashedBytes int64
}

// policy parses the fault policy and checks the fault knobs against the
// rest of the configuration: every run calls it before any work starts.
func (c Config) policy() (faultline.Policy, error) {
	policy := faultline.PolicyStrict
	if c.FaultPolicy != "" {
		var err error
		if policy, err = faultline.ParsePolicy(c.FaultPolicy); err != nil {
			return policy, err
		}
	}
	if c.Logs == "" && (policy != faultline.PolicyStrict || c.FaultInject > 0) {
		return policy, errors.New("-fault-policy/-fault-inject require -logs (nothing to decode on the generator path)")
	}
	if c.Logs != "" && c.Yoy {
		return policy, errors.New("-yoy needs the generator path: -logs replays recorded logs, which have no counterfactual baseline year")
	}
	if policy == faultline.PolicyQuarantine && c.Out == "" {
		return policy, errors.New("-fault-policy quarantine needs an output directory to write quarantine.log into")
	}
	return policy, nil
}

// faultLayer builds a replay's fault layer. Every replay gets a guard:
// under PolicyStrict it changes no behavior (Reject stays transparent) but
// keeps the offered/accepted accounting, so the end-of-run audit line is
// always complete. Under PolicyQuarantine rejected records go to
// quarantine.log in the output directory, returned for the caller to
// close.
func (c Config) faultLayer(policy faultline.Policy, metrics *obs.Metrics) (opts logsink.ReplayOptions, qf *os.File, err error) {
	var quarW io.Writer
	if policy == faultline.PolicyQuarantine {
		if err := os.MkdirAll(c.Out, 0o755); err != nil {
			return opts, nil, err
		}
		if qf, err = os.Create(filepath.Join(c.Out, "quarantine.log")); err != nil {
			return opts, nil, err
		}
		quarW = qf
	}
	opts.Guard = faultline.NewGuard(policy, c.FaultBudget, quarW, metrics)
	if c.FaultInject > 0 {
		opts.Inject = &faultline.Config{Seed: c.FaultSeed, Rate: c.FaultInject}
	}
	return opts, qf, nil
}

// truth rebuilds the population a replayed dataset was generated from
// (same scale and seed) and maps it through the pipeline's pseudonyms:
// the ground truth for the accuracy experiment.
func (c Config) truth(reg *universe.Registry, pipe *core.Pipeline) (truthMap, error) {
	gen, err := trace.New(trace.ScaledConfig(c.Scale, c.Seed), reg)
	if err != nil {
		return nil, err
	}
	return gen.Truth(pipe.DeviceID), nil
}

func (c Config) figParams(truth truthMap) figset.Params {
	return figset.Params{Scale: c.Scale, Seed: c.Seed, Truth: truth, Workers: c.FigWorkers}
}

// Live is a following run's setup (cmd/lockdownd): the pipeline, the fault
// layer its replay runs under, and the figure parameters carrying the
// ground truth.
type Live struct {
	Pipe   *core.Pipeline
	Replay logsink.ReplayOptions
	Params figset.Params
}

// OpenLive sets up a run that follows cfg.Logs as it grows, under the
// batch run's fault rules: a guard on every replay. A live run writes no
// files, so cfg.Out is ignored and PolicyQuarantine is refused.
func OpenLive(cfg Config, reg *universe.Registry, metrics *obs.Metrics) (*Live, error) {
	cfg.Out = ""
	policy, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	replay, _, err := cfg.faultLayer(policy, metrics)
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewPipeline(reg, core.Options{Key: cfg.Key, Obs: metrics})
	if err != nil {
		return nil, err
	}
	// Pseudonyms only need the key, not traffic, so the truth is ready
	// before ingest starts.
	truth, err := cfg.truth(reg, pipe)
	if err != nil {
		return nil, err
	}
	return &Live{Pipe: pipe, Replay: replay, Params: cfg.figParams(truth)}, nil
}

// batch is one Run's state as it moves through the layers.
type batch struct {
	cfg    Config
	env    Env
	rc     *Cache
	policy faultline.Policy
	guard  *faultline.Guard // the replay's guard; nil when stats hit
	tree   *stagecache.Tree // the replayed tree's digests (cached -logs runs)
	sd     *statsday        // the per-day path's accounting, when it ran
}

// Run executes the batch stage graph — stats (source, ingest, seal and
// checkpoint behind the stats-stage probe), the optional counterfactual
// baseline, figures and render — writing every artifact into cfg.Out and
// each stage's status line to env.Status.
func Run(cfg Config, env Env) (*Result, error) {
	policy, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	rc, err := OpenCache(cfg, env.Reg, env.Metrics)
	if err != nil {
		return nil, err
	}
	b := &batch{cfg: cfg, env: env, rc: rc, policy: policy}
	res := &Result{Cached: rc.Store != nil}

	// Stats stage: the finalized Dataset plus the ground truth. A verified
	// cache hit replaces the entire ingest (and, in logs mode, the
	// truth-rebuild generator pass). Replayed datasets enter the key by
	// content: hashing the whole tree is what makes a single flipped input
	// byte a different key. The tree is hashed once; the per-day path keys
	// each day on its subdirectory's digest from the same pass.
	var logsDigest, statsKey stagecache.Digest
	if rc.Store != nil {
		t0 := time.Now()
		if cfg.Logs != "" {
			if b.tree, err = stagecache.HashTree(cfg.Logs); err != nil {
				return nil, err
			}
			logsDigest, res.HashedBytes = b.tree.Root, b.tree.Bytes
		}
		statsKey = rc.StatsKey(cfg, logsDigest, false)
		res.KeyingMS += msSince(t0)
	}
	start := time.Now()
	stats, err := rc.stats(statsKey, true,
		map[string]stagecache.Digest{"code": rc.Code, "rules": rc.Rules, "dataset": logsDigest},
		func() (*core.Dataset, truthMap, error) {
			ds, truth, err := b.ingest()
			if err != nil {
				return nil, nil, err
			}
			res.Ingest = time.Since(start)
			env.Progress.Stop()
			return ds, truth, nil
		})
	if err != nil {
		return nil, err
	}
	ds, how, round := stats.ds, "processed", time.Second
	if stats.hit {
		res.Ingest = time.Since(start)
		how, round = "replayed from stats cache", time.Millisecond
	}
	fmt.Fprintf(env.Status, "pipeline: %d flows, %d devices, %s %s in %v\n", ds.Stats.FlowsProcessed,
		len(ds.Devices), viz.SIBytes(float64(ds.Stats.BytesProcessed)), how, res.Ingest.Round(round))
	if b.sd != nil {
		// The probe accounting line the CI append-smoke asserts on.
		fmt.Fprintln(env.Status, b.sd.line())
		res.SealMS = b.sd.sealMS
	}
	if cfg.Logs != "" {
		// The audit line prints for every replay run — including runs that
		// offered zero records because the stats stage came from cache.
		fmt.Fprintf(env.Status, "fault guard: %s\n", b.guard.Summary())
	}
	res.Dataset = ds
	res.Replayed = stats.hit || (b.sd != nil && b.sd.hits > 0)

	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}
	// Counterfactual baseline (generator mode only; policy refuses -yoy
	// with -logs): its own stats-stage entry keyed with no_pandemic=true,
	// resolved before the figures stage so the figures key can chain on
	// the baseline's content.
	var base *statsEntry
	if cfg.Yoy {
		if base, err = b.baseline(); err != nil {
			return nil, err
		}
	}
	arts, figHit, err := b.figures(stats, base, res)
	if err != nil {
		return nil, err
	}
	// One render path feeds both the cache and the output directory, so a
	// cached figure set is byte-for-byte what a cold run writes.
	for _, name := range ArtifactNames() {
		if err := os.WriteFile(filepath.Join(cfg.Out, name), arts[name], 0o644); err != nil {
			return nil, err
		}
	}
	res.Report = arts[ReportName]
	if cfg.CacheDir != "" {
		res.Cache = rc.Note
		if rc.Store != nil {
			res.Cache = fmt.Sprintf("%s stats=%s figures=%s", rc.Store.Summary(), hitMiss[stats.hit], hitMiss[figHit])
		}
	}
	return res, nil
}

var hitMiss = map[bool]string{true: "hit", false: "miss"}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// ingest runs the source and ingest layers into a fresh (or restored)
// pipeline and finalizes it.
func (b *batch) ingest() (*core.Dataset, truthMap, error) {
	cfg, env := b.cfg, b.env
	opts := core.Options{Key: cfg.Key, Obs: env.Metrics}
	if cfg.Logs == "" {
		pipe, err := core.NewPipeline(env.Reg, opts)
		if err != nil {
			return nil, nil, err
		}
		gen, err := trace.New(trace.ScaledConfig(cfg.Scale, cfg.Seed), env.Reg)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(env.Status, "generating %d devices over %d days (scale %.3g)...\n",
			len(gen.Devices()), campus.NumDays, cfg.Scale)
		prog := env.Progress
		prog.SetTotal(int64(campus.NumDays))
		prog.Start()
		// One Run call lets the generator build day d+1 while the pipeline
		// ingests day d. The progress reporter still gets exact day-level
		// completion for its ETA from a sink-side counter of the
		// generator's day ends.
		var sink trace.Sink = pipe
		if prog != nil {
			var days int64
			sink = &trace.DayCounter{Sink: pipe, OnDay: func() {
				days++
				prog.SetDone(days)
			}}
		}
		if err := gen.Run(sink); err != nil {
			return nil, nil, err
		}
		truth := gen.Truth(pipe.DeviceID)
		return pipe.Finalize(), truth, nil
	}

	replay, qf, err := cfg.faultLayer(b.policy, env.Metrics)
	if err != nil {
		return nil, nil, err
	}
	if qf != nil {
		defer qf.Close()
	}
	b.guard = replay.Guard
	fmt.Fprintf(env.Status, "replaying dataset from %s...\n", cfg.Logs)
	env.Progress.Start()
	var pipe *core.Pipeline
	if StatsdayEligible(cfg, b.rc, b.policy) {
		// Incremental path: restore the deepest cached per-day checkpoint
		// and replay only the days past it.
		if b.sd, err = b.rc.runStatsday(cfg, b.tree, env.Reg, opts, replay); err != nil {
			return nil, nil, err
		}
		pipe = b.sd.pipe
	} else {
		if pipe, err = core.NewPipeline(env.Reg, opts); err != nil {
			return nil, nil, err
		}
		// Auto-detect the dataset layout: a flat tracegen directory has a
		// top-level conn.log; a rotated one has per-day subdirectories.
		replayAll := logsink.ReplayWithOptions
		if rotatedLayout(cfg.Logs) {
			replayAll = logsink.ReplayRotatedWithOptions
		}
		if err := replayAll(cfg.Logs, pipe, replay); err != nil {
			return nil, nil, err
		}
	}
	truth, err := cfg.truth(env.Reg, pipe)
	if err != nil {
		return nil, nil, err
	}
	return pipe.Finalize(), truth, nil
}

// baseline resolves the counterfactual (no-pandemic) year's stats entry.
func (b *batch) baseline() (*statsEntry, error) {
	cfg, env, rc := b.cfg, b.env, b.rc
	var key stagecache.Digest
	if rc.Store != nil {
		key = rc.StatsKey(cfg, "", true)
	}
	base, err := rc.stats(key, false, map[string]stagecache.Digest{"code": rc.Code, "rules": rc.Rules},
		func() (*core.Dataset, truthMap, error) {
			fmt.Fprintln(env.Status, "simulating counterfactual baseline year...")
			gcfg := trace.ScaledConfig(cfg.Scale, cfg.Seed)
			gcfg.NoPandemic = true
			gen, err := trace.New(gcfg, env.Reg)
			if err != nil {
				return nil, nil, err
			}
			pipe, err := core.NewPipeline(env.Reg, core.Options{Key: cfg.Key})
			if err != nil {
				return nil, nil, err
			}
			if err := gen.Run(pipe); err != nil {
				return nil, nil, err
			}
			return pipe.Finalize(), nil, nil
		})
	if err == nil && base.hit {
		fmt.Fprintln(env.Status, "counterfactual baseline replayed from stats cache")
	}
	return base, err
}

// figures resolves the figures stage: every CSV plus the report, keyed on
// the content of the stats payloads. A hit skips figure computation
// entirely — the figure-only-change replay path.
func (b *batch) figures(stats, base *statsEntry, res *Result) (arts map[string][]byte, hit bool, err error) {
	cfg, rc := b.cfg, b.rc
	var figKey, dsDigest, truthDigest stagecache.Digest
	res.FiguresMS = map[string]float64{}
	if rc.Store != nil {
		t0 := time.Now()
		dsDigest, truthDigest = stagecache.ContentDigest(stats.dsBytes), stagecache.ContentDigest(stats.truthBytes)
		var yoyDigest stagecache.Digest
		if base != nil {
			yoyDigest = stagecache.ContentDigest(base.dsBytes)
		}
		figKey = rc.FiguresKey(cfg, dsDigest, truthDigest, yoyDigest)
		res.KeyingMS += msSince(t0)
		if files, ok := rc.Store.GetBytes("figures", figKey, validateArtifacts); ok {
			return files, true, nil
		}
	}
	// Figure/stat finalization fans out over a bounded worker pool: every
	// figure is an independent pure function over the sealed Dataset, each
	// writing its own results slot, so they run concurrently on whatever
	// cores ingest just released. Per-figure timings still land in
	// figures_ms (localizing a regression to one analysis); the pool's wall
	// time is reported separately as figures_wall_ms — on a multi-core host
	// it is the max lane, not the sum.
	var fr *figset.Results
	fr, res.FiguresMS, res.FiguresWallMS = figset.Compute(stats.ds, cfg.figParams(stats.truth))
	if base != nil {
		y := experiments.YearOverYear(stats.ds, base.ds)
		fr.YoY = &y
	}
	// render_csv stays serial — it reads every figure's slot.
	t0 := time.Now()
	if arts, err = renderArtifacts(fr); err != nil {
		return nil, false, err
	}
	res.FiguresMS["render_csv"] = msSince(t0)
	if rc.Store != nil {
		err = rc.Store.PutBytes("figures", figKey,
			map[string]stagecache.Digest{"dataset": dsDigest, "truth": truthDigest}, arts)
	}
	return arts, false, err
}

// ReportName is the figures-stage artifact holding the ASCII report; the
// figure CSVs use their figset names.
const ReportName = "report.txt"

// ArtifactNames is the figures stage's complete payload listing: every file
// a batch run writes and the daemon serves.
func ArtifactNames() []string {
	return append(figset.FigureNames(), ReportName)
}

// validateArtifacts rejects a figures entry that lacks any expected
// artifact (e.g. one written by a build with a different figure set that
// somehow shared a key).
func validateArtifacts(files map[string][]byte) error {
	for _, name := range ArtifactNames() {
		if _, ok := files[name]; !ok {
			return fmt.Errorf("figures entry missing %s", name)
		}
	}
	return nil
}

// renderArtifacts renders every figure CSV and the report into memory —
// the single render path for both the output directory and the cache, so
// the two can never diverge.
func renderArtifacts(res *figset.Results) (map[string][]byte, error) {
	out := make(map[string][]byte, len(figset.FigureNames())+1)
	for _, name := range figset.FigureNames() {
		var buf bytes.Buffer
		if err := res.WriteFigure(&buf, name); err != nil {
			return nil, err
		}
		out[name] = buf.Bytes()
	}
	var buf bytes.Buffer
	if err := res.Report(&buf); err != nil {
		return nil, err
	}
	out[ReportName] = buf.Bytes()
	return out, nil
}
