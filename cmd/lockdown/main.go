// Command lockdown runs the full reproduction end to end: it generates the
// synthetic campus workload (or a scaled-down version), streams it through
// the measurement pipeline, computes every figure and headline result from
// the paper, and writes CSV series plus an ASCII report.
//
// Usage:
//
//	lockdown [-scale 0.05] [-seed 1] [-out results/] [-quiet]
//	         [-logs dataset/]    ingest a tracegen dataset instead of generating
//	         [-shards N]         parallelize ingest across N pipeline shards
//	         [-yoy]              also simulate the counterfactual baseline year
//	         [-cpuprofile f]     write a CPU profile
//	         [-progress 5s]      emit live ingest progress (events/sec, ETA)
//	         [-progress-format text|json]
//	         [-debug-addr host:port]  expvar + pprof endpoint while running
//	         [-bench-json path]  write a machine-readable BENCH_<date>.json
//	         [-cache-dir d]      content-addressed stage cache (skip clean stages)
//	         [-cache-mode m]     off | read | readwrite (default readwrite)
//	         [-fig-workers n]    figure pool size (0 = GOMAXPROCS; output-neutral)
//
// Scale 1.0 reproduces paper-scale population counts (~32k peak devices,
// tens of millions of flows; allow several minutes and ~2 GB RAM). The
// default 0.05 runs in ~20 seconds and preserves every trend.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/anonymize"
	"repro/internal/campus"
	"repro/internal/core"
	"repro/internal/devclass"
	"repro/internal/experiments"
	"repro/internal/faultline"
	"repro/internal/figset"
	"repro/internal/logsink"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/stagecache"
	"repro/internal/trace"
	"repro/internal/universe"
	"repro/internal/viz"
)

func siBytes(v float64) string { return viz.SIBytes(v) }

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

// config carries one run's settings (flag values; tests drive run directly).
type config struct {
	scale          float64
	seed           int64
	out            string
	logs           string
	shards         int
	yoy            bool
	quiet          bool
	progressEvery  time.Duration
	progressFormat string
	debugAddr      string
	benchJSON      string
	measureScaling bool

	// Stage-cache knobs: cacheDir roots the content-addressed store
	// (empty = no caching), cacheMode gates reads/writes, figWorkers
	// bounds the figure pool (a figure-only knob, so changing it
	// invalidates only the figures stage).
	cacheDir   string
	cacheMode  string
	figWorkers int

	// Fault-robustness knobs (only meaningful with -logs; the generator
	// path has no decode step to guard).
	faultPolicy string  // strict | skip | quarantine | abort
	faultBudget float64 // tolerated drop fraction under abort
	faultInject float64 // injected corruption rate (test/CI harness)
	faultSeed   int64   // corruption injector seed

	// key fixes the pseudonymization key (nil = random); tests and the CI
	// single-vs-sharded diffs use it to make two runs comparable (-key).
	key []byte
	// statusW receives status and progress lines (default os.Stderr).
	statusW io.Writer
}

func main() {
	var cfg config
	flag.Float64Var(&cfg.scale, "scale", 0.05, "population scale (1.0 = paper scale)")
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed")
	flag.StringVar(&cfg.out, "out", "results", "output directory for CSVs and report")
	flag.StringVar(&cfg.logs, "logs", "", "ingest a tracegen dataset directory instead of generating live")
	flag.IntVar(&cfg.shards, "shards", 1, "pipeline shards (0 = GOMAXPROCS; >1 parallelizes ingest)")
	flag.BoolVar(&cfg.yoy, "yoy", false, "also simulate the counterfactual baseline year (doubles runtime)")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the terminal report")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.DurationVar(&cfg.progressEvery, "progress", 0, "emit a progress line at this interval (0 = off)")
	flag.StringVar(&cfg.progressFormat, "progress-format", "text", "progress line format: text or json")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve expvar + pprof on this address while running (e.g. localhost:6060)")
	flag.StringVar(&cfg.benchJSON, "bench-json", "", "write a machine-readable bench report (a .json path, or a directory receiving BENCH_<date>.json)")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "content-addressed stage cache directory (requires -key; empty = no caching)")
	flag.StringVar(&cfg.cacheMode, "cache-mode", "readwrite", "stage-cache mode: off, read or readwrite")
	flag.IntVar(&cfg.figWorkers, "fig-workers", 0, "figure finalization workers (0 = GOMAXPROCS); scheduling-only, never changes output bytes")
	flag.BoolVar(&cfg.measureScaling, "measure-scaling", false, "also measure single-vs-sharded reference rates on a recorded window and report scaling_efficiency (requires -bench-json and -shards ≥ 2)")
	flag.StringVar(&cfg.faultPolicy, "fault-policy", "strict", "decode-error policy for -logs replay: strict, skip, quarantine or abort")
	flag.Float64Var(&cfg.faultBudget, "fault-budget", 0.001, "tolerated dropped-record fraction under -fault-policy abort")
	flag.Float64Var(&cfg.faultInject, "fault-inject", 0, "inject seeded corruption into the replayed logs at this per-record rate (testing)")
	flag.Int64Var(&cfg.faultSeed, "fault-seed", 1, "seed for -fault-inject corruption")
	keyHex := flag.String("key", "", "hex pseudonymization key; fixes device pseudonyms so two runs are byte-comparable (default: random per run)")
	flag.Parse()

	if *keyHex != "" {
		key, err := hex.DecodeString(*keyHex)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockdown: bad -key:", err)
			os.Exit(1)
		}
		cfg.key = key
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockdown:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "lockdown:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lockdown:", err)
		os.Exit(1)
	}
}

// ingestPipeline abstracts Pipeline and ShardedPipeline for the harness.
type ingestPipeline interface {
	trace.Sink
	DeviceID(m packet.MAC) anonymize.DeviceID
	Finalize() *core.Dataset
}

func run(cfg config) error {
	start := time.Now()
	statusW := cfg.statusW
	if statusW == nil {
		statusW = os.Stderr
	}
	reg, err := universe.New()
	if err != nil {
		return err
	}

	// Observability: metrics exist whenever any consumer (progress lines,
	// debug endpoint, bench report) needs them; otherwise the pipeline
	// runs the uninstrumented fast path.
	var metrics *obs.Metrics
	if cfg.progressEvery > 0 || cfg.debugAddr != "" || cfg.benchJSON != "" {
		metrics = obs.NewMetrics()
	}
	if cfg.debugAddr != "" {
		dbg, err := obs.ServeDebug(cfg.debugAddr, metrics)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(statusW, "debug endpoint on http://%s/debug/vars (pprof under /debug/pprof/)\n", dbg.Addr())
	}
	var prog *obs.Progress
	if cfg.progressEvery > 0 {
		var rep obs.Reporter
		switch cfg.progressFormat {
		case "", "text":
			rep = &obs.TextReporter{W: statusW}
		case "json":
			rep = &obs.JSONReporter{W: statusW}
		default:
			return fmt.Errorf("bad -progress-format %q, want text or json", cfg.progressFormat)
		}
		prog = obs.NewProgress(metrics, rep, cfg.progressEvery)
		prog.SetLabel("ingest")
	}

	// Fault layer: policy guard and optional corruption injection apply to
	// dataset replay only — the generator path has no decode step.
	policy := faultline.PolicyStrict
	if cfg.faultPolicy != "" {
		policy, err = faultline.ParsePolicy(cfg.faultPolicy)
		if err != nil {
			return err
		}
	}
	if cfg.logs == "" && (policy != faultline.PolicyStrict || cfg.faultInject > 0) {
		return fmt.Errorf("-fault-policy/-fault-inject require -logs (nothing to decode on the generator path)")
	}

	rc, err := openRunCache(cfg, reg, metrics)
	if err != nil {
		return err
	}
	// Replayed datasets enter the stats key by content: hashing the whole
	// tree is what makes a single flipped input byte a different key.
	var logsDigest stagecache.Digest
	if rc.store != nil && cfg.logs != "" {
		logsDigest, _, err = stagecache.TreeDigest(cfg.logs)
		if err != nil {
			return err
		}
	}

	// Stats stage: the finalized Dataset plus the generator ground truth.
	// A verified cache hit replaces the entire ingest (and, in logs mode,
	// the truth-rebuild generator pass).
	var truth map[anonymize.DeviceID]devclass.Type
	var ds *core.Dataset
	var dsBytes, truthBytes []byte
	statsStatus := "off"
	var statsKey stagecache.Digest
	if rc.store != nil {
		statsKey = rc.statsKey(cfg, logsDigest, false)
		var hitDS *core.Dataset
		var hitTruth map[anonymize.DeviceID]devclass.Type
		if files, ok := rc.store.GetBytes("stats", statsKey, func(files map[string][]byte) error {
			d, err := core.DecodeDataset(files["dataset.bin"])
			if err != nil {
				return err
			}
			t, err := core.DecodeTruth(files["truth.bin"])
			if err != nil {
				return err
			}
			hitDS, hitTruth = d, t
			return nil
		}); ok {
			ds, truth = hitDS, hitTruth
			dsBytes, truthBytes = files["dataset.bin"], files["truth.bin"]
			statsStatus = "hit"
		} else {
			statsStatus = "miss"
		}
	}

	var guard *faultline.Guard
	var sd *statsdayResult
	ingestStart := time.Now()
	var ingestDur time.Duration
	if ds == nil {
		opts := core.Options{Key: cfg.key, Obs: metrics}
		newPipe := func() (ingestPipeline, error) {
			if cfg.shards == 1 {
				return core.NewPipeline(reg, opts)
			}
			return core.NewShardedPipeline(reg, opts, cfg.shards)
		}
		var replayOpts logsink.ReplayOptions
		if cfg.logs != "" {
			// Every replay gets a guard — under PolicyStrict it changes no
			// behavior (Reject stays transparent) but keeps the
			// offered/accepted accounting, so the end-of-run audit line is
			// always complete.
			var quarW io.Writer
			if policy == faultline.PolicyQuarantine {
				if err := os.MkdirAll(cfg.out, 0o755); err != nil {
					return err
				}
				qf, err := os.Create(filepath.Join(cfg.out, "quarantine.log"))
				if err != nil {
					return err
				}
				defer qf.Close()
				quarW = qf
			}
			guard = faultline.NewGuard(policy, cfg.faultBudget, quarW, metrics)
			replayOpts.Guard = guard
		}
		if cfg.faultInject > 0 {
			replayOpts.Inject = &faultline.Config{Seed: cfg.faultSeed, Rate: cfg.faultInject}
		}

		var pipe ingestPipeline
		if cfg.logs != "" {
			fmt.Fprintf(statusW, "replaying dataset from %s...\n", cfg.logs)
			prog.Start()
			if statsdayEligible(cfg, rc, policy) {
				// Incremental path: restore the deepest cached per-day
				// checkpoint and replay only the days past it.
				sd, err = runStatsday(cfg, rc, reg, opts, replayOpts)
				if err != nil {
					return err
				}
				pipe = sd.pipe
			} else {
				if pipe, err = newPipe(); err != nil {
					return err
				}
				// Auto-detect the dataset layout: a flat tracegen directory
				// has a top-level conn.log; a rotated one has per-day
				// subdirectories.
				replay := logsink.ReplayWithOptions
				if rotatedLayout(cfg.logs) {
					replay = logsink.ReplayRotatedWithOptions
				}
				if err := replay(cfg.logs, pipe, replayOpts); err != nil {
					return err
				}
			}
			// Ground truth for the accuracy experiment: rebuild the same
			// population the dataset was generated from (same scale/seed).
			gen, err := trace.New(trace.ScaledConfig(cfg.scale, cfg.seed), reg)
			if err != nil {
				return err
			}
			truth = gen.Truth(pipe.DeviceID)
		} else {
			if pipe, err = newPipe(); err != nil {
				return err
			}
			gen, err := trace.New(trace.ScaledConfig(cfg.scale, cfg.seed), reg)
			if err != nil {
				return err
			}
			fmt.Fprintf(statusW, "generating %d devices over %d days (scale %.3g)...\n",
				len(gen.Devices()), campus.NumDays, cfg.scale)
			prog.SetTotal(int64(campus.NumDays))
			prog.Start()
			// One Run call lets the generator build day d+1 while the
			// pipeline ingests day d. The progress reporter still gets exact
			// day-level completion for its ETA from a sink-side counter of
			// the generator's per-day flushes.
			var sink trace.Sink = pipe
			if prog != nil {
				var days int64
				sink = &trace.DayCounter{Sink: pipe, OnDay: func() {
					days++
					prog.SetDone(days)
				}}
			}
			if err := gen.Run(sink); err != nil {
				return err
			}
			truth = gen.Truth(pipe.DeviceID)
		}
		ds = pipe.Finalize()
		ingestDur = time.Since(ingestStart)
		prog.Stop()
		fmt.Fprintf(statusW, "pipeline: %d flows, %d devices, %s processed in %v\n",
			ds.Stats.FlowsProcessed, len(ds.Devices), siBytes(float64(ds.Stats.BytesProcessed)), ingestDur.Round(time.Second))
		if sd != nil {
			// The probe accounting line the CI append-smoke asserts on.
			fmt.Fprintf(statusW, "%s\n", sd.line())
		}
		if rc.store != nil {
			dsBytes = core.EncodeDataset(ds)
			truthBytes = core.EncodeTruth(truth)
			if err := rc.store.PutBytes("stats", statsKey,
				map[string]stagecache.Digest{"code": rc.code, "rules": rc.rules, "dataset": logsDigest},
				map[string][]byte{"dataset.bin": dsBytes, "truth.bin": truthBytes}); err != nil {
				return err
			}
		}
	} else {
		ingestDur = time.Since(ingestStart)
		fmt.Fprintf(statusW, "pipeline: %d flows, %d devices, %s replayed from stats cache in %v\n",
			ds.Stats.FlowsProcessed, len(ds.Devices), siBytes(float64(ds.Stats.BytesProcessed)), ingestDur.Round(time.Millisecond))
	}
	if cfg.logs != "" {
		// The audit line prints for every replay run — including runs that
		// offered zero records because the stats stage came from cache.
		fmt.Fprintf(statusW, "fault guard: %s\n", guard.Summary())
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}

	// Counterfactual baseline (generator mode only): its own stats-stage
	// entry keyed with no_pandemic=true, resolved before the figures stage
	// so the figures key can chain on the baseline's content.
	var baseDS *core.Dataset
	var yoyDigest stagecache.Digest
	if cfg.yoy && cfg.logs == "" {
		var baseBytes []byte
		var yoyKey stagecache.Digest
		if rc.store != nil {
			yoyKey = rc.statsKey(cfg, "", true)
			if files, ok := rc.store.GetBytes("stats", yoyKey, func(files map[string][]byte) error {
				d, err := core.DecodeDataset(files["dataset.bin"])
				if err != nil {
					return err
				}
				baseDS = d
				return nil
			}); ok {
				baseBytes = files["dataset.bin"]
				fmt.Fprintln(statusW, "counterfactual baseline replayed from stats cache")
			}
		}
		if baseDS == nil {
			fmt.Fprintln(statusW, "simulating counterfactual baseline year...")
			gcfg := trace.ScaledConfig(cfg.scale, cfg.seed)
			gcfg.NoPandemic = true
			baseGen, err := trace.New(gcfg, reg)
			if err != nil {
				return err
			}
			basePipe, err := core.NewPipeline(reg, core.Options{Key: cfg.key})
			if err != nil {
				return err
			}
			if err := baseGen.Run(basePipe); err != nil {
				return err
			}
			baseDS = basePipe.Finalize()
			if rc.store != nil {
				baseBytes = core.EncodeDataset(baseDS)
				if err := rc.store.PutBytes("stats", yoyKey,
					map[string]stagecache.Digest{"code": rc.code, "rules": rc.rules},
					map[string][]byte{"dataset.bin": baseBytes}); err != nil {
					return err
				}
			}
		}
		if rc.store != nil {
			yoyDigest = stagecache.ContentDigest(baseBytes)
		}
	}

	// Figures stage: every CSV plus the report, keyed on the content of
	// the stats payloads. A hit skips figure computation entirely — the
	// figure-only-change replay path.
	figStatus := "off"
	var artifacts map[string][]byte
	var figKey stagecache.Digest
	if rc.store != nil {
		figKey = rc.figuresKey(cfg,
			stagecache.ContentDigest(dsBytes), stagecache.ContentDigest(truthBytes), yoyDigest)
		if files, ok := rc.store.GetBytes("figures", figKey, validateArtifacts); ok {
			artifacts = files
			figStatus = "hit"
		} else {
			figStatus = "miss"
		}
	}
	figMS := map[string]float64{}
	var figWallMS float64
	if artifacts == nil {
		// Figure/stat finalization fans out over a bounded worker pool:
		// every figure is an independent pure function over the sealed
		// Dataset, each writing its own results slot, so they run
		// concurrently on whatever cores ingest just released. Per-figure
		// timings still land in figures_ms (localizing a regression to one
		// analysis); the pool's wall time is reported separately as
		// figures_wall_ms — on a multi-core host it is the max lane, not
		// the sum.
		var res *figset.Results
		res, figMS, figWallMS = figset.Compute(ds, figset.Params{
			Scale: cfg.scale, Seed: cfg.seed, Truth: truth, Workers: cfg.figWorkers,
		})
		if baseDS != nil {
			y := experiments.YearOverYear(ds, baseDS)
			res.YoY = &y
		}
		// render_csv stays serial — it reads every figure's slot.
		t0 := time.Now()
		artifacts, err = renderArtifacts(res)
		if err != nil {
			return err
		}
		figMS["render_csv"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if rc.store != nil {
			if err := rc.store.PutBytes("figures", figKey,
				map[string]stagecache.Digest{"dataset": stagecache.ContentDigest(dsBytes), "truth": stagecache.ContentDigest(truthBytes)},
				artifacts); err != nil {
				return err
			}
		}
	}

	// One render path feeds both the cache and the output directory, so a
	// cached figure set is byte-for-byte what a cold run writes.
	for _, name := range artifactNames() {
		if err := os.WriteFile(filepath.Join(cfg.out, name), artifacts[name], 0o644); err != nil {
			return err
		}
	}
	reportPath := filepath.Join(cfg.out, reportName)
	if !cfg.quiet {
		if _, err := os.Stdout.Write(artifacts[reportName]); err != nil {
			return err
		}
	}
	if cfg.cacheDir != "" {
		if rc.store == nil {
			fmt.Fprintf(statusW, "cache: %s\n", rc.note)
		} else {
			fmt.Fprintf(statusW, "cache: %s stats=%s figures=%s\n", rc.store.Summary(), statsStatus, figStatus)
		}
	}

	if cfg.measureScaling && cfg.benchJSON == "" {
		return fmt.Errorf("-measure-scaling requires -bench-json (it only affects the bench report)")
	}
	if cfg.benchJSON != "" {
		shards := cfg.shards
		if shards == 0 {
			shards = runtime.GOMAXPROCS(0)
		}
		// The report reads the registered cells through the same snapshot
		// expvar and -progress serve.
		snap := metrics.Snapshot()
		br := &obs.BenchReport{
			Date:        time.Now().UTC().Format("2006-01-02"),
			GoVersion:   runtime.Version(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			CPUs:        runtime.NumCPU(),
			MaxProcs:    runtime.GOMAXPROCS(0),
			Scale:       cfg.scale,
			Shards:      shards,
			Seed:        cfg.seed,
			WallSeconds: time.Since(start).Seconds(),
			Ingest: obs.IngestBench{
				Events:          snap.Events,
				Flows:           ds.Stats.FlowsProcessed,
				Bytes:           ds.Stats.BytesProcessed,
				Seconds:         ingestDur.Seconds(),
				FlowsPerSec:     float64(ds.Stats.FlowsProcessed) / ingestDur.Seconds(),
				BytesPerSec:     float64(ds.Stats.BytesProcessed) / ingestDur.Seconds(),
				EpochsPublished: snap.Counters["epochs_published"],
				SnapshotBytes:   snap.Counters["snapshot_bytes"],
			},
			FiguresMS:     figMS,
			FiguresWallMS: figWallMS,
			Stages:        snap.Stages,
		}
		if statsStatus == "hit" || (sd != nil && sd.hits > 0) {
			// A warm run's "ingest" is a cache replay (full, or every day
			// up to a checkpoint), not pipeline throughput; zeroed rates
			// are skipped by CompareBench, so a warm report never fakes an
			// ingest speedup against a cold baseline.
			br.Ingest.FlowsPerSec = 0
			br.Ingest.BytesPerSec = 0
		}
		if sd != nil {
			br.SealMS = sd.sealMS
		}
		if rc.store != nil {
			br.Cache = &obs.CacheBench{
				Hits:           snap.Counters["cache_hits"],
				Misses:         snap.Counters["cache_misses"],
				Invalidations:  snap.Counters["cache_invalidations"],
				VerifyFailures: snap.Counters["cache_verify_failures"],
			}
		}
		if cfg.measureScaling {
			singleRate, shardedRate, err := measureScaling(reg, cfg, shards, statusW)
			if err != nil {
				return err
			}
			br.Ingest.SingleRefEventsPerSec = singleRate
			br.Ingest.ShardedRefEventsPerSec = shardedRate
			br.Ingest.ScalingEfficiency = shardedRate / singleRate / float64(shards)
		}
		path := obs.BenchPath(cfg.benchJSON, br.Date)
		if err := br.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(statusW, "wrote bench report to %s\n", path)
	}

	fmt.Fprintf(statusW, "wrote %s and per-figure CSVs to %s/ in %v total\n",
		reportPath, cfg.out, time.Since(start).Round(time.Second))
	return nil
}
