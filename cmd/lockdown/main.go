// Command lockdown runs the full reproduction end to end: it generates the
// synthetic campus workload (or a scaled-down version), streams it through
// the measurement pipeline, computes every figure and headline result from
// the paper, and writes CSV series plus an ASCII report.
//
// Usage:
//
//	lockdown [-scale 0.05] [-seed 1] [-out results/] [-quiet]
//	         [-logs dataset/]    ingest a tracegen dataset instead of generating
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

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/universe"
)

// config carries one run's settings (flag values; tests drive run
// directly): the stage graph's own, plus what only observes the run.
type config struct {
	runner.Config
	quiet          bool
	progressEvery  time.Duration
	progressFormat string
	debugAddr      string
	benchJSON      string

	// statusW receives status and progress lines (default os.Stderr).
	statusW io.Writer
}

func main() {
	var cfg config
	flag.Float64Var(&cfg.Scale, "scale", 0.05, "population scale (1.0 = paper scale)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "generator seed")
	flag.StringVar(&cfg.Out, "out", "results", "output directory for CSVs and report")
	flag.StringVar(&cfg.Logs, "logs", "", "ingest a tracegen dataset directory instead of generating live")
	flag.BoolVar(&cfg.Yoy, "yoy", false, "also simulate the counterfactual baseline year (generator only, not with -logs; doubles runtime)")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the terminal report")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.DurationVar(&cfg.progressEvery, "progress", 0, "emit a progress line at this interval (0 = off)")
	flag.StringVar(&cfg.progressFormat, "progress-format", "text", "progress line format: text or json")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve expvar + pprof on this address while running (e.g. localhost:6060)")
	flag.StringVar(&cfg.benchJSON, "bench-json", "", "write a machine-readable bench report (a .json path, or a directory receiving BENCH_<date>.json)")
	flag.StringVar(&cfg.CacheDir, "cache-dir", "", "content-addressed stage cache directory (requires -key; empty = no caching)")
	flag.StringVar(&cfg.CacheMode, "cache-mode", "readwrite", "stage-cache mode: off, read or readwrite")
	flag.IntVar(&cfg.FigWorkers, "fig-workers", 0, "figure finalization workers (0 = GOMAXPROCS); scheduling-only, never changes output bytes")
	flag.StringVar(&cfg.FaultPolicy, "fault-policy", "strict", "decode-error policy for -logs replay: strict, skip, quarantine or abort")
	flag.Float64Var(&cfg.FaultBudget, "fault-budget", 0.001, "tolerated dropped-record fraction under -fault-policy abort")
	flag.Float64Var(&cfg.FaultInject, "fault-inject", 0, "inject seeded corruption into the replayed logs at this per-record rate (testing)")
	flag.Int64Var(&cfg.FaultSeed, "fault-seed", 1, "seed for -fault-inject corruption")
	keyHex := flag.String("key", "", "hex pseudonymization key; fixes device pseudonyms so two runs are byte-comparable (default: random per run)")
	flag.Parse()

	if *keyHex != "" {
		key, err := hex.DecodeString(*keyHex)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockdown: bad -key:", err)
			os.Exit(1)
		}
		cfg.Key = key
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

	res, err := runner.Run(cfg.Config, runner.Env{Reg: reg, Metrics: metrics, Progress: prog, Status: statusW})
	if err != nil {
		return err
	}
	if !cfg.quiet {
		if _, err := os.Stdout.Write(res.Report); err != nil {
			return err
		}
	}
	if res.Cache != "" {
		fmt.Fprintf(statusW, "cache: %s\n", res.Cache)
	}

	if cfg.benchJSON != "" {
		ds := res.Dataset
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
			Scale:       cfg.Scale,
			Seed:        cfg.Seed,
			WallSeconds: time.Since(start).Seconds(),
			Ingest: obs.IngestBench{
				Events:      snap.Events,
				Flows:       ds.Stats.FlowsProcessed,
				Bytes:       ds.Stats.BytesProcessed,
				Seconds:     res.Ingest.Seconds(),
				FlowsPerSec: float64(ds.Stats.FlowsProcessed) / res.Ingest.Seconds(),
				BytesPerSec: float64(ds.Stats.BytesProcessed) / res.Ingest.Seconds(),
			},
			FiguresMS:     res.FiguresMS,
			FiguresWallMS: res.FiguresWallMS,
			SealMS:        res.SealMS,
			Stages:        snap.Stages,
		}
		if res.Replayed {
			// A warm run's "ingest" is a cache replay (full, or every day
			// up to a checkpoint), not pipeline throughput; zeroed rates
			// are skipped by CompareBench, so a warm report never fakes an
			// ingest speedup against a cold baseline.
			br.Ingest.FlowsPerSec = 0
			br.Ingest.BytesPerSec = 0
		}
		if res.Cached {
			br.Cache = &obs.CacheBench{
				Hits:           snap.Counters["cache_hits"],
				Misses:         snap.Counters["cache_misses"],
				Invalidations:  snap.Counters["cache_invalidations"],
				VerifyFailures: snap.Counters["cache_verify_failures"],
			}
			br.KeyingMS, br.HashedMB = res.KeyingMS, float64(res.HashedBytes)/(1<<20)
		}
		path := obs.BenchPath(cfg.benchJSON, br.Date)
		if err := br.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(statusW, "wrote bench report to %s\n", path)
	}

	fmt.Fprintf(statusW, "wrote %s and per-figure CSVs to %s/ in %v total\n",
		filepath.Join(cfg.Out, runner.ReportName), cfg.Out, time.Since(start).Round(time.Second))
	return nil
}
