// Command lockdownd is the service-mode counterpart of cmd/lockdown: a
// long-running daemon that follows a growing rotated tracegen dataset,
// feeds the measurement pipeline incrementally, and publishes an
// immutable figure/report snapshot at every epoch seal (one epoch per
// sealed day). Queries are answered from the most recently published
// snapshot, so every response is internally consistent — all bytes from
// one epoch — while ingest runs hot; the X-Lockdown-Epoch header names
// the epoch a response came from.
//
// Each epoch is sealed incrementally (figset.Incremental): the pipeline
// closes the day into its Stats delta and touched-device set, re-renders
// only the devices that day touched on top of the previous epoch's
// copy-on-write snapshot, and recomputes the figures from the delta
// snapshot. Every published epoch is retained, so the full seal history
// stays queryable.
//
// Endpoints (on -addr, sharing the port with expvar/pprof under /debug/):
//
//	/v1/epoch              current epoch metadata (503 until the first seal)
//	/v1/epoch/<n>          historical epoch n's metadata
//	/v1/figures            list of figure CSV names
//	/v1/figures/<name>     one figure CSV, byte-identical to cmd/lockdown's file
//	/v1/report             the ASCII report
//	/v1/devices            aggregate device counts (never per-device records)
//
// /v1/figures, /v1/figures/<name>, /v1/report and /v1/devices accept an
// ?epoch=n selector to answer from a historical epoch; with or without it,
// the X-Lockdown-Epoch response header names the epoch served.
//
// Once the dataset's COMPLETE sentinel appears and the final day is
// ingested, the daemon finalizes the pipeline — the last published epoch
// is then byte-identical to a batch cmd/lockdown run over the same
// dataset with the same -key — and keeps serving until SIGINT/SIGTERM,
// on which it shuts down cleanly with exit code 0.
//
// Usage:
//
//	lockdownd -root dataset/ [-addr localhost:8080] [-scale 0.05] [-seed 1]
//	          [-shards N] [-key hex] [-poll 200ms]
//	          [-fault-policy strict|skip|quarantine|abort] [-fault-budget f]
//	          [-fault-inject rate] [-fault-seed n]
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/faultline"
	"repro/internal/figset"
	"repro/internal/logsink"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/universe"
)

type config struct {
	root   string
	addr   string
	scale  float64
	seed   int64
	shards int
	poll   time.Duration
	key    []byte

	faultPolicy string
	faultBudget float64
	faultInject float64
	faultSeed   int64
}

// snapshotPipeline is the pipeline surface the daemon needs: streaming
// ingest, per-day seals with copy-on-write delta snapshots, and the final
// seal.
type snapshotPipeline interface {
	trace.Sink
	figset.Sealer
	DeviceID(m packet.MAC) anonymize.DeviceID
	Finalize() *core.Dataset
}

func main() {
	var cfg config
	flag.StringVar(&cfg.root, "root", "", "rotated dataset root to follow (required)")
	flag.StringVar(&cfg.addr, "addr", "localhost:8080", "HTTP listen address (\":0\" picks a free port)")
	flag.Float64Var(&cfg.scale, "scale", 0.05, "population scale the dataset was generated at (ground truth)")
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed the dataset was generated with (ground truth)")
	flag.IntVar(&cfg.shards, "shards", 1, "pipeline shards (>1 parallelizes ingest)")
	flag.DurationVar(&cfg.poll, "poll", 200*time.Millisecond, "tail poll interval")
	keyHex := flag.String("key", "", "hex pseudonymization key; fixes device pseudonyms so daemon and batch runs are byte-comparable")
	flag.StringVar(&cfg.faultPolicy, "fault-policy", "strict", "decode-error policy: strict, skip, quarantine or abort")
	flag.Float64Var(&cfg.faultBudget, "fault-budget", 0.001, "tolerated dropped-record fraction under -fault-policy abort")
	flag.Float64Var(&cfg.faultInject, "fault-inject", 0, "inject seeded corruption at this per-record rate (testing)")
	flag.Int64Var(&cfg.faultSeed, "fault-seed", 1, "seed for -fault-inject corruption")
	flag.Parse()

	if cfg.root == "" {
		fmt.Fprintln(os.Stderr, "lockdownd: -root is required")
		os.Exit(2)
	}
	if *keyHex != "" {
		key, err := hex.DecodeString(*keyHex)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockdownd: bad -key:", err)
			os.Exit(1)
		}
		cfg.key = key
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lockdownd:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	reg, err := universe.New()
	if err != nil {
		return err
	}
	metrics := obs.NewMetrics()

	var pipe snapshotPipeline
	opts := core.Options{Key: cfg.key, Obs: metrics}
	if cfg.shards == 1 {
		pipe, err = core.NewPipeline(reg, opts)
	} else {
		pipe, err = core.NewShardedPipeline(reg, opts, cfg.shards)
	}
	if err != nil {
		return err
	}

	// Ground truth for the accuracy experiments: rebuild the population
	// the dataset was generated from, before ingest starts (pseudonyms
	// only need the key, not traffic).
	gen, err := trace.New(trace.ScaledConfig(cfg.scale, cfg.seed), reg)
	if err != nil {
		return err
	}
	figParams := figset.Params{Scale: cfg.scale, Seed: cfg.seed, Truth: gen.Truth(pipe.DeviceID)}

	policy, err := faultline.ParsePolicy(cfg.faultPolicy)
	if err != nil {
		return err
	}
	var replayOpts logsink.ReplayOptions
	var guard *faultline.Guard
	if policy != faultline.PolicyStrict {
		guard = faultline.NewGuard(policy, cfg.faultBudget, nil, metrics)
		replayOpts.Guard = guard
	}
	if cfg.faultInject > 0 {
		replayOpts.Inject = &faultline.Config{Seed: cfg.faultSeed, Rate: cfg.faultInject}
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	stopFn := func() { stopOnce.Do(func() { close(stop) }) }
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopFn()
	}()

	state := newServerState()
	dbg, err := obs.ServeDebugMux(cfg.addr, metrics, state.mux())
	if err != nil {
		return err
	}
	defer dbg.Close()
	// Startup line on stdout: tests and scripts parse the bound address.
	fmt.Printf("lockdownd: serving on http://%s (following %s)\n", dbg.Addr(), cfg.root)

	epoch := 0
	inc := figset.NewIncremental(pipe, figParams, core.Stats{})
	var sealErr error
	tailErr := logsink.TailRotated(cfg.root, pipe, logsink.TailOptions{
		ReplayOptions: replayOpts,
		Poll:          cfg.poll,
		Stop:          stop,
		OnDaySealed: func(day string, final bool) {
			epoch++
			if final {
				// The finalize path below publishes this epoch from the
				// sealed pipeline — identical data, and it frees the
				// accumulators for serving-only life.
				return
			}
			ep, err := inc.Seal(day)
			if err != nil {
				sealErr = err
				stopFn()
				return
			}
			state.publish(&epochSnapshot{epoch: epoch, day: day, res: ep.Results,
				stats: ep.Dataset.Stats, devices: summarizeDevices(ep.Dataset), partial: ep.Partial})
			fmt.Fprintf(os.Stderr, "lockdownd: epoch %d sealed (%s): %d flows, %d devices (day: %d flows, %d touched)\n",
				epoch, day, ep.Dataset.Stats.FlowsProcessed, len(ep.Dataset.Devices),
				ep.Partial.Stats.FlowsProcessed, len(ep.Partial.Touched))
		},
	})
	if sealErr != nil {
		return sealErr
	}
	if tailErr != nil && !errors.Is(tailErr, logsink.ErrTailStopped) {
		return tailErr
	}
	if tailErr == nil {
		ds := pipe.Finalize()
		res, _, _ := figset.Compute(ds, figParams)
		state.publish(&epochSnapshot{epoch: epoch, day: lastDay(cfg.root), final: true,
			res: res, stats: ds.Stats, devices: summarizeDevices(ds)})
		if guard != nil {
			fmt.Fprintf(os.Stderr, "lockdownd: fault guard: %s\n", guard.Summary())
		}
		fmt.Fprintf(os.Stderr, "lockdownd: dataset complete after %d epochs; serving until signal\n", epoch)
		<-stop
	}
	fmt.Fprintln(os.Stderr, "lockdownd: shutting down")
	return nil
}

// lastDay names the dataset's final day directory (for /v1/epoch after
// finalize); empty when unreadable.
func lastDay(root string) string {
	days, err := logsink.DayDirs(root)
	if err != nil {
		return ""
	}
	return days[len(days)-1]
}
