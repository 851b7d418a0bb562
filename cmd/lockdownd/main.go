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
//	          [-fault-policy strict|skip|abort] [-fault-budget f]
//	          [-fault-inject rate] [-fault-seed n]
//
// -fault-policy quarantine is refused: the daemon writes no files, so
// there is nowhere to put quarantine.log.
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/figset"
	"repro/internal/logsink"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/universe"
)

// config is the stage graph's settings (Logs is the followed root; there
// is no output directory) plus the daemon's own.
type config struct {
	runner.Config
	addr string
	poll time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Logs, "root", "", "rotated dataset root to follow (required)")
	flag.StringVar(&cfg.addr, "addr", "localhost:8080", "HTTP listen address (\":0\" picks a free port)")
	flag.Float64Var(&cfg.Scale, "scale", 0.05, "population scale the dataset was generated at (ground truth)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "generator seed the dataset was generated with (ground truth)")
	flag.IntVar(&cfg.Shards, "shards", 1, "pipeline shards (>1 parallelizes ingest)")
	flag.DurationVar(&cfg.poll, "poll", 200*time.Millisecond, "tail poll interval")
	keyHex := flag.String("key", "", "hex pseudonymization key; fixes device pseudonyms so daemon and batch runs are byte-comparable")
	flag.StringVar(&cfg.FaultPolicy, "fault-policy", "strict", "decode-error policy: strict, skip or abort (quarantine is refused: the daemon writes no files)")
	flag.Float64Var(&cfg.FaultBudget, "fault-budget", 0.001, "tolerated dropped-record fraction under -fault-policy abort")
	flag.Float64Var(&cfg.FaultInject, "fault-inject", 0, "inject seeded corruption at this per-record rate (testing)")
	flag.Int64Var(&cfg.FaultSeed, "fault-seed", 1, "seed for -fault-inject corruption")
	flag.Parse()

	if cfg.Logs == "" {
		fmt.Fprintln(os.Stderr, "lockdownd: -root is required")
		os.Exit(2)
	}
	if *keyHex != "" {
		key, err := hex.DecodeString(*keyHex)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockdownd: bad -key:", err)
			os.Exit(1)
		}
		cfg.Key = key
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
	live, err := runner.OpenLive(cfg.Config, reg, metrics)
	if err != nil {
		return err
	}
	pipe := live.Pipe

	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		close(stop)
	}()

	state := newServerState()
	dbg, err := obs.ServeDebugMux(cfg.addr, metrics, state.mux())
	if err != nil {
		return err
	}
	defer dbg.Close()
	// Startup line on stdout: tests and scripts parse the bound address.
	fmt.Printf("lockdownd: serving on http://%s (following %s)\n", dbg.Addr(), cfg.Logs)

	epoch, lastDay := 0, ""
	inc := figset.NewIncremental(pipe, live.Params, core.Stats{})
	tailErr := logsink.TailRotated(cfg.Logs, pipe, logsink.TailOptions{
		ReplayOptions: live.Replay,
		Poll:          cfg.poll,
		Stop:          stop,
		OnDaySealed: func(day string, final bool) {
			epoch, lastDay = epoch+1, day
			if final {
				// The finalize path below publishes this epoch from the
				// sealed pipeline — identical data, and it frees the
				// accumulators for serving-only life.
				return
			}
			ep, _ := inc.Seal(day) // Seal's error result is always nil
			state.publish(&epochSnapshot{epoch: epoch, day: day, res: ep.Results,
				stats: ep.Dataset.Stats, devices: summarizeDevices(ep.Dataset), partial: ep.Partial})
			fmt.Fprintf(os.Stderr, "lockdownd: epoch %d sealed (%s): %d flows, %d devices (day: %d flows, %d touched)\n",
				epoch, day, ep.Dataset.Stats.FlowsProcessed, len(ep.Dataset.Devices),
				ep.Partial.Stats.FlowsProcessed, len(ep.Partial.Touched))
		},
	})
	if tailErr != nil && !errors.Is(tailErr, logsink.ErrTailStopped) {
		return tailErr
	}
	if tailErr == nil {
		ds := pipe.Finalize()
		res, _, _ := figset.Compute(ds, live.Params)
		state.publish(&epochSnapshot{epoch: epoch, day: lastDay, final: true,
			res: res, stats: ds.Stats, devices: summarizeDevices(ds)})
		fmt.Fprintf(os.Stderr, "lockdownd: fault guard: %s\n", live.Replay.Guard.Summary())
		fmt.Fprintf(os.Stderr, "lockdownd: dataset complete after %d epochs; serving until signal\n", epoch)
		<-stop
	}
	fmt.Fprintln(os.Stderr, "lockdownd: shutting down")
	return nil
}
