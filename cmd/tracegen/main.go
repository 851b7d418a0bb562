// Command tracegen generates a synthetic campus dataset and writes it to
// disk as the four Zeek-style log files the measurement pipeline consumes
// (conn.log, dns.log, dhcp.log, http.log), or — at small scales — as a raw
// pcap that cmd/flowmeter can turn back into a conn.log.
//
// Usage:
//
//	tracegen -out dataset/ [-scale 0.05] [-seed 1] [-days 0:121]
//	tracegen -pcap capture.pcap -scale 0.002 -days 10:11
//	tracegen -out dataset/ -progress 5s   emit live event rates and ETA
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/logsink"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/universe"
)

func main() {
	out := flag.String("out", "", "output directory for Zeek-style logs")
	pcapOut := flag.String("pcap", "", "write a packet-level pcap instead of logs (small scales only)")
	scale := flag.Float64("scale", 0.05, "population scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 1, "generator seed")
	daysSpec := flag.String("days", "0:121", "day range from:to (day 0 = 2020-02-01)")
	gz := flag.Bool("gzip", false, "compress the log files (.gz)")
	rotate := flag.Bool("rotate", false, "rotate into one directory per study day (Zeek-style)")
	noPandemic := flag.Bool("no-pandemic", false, "generate the counterfactual baseline world")
	progress := flag.Duration("progress", 0, "emit a progress line at this interval (0 = off)")
	flag.Parse()

	if (*out == "") == (*pcapOut == "") {
		fmt.Fprintln(os.Stderr, "tracegen: exactly one of -out or -pcap is required")
		os.Exit(2)
	}
	from, to, err := parseDays(*daysSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}
	if err := run(*out, *pcapOut, *scale, *seed, from, to, *gz, *rotate, *noPandemic, *progress); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// countingSink wraps a sink with obs intake counters (flows carry their
// byte volume; DNS/HTTP/lease events count as unit events).
type countingSink struct {
	trace.Sink
	m *obs.Metrics
}

func (s countingSink) Flow(r flow.Record) {
	s.m.Add(obs.StageIngest, r.TotalBytes())
	s.Sink.Flow(r)
}

func (s countingSink) DNS(e dnssim.Entry) {
	s.m.Add(obs.StageIngest, 0)
	s.Sink.DNS(e)
}

func (s countingSink) HTTPMeta(e httplog.Entry) {
	s.m.Add(obs.StageIngest, 0)
	s.Sink.HTTPMeta(e)
}

func (s countingSink) Lease(l dhcp.Lease) {
	s.m.Add(obs.StageIngest, 0)
	s.Sink.Lease(l)
}

func parseDays(spec string) (campus.Day, campus.Day, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -days %q, want from:to", spec)
	}
	from, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad -days %q: %v", spec, err)
	}
	to, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("bad -days %q: %v", spec, err)
	}
	return campus.Day(from), campus.Day(to), nil
}

func run(out, pcapOut string, scale float64, seed int64, from, to campus.Day, gz, rotate, noPandemic bool, progress time.Duration) error {
	start := time.Now()
	reg, err := universe.New()
	if err != nil {
		return err
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = seed
	cfg.NoPandemic = noPandemic
	gen, err := trace.New(cfg, reg)
	if err != nil {
		return err
	}
	if pcapOut != "" {
		return runPcap(gen, pcapOut, from, to, start)
	}
	var w interface {
		trace.Sink
		Close() error
	}
	switch {
	case rotate:
		w, err = logsink.NewRotatingWriter(out, gz)
	case gz:
		w, err = logsink.NewGzipWriter(out)
	default:
		w, err = logsink.NewWriter(out)
	}
	if err != nil {
		return err
	}
	var sink trace.Sink = w
	var prog *obs.Progress
	if progress > 0 {
		m := obs.NewMetrics()
		prog = obs.NewProgress(m, &obs.TextReporter{W: os.Stderr}, progress)
		prog.SetLabel("tracegen")
		prog.SetTotal(int64(to - from))
		// The generator ends each day through the DayCounter hook;
		// counting those feeds the reporter exact day-level completion.
		var days int64
		sink = &trace.DayCounter{Sink: countingSink{Sink: w, m: m}, OnDay: func() {
			days++
			prog.SetDone(days)
		}}
		prog.Start()
	}
	// One RunDays call lets the generator build day d+1 while the writer
	// encodes day d.
	if err := gen.RunDays(sink, from, to); err != nil {
		prog.Stop()
		w.Close()
		return err
	}
	prog.Stop()
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote dataset for days [%d,%d) of %d devices to %s in %v\n",
		from, to, len(gen.Devices()), out, time.Since(start).Round(time.Millisecond))
	return nil
}
