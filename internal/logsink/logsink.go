// Package logsink persists a generated workload as the four Zeek-style log
// files the real measurement system consumed (conn, dns, dhcp, http), and
// replays them back into any trace.Sink (normally the pipeline). Together
// with cmd/tracegen this provides the at-rest dataset form: generate once,
// analyze many times — exactly how the original infrastructure operated.
package logsink

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/faultline"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
	"repro/internal/zeeklog"
)

// File names within a dataset directory. Gzipped variants (name + ".gz")
// are produced by NewGzipWriter and detected transparently on replay — the
// same convention Zeek's log rotation uses.
const (
	ConnFile = "conn.log"
	DNSFile  = "dns.log"
	DHCPFile = "dhcp.log"
	HTTPFile = "http.log"
)

// Writer is a trace.Sink that writes the four log files.
type Writer struct {
	closers []io.Closer
	conn    *zeeklog.ConnWriter
	dns     *dnssim.LogWriter
	dhcp    *dhcp.LogWriter
	http    *httplog.Writer
	err     error
}

// NewWriter creates (or truncates) plain log files in dir.
func NewWriter(dir string) (*Writer, error) { return newWriter(dir, false) }

// NewGzipWriter creates gzip-compressed log files (name + ".gz") in dir.
func NewGzipWriter(dir string) (*Writer, error) { return newWriter(dir, true) }

func newWriter(dir string, compress bool) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{}
	var err error
	open := func(name string) io.Writer {
		if err != nil {
			return nil
		}
		if compress {
			name += ".gz"
		}
		var f *os.File
		f, err = os.Create(filepath.Join(dir, name))
		if err != nil {
			return nil
		}
		w.closers = append(w.closers, f)
		if compress {
			gz := gzip.NewWriter(f)
			// Close order matters: gz before its file. Prepend so Close
			// walks inner-to-outer.
			w.closers = append(w.closers[:len(w.closers)-1], gz, f)
			return gz
		}
		return f
	}
	connW := open(ConnFile)
	dnsW := open(DNSFile)
	dhcpW := open(DHCPFile)
	httpW := open(HTTPFile)
	if err != nil {
		w.Close()
		return nil, err
	}
	w.conn = zeeklog.NewConnWriter(connW)
	w.dns = dnssim.NewLogWriter(dnsW)
	w.dhcp = dhcp.NewLogWriter(dhcpW)
	w.http = httplog.NewWriter(httpW)
	return w, nil
}

func (w *Writer) note(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Flow implements trace.Sink.
func (w *Writer) Flow(r flow.Record) { w.note(w.conn.Write(r)) }

// DNS implements trace.Sink.
func (w *Writer) DNS(e dnssim.Entry) { w.note(w.dns.Write(e)) }

// HTTPMeta implements trace.Sink.
func (w *Writer) HTTPMeta(e httplog.Entry) { w.note(w.http.Write(e)) }

// Lease implements trace.Sink.
func (w *Writer) Lease(l dhcp.Lease) { w.note(w.dhcp.Write(l)) }

// Err returns the first write error encountered.
func (w *Writer) Err() error { return w.err }

// Close flushes and closes all logs, returning the first error.
func (w *Writer) Close() error {
	if w.conn != nil {
		w.note(w.conn.Close())
	}
	if w.dns != nil {
		w.note(w.dns.Close())
	}
	if w.dhcp != nil {
		w.note(w.dhcp.Close())
	}
	if w.http != nil {
		w.note(w.http.Close())
	}
	for _, c := range w.closers {
		w.note(c.Close())
	}
	return w.err
}

// openLog opens a dataset log, preferring the plain file and falling back
// to the gzipped variant. It never blocks, so it ignores stop.
func openLog(dir, name string, _ <-chan struct{}) (io.ReadCloser, error) {
	if f, err := os.Open(filepath.Join(dir, name)); err == nil {
		return f, nil
	}
	f, err := os.Open(filepath.Join(dir, name+".gz"))
	if err != nil {
		return nil, fmt.Errorf("logsink: neither %s nor %s.gz in %s", name, name, dir)
	}
	gz, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &gzReadCloser{gz: gz, f: f}, nil
}

type gzReadCloser struct {
	gz *gzip.Reader
	f  *os.File
}

func (g *gzReadCloser) Read(p []byte) (int, error) { return g.gz.Read(p) }

func (g *gzReadCloser) Close() error {
	err := g.gz.Close()
	if err2 := g.f.Close(); err == nil {
		err = err2
	}
	return err
}

// ReplayOptions configures the fault-robustness layer of a replay. The
// zero value reproduces the historical behavior exactly: no corruption
// injected, first decode error fatal.
type ReplayOptions struct {
	// Guard applies the fault policy to decode errors; nil means strict.
	Guard *faultline.Guard
	// Inject, when non-nil, streams every log through a seeded corruption
	// injector (sub-seeded per file) before parsing — the test-harness
	// path for exercising the guard without pre-corrupting files on disk.
	Inject *faultline.Config
}

// inject wraps r with the corruption injector when configured.
func (o ReplayOptions) inject(r io.Reader, name string) io.Reader {
	if o.Inject == nil {
		return r
	}
	return faultline.NewReader(r, o.Inject.Sub(name))
}

// day sub-seeds injection for one day directory of a rotated dataset
// (then per file, in inject), so corruption is independent across every
// file of the dataset and a day's stream is the same on every path.
func (o ReplayOptions) day(name string) ReplayOptions {
	if o.Inject != nil {
		sub := o.Inject.Sub(name)
		o.Inject = &sub
	}
	return o
}

// lenient reports whether decode errors are survivable (duplicate
// detection is only worth its comparison cost then).
func (o ReplayOptions) lenient() bool {
	return o.Guard.Policy() != faultline.PolicyStrict
}

// ReplayWithOptions streams a flat dataset directory into sink under the
// fault-robustness layer: an optional corruption injector on every log
// stream and an error-budget guard over every decode failure. Leases come
// first, then the traffic logs merged by timestamp (see replayDir).
func ReplayWithOptions(dir string, sink trace.Sink, opts ReplayOptions) error {
	return replayDir(dir, sink, opts, openLog, new(window))
}
