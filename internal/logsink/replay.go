package logsink

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
	"repro/internal/zeeklog"
)

// opener reaches one log file of a dataset directory. stop closes when
// the replay unwinds; an opener whose reads can block (the tail's) must
// then return errUnwound from them.
type opener func(dir, name string, stop <-chan struct{}) (io.ReadCloser, error)

// errUnwound ends a decode whose replay is unwinding (the caller stopped
// delivering); nothing reads it.
var errUnwound = errors.New("logsink: replay unwound")

// The decode window: a replay owns replayWindow runs of at most runLen
// events, so the producer is at most two runs ahead of delivery. On a
// 1%-scale rotated replay, runs of 512 or six runs of 1024 were no faster
// and held more resident memory; with two runs, replay was slower.
const (
	replayWindow = 3
	runLen       = 256
)

// step is one entry of a run's order tape: the slab the next event comes
// from.
type step uint8

const (
	stepFlow step = iota
	stepDNS
	stepHTTP
	stepLease
)

// run is a stretch of the replay stream: per-kind value slabs and the
// tape that interleaves them in replay order. The producer's last run has
// end set and carries the replay's outcome in err.
type run struct {
	tape   []step
	flows  []flow.Record
	dns    []dnssim.Entry
	http   []httplog.Entry
	leases []dhcp.Lease
	end    bool
	err    error
}

// runPool recycles runs across replays (a rotated replay is one replay
// per day directory).
var runPool = sync.Pool{New: func() any { return new(run) }}

func (r *run) reset() {
	r.tape, r.flows, r.dns, r.http, r.leases = r.tape[:0], r.flows[:0], r.dns[:0], r.http[:0], r.leases[:0]
	r.end, r.err = false, nil
}

// deliver plays the run into out in tape order.
func (r *run) deliver(out trace.Sink) {
	var f, d, h, l int
	for _, s := range r.tape {
		switch s {
		case stepFlow:
			out.Flow(r.flows[f])
			f++
		case stepDNS:
			out.DNS(r.dns[d])
			d++
		case stepHTTP:
			out.HTTPMeta(r.http[h])
			h++
		case stepLease:
			out.Lease(r.leases[l])
			l++
		}
	}
}

// replayDir streams one dataset directory (a flat dataset or one day of a
// rotated one) into sink. It is the only replay path: batch, per-day and
// live-tail replay differ only in how open reaches a log file.
//
// Replay order: the directory's DHCP leases in file order, then its DNS,
// conn and http records merged by timestamp, ties going to DNS, then the
// flow, then HTTP. Leases first means every binding a flow can match is
// known before any flow is attributed (lease lookups are time-aware), and
// a lease whose timestamp is corrupt cannot hold back the leases behind
// it. DNS first on ties means a resolution precedes the flows it labels.
// The guard sees records in the same order, so drops, quarantined lines
// and the point where a policy stops the replay are the same on every
// path. Log headers are read up front and stay fatal under every policy —
// a file whose schema cannot be read contributes nothing to skip over.
//
// Decode overlaps delivery: a producer goroutine opens and decodes the
// logs, applies the guard and the merge, and hands the stream over in
// runs, while this goroutine plays them into sink — sink is only ever
// called from here. When the producer stops on an error, every run before
// it is delivered and the error returned: the sink sees the prefix the
// error left. replayDir returns only once the producer has exited, also
// when sink panics.
func replayDir(dir string, sink trace.Sink, opts ReplayOptions, open opener) error {
	// Both channels hold every run at once when the other side is idle,
	// so they are sized to the window and a send never waits on capacity.
	var runs [replayWindow]*run
	free := make(chan *run, replayWindow)
	for i := range runs {
		runs[i] = runPool.Get().(*run)
		free <- runs[i]
	}
	p := &producer{opts: opts, free: free, ready: make(chan *run, replayWindow), stop: make(chan struct{})}
	done := make(chan struct{})
	go p.produce(dir, open, done)
	defer func() {
		close(p.stop)
		<-done
		for _, r := range runs {
			r.reset()
			runPool.Put(r)
		}
	}()
	for {
		r := <-p.ready
		r.deliver(sink)
		if r.end {
			return r.err
		}
		free <- r
	}
}

// producer is the decode side of replayDir: it fills runs taken from free
// and hands each to ready in stream order, until stop closes.
type producer struct {
	opts  ReplayOptions
	cur   *run
	free  chan *run
	ready chan *run
	stop  chan struct{}
}

// produce decodes dir into runs and hands over the last one with the
// outcome; it closes done on exit.
func (p *producer) produce(dir string, open opener, done chan<- struct{}) {
	defer close(done)
	p.cur = <-p.free
	err := p.decodeDir(dir, open)
	if errors.Is(err, errUnwound) {
		return
	}
	p.cur.end, p.cur.err = true, err
	select {
	case p.ready <- p.cur:
	case <-p.stop:
	}
}

// emit records one step of the current run (its value already appended)
// and hands the run over once it is full.
func (p *producer) emit(s step) error {
	p.cur.tape = append(p.cur.tape, s)
	if len(p.cur.tape) < runLen {
		return nil
	}
	select {
	case p.ready <- p.cur:
	case <-p.stop:
		return errUnwound
	}
	select {
	case p.cur = <-p.free:
	case <-p.stop:
		return errUnwound
	}
	p.cur.reset()
	return nil
}

// decodeDir is the replay order of replayDir, emitted into runs.
func (p *producer) decodeDir(dir string, open opener) error {
	opts := p.opts
	var logs [4]io.Reader
	for i, name := range [4]string{DHCPFile, ConnFile, DNSFile, HTTPFile} {
		f, err := open(dir, name, p.stop)
		if err != nil {
			return err
		}
		defer f.Close()
		logs[i] = opts.inject(f, name)
	}
	dhcpR, err := dhcp.NewLogReader(logs[0])
	if err != nil {
		return fmt.Errorf("dhcp.log: %w", err)
	}
	connR, err := zeeklog.NewConnReader(logs[1])
	if err != nil {
		return fmt.Errorf("conn.log: %w", err)
	}
	dnsR, err := dnssim.NewLogReader(logs[2])
	if err != nil {
		return fmt.Errorf("dns.log: %w", err)
	}
	httpR, err := httplog.NewReader(logs[3])
	if err != nil {
		return fmt.Errorf("http.log: %w", err)
	}

	var lease streamHead[dhcp.Lease]
	for {
		if err := advanceHead(&lease, dhcpR, "dhcp", opts); err != nil {
			return err
		}
		if !lease.ok {
			break
		}
		p.cur.leases = append(p.cur.leases, lease.cur)
		if err := p.emit(stepLease); err != nil {
			return err
		}
	}

	var (
		fl streamHead[flow.Record]
		dn streamHead[dnssim.Entry]
		ht streamHead[httplog.Entry]
	)
	if err := advanceHead(&fl, connR, "conn", opts); err != nil {
		return err
	}
	if err := advanceHead(&dn, dnsR, "dns", opts); err != nil {
		return err
	}
	if err := advanceHead(&ht, httpR, "http", opts); err != nil {
		return err
	}
	for {
		// Earliest timestamp wins; a later stream must be strictly
		// earlier to displace an earlier one, which encodes the tie order.
		best, t := 0, time.Time{}
		if dn.ok {
			best, t = 1, dn.cur.Time
		}
		if fl.ok && (best == 0 || fl.cur.Start.Before(t)) {
			best, t = 2, fl.cur.Start
		}
		if ht.ok && (best == 0 || ht.cur.Time.Before(t)) {
			best, t = 3, ht.cur.Time
		}
		if best == 0 {
			break
		}
		switch best {
		case 1:
			p.cur.dns = append(p.cur.dns, dn.cur)
			err = p.emit(stepDNS)
			if err == nil {
				err = advanceHead(&dn, dnsR, "dns", opts)
			}
		case 2:
			p.cur.flows = append(p.cur.flows, fl.cur)
			err = p.emit(stepFlow)
			if err == nil {
				err = advanceHead(&fl, connR, "conn", opts)
			}
		default:
			p.cur.http = append(p.cur.http, ht.cur)
			err = p.emit(stepHTTP)
			if err == nil {
				err = advanceHead(&ht, httpR, "http", opts)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// logStream is the shape every per-file reader shares (conn, dns, dhcp,
// http): typed record iteration plus the raw line (borrowed until the
// next record) and line number the guard reports on rejects.
type logStream[T any] interface {
	Next() (T, error)
	Raw() []byte
	Line() int
}

// streamHead is the merge head of one log stream.
type streamHead[T any] struct {
	cur  T
	ok   bool
	prev []byte // copy of the previous accepted line, for lenient duplicate detection
}

// advanceHead fills a merge head with the stream's next accepted record,
// applying the guard policy and (under lenient policies) adjacent-
// duplicate detection.
func advanceHead[T any](h *streamHead[T], r logStream[T], source string, opts ReplayOptions) error {
	g := opts.Guard
	lenient := opts.lenient()
	for {
		v, err := r.Next()
		if err == io.EOF {
			h.ok = false
			return nil
		}
		if err != nil {
			if rerr := g.Reject(source, string(r.Raw()), err); rerr != nil {
				return rerr
			}
			continue
		}
		if lenient {
			if raw := r.Raw(); len(raw) > 0 && bytes.Equal(raw, h.prev) {
				if rerr := g.RejectDuplicate(source, r.Line(), string(raw)); rerr != nil {
					return rerr
				}
				continue
			} else {
				h.prev = append(h.prev[:0], raw...)
			}
		}
		g.Accept()
		h.cur, h.ok = v, true
		return nil
	}
}
