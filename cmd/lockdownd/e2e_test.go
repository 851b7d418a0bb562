package main

// Layered end-to-end test: build the real lockdownd and lockdown
// binaries, grow a rotated dataset day by day underneath the running
// daemon while querying it, and assert (a) per-epoch response
// consistency while ingest runs hot and (b) final-epoch byte parity
// with a batch cmd/lockdown run over the same dataset and key.

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/campus"
	"repro/internal/logsink"
	"repro/internal/trace"
	"repro/internal/universe"
)

const (
	e2eScale = 0.005
	e2eSeed  = 1
	e2eFrom  = campus.Day(40)
	e2eTo    = campus.Day(46)
)

var e2eKey = hex.EncodeToString([]byte("e2e-parity-key-0123456789abcdef0"))

var (
	e2eBuildOnce sync.Once
	e2eBins      map[string]string
	e2eBuildErr  error
)

// e2eBin builds the named command ("lockdownd" or "lockdown") once and
// returns the binary path.
func e2eBin(t *testing.T, name string) string {
	t.Helper()
	e2eBuildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lockdownd-e2e")
		if err != nil {
			e2eBuildErr = err
			return
		}
		e2eBins = map[string]string{}
		for _, cmd := range []string{"lockdownd", "lockdown"} {
			bin := filepath.Join(dir, cmd)
			out, err := exec.Command("go", "build", "-o", bin, "../"+cmd).CombinedOutput()
			if err != nil {
				e2eBuildErr = fmt.Errorf("building %s: %v\n%s", cmd, err, out)
				return
			}
			e2eBins[cmd] = bin
		}
	})
	if e2eBuildErr != nil {
		t.Fatal(e2eBuildErr)
	}
	return e2eBins[name]
}

// writeE2EDataset generates the rotated source dataset.
func writeE2EDataset(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = e2eScale
	cfg.Seed = e2eSeed
	g, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := logsink.NewRotatingWriter(root, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunDays(rw, e2eFrom, e2eTo); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	return root
}

func copyE2EDay(t *testing.T, src, dst, day string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dst, day), 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(src, day))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, day, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, day, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

type epochInfo struct {
	Epoch   int    `json:"epoch"`
	Day     string `json:"day"`
	Final   bool   `json:"final"`
	Flows   int64  `json:"flows"`
	Bytes   int64  `json:"bytes"`
	Devices int    `json:"devices"`
	// The sealed day's own counts (absent on the final epoch).
	DayFlows   int64 `json:"day_flows"`
	DayBytes   int64 `json:"day_bytes"`
	DayTouched int   `json:"day_touched"`
}

// get fetches a daemon URL, returning status, the X-Lockdown-Epoch header
// (-1 if absent) and the body.
func get(t *testing.T, url string) (int, int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	epoch := -1
	if h := resp.Header.Get("X-Lockdown-Epoch"); h != "" {
		epoch, err = strconv.Atoi(h)
		if err != nil {
			t.Fatalf("GET %s: bad X-Lockdown-Epoch %q", url, h)
		}
	}
	return resp.StatusCode, epoch, body
}

func waitEpoch(t *testing.T, base string, pred func(epochInfo) bool) epochInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, body := get(t, base+"/v1/epoch")
		if code == http.StatusOK {
			var info epochInfo
			if err := json.Unmarshal(body, &info); err != nil {
				t.Fatalf("/v1/epoch: %v in %s", err, body)
			}
			if pred(info) {
				return info
			}
		} else if code != http.StatusServiceUnavailable {
			t.Fatalf("/v1/epoch: status %d: %s", code, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for epoch (last status %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDaemonGrowsWithDatasetAndMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e daemon test skipped in -short mode")
	}
	src := writeE2EDataset(t)
	days, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var dayNames []string
	for _, e := range days {
		if e.IsDir() {
			dayNames = append(dayNames, e.Name())
		}
	}
	if len(dayNames) < 3 {
		t.Fatalf("dataset produced only %d day directories", len(dayNames))
	}

	// Batch reference over the complete dataset.
	batchOut := t.TempDir()
	cmdBatch := exec.Command(e2eBin(t, "lockdown"),
		"-logs", src, "-scale", fmt.Sprint(e2eScale), "-seed", fmt.Sprint(e2eSeed),
		"-key", e2eKey, "-out", batchOut, "-quiet")
	if out, err := cmdBatch.CombinedOutput(); err != nil {
		t.Fatalf("batch lockdown: %v\n%s", err, out)
	}

	// Start the daemon on an empty root.
	dst := t.TempDir()
	daemon := exec.Command(e2eBin(t, "lockdownd"),
		"-root", dst, "-addr", "127.0.0.1:0", "-scale", fmt.Sprint(e2eScale),
		"-seed", fmt.Sprint(e2eSeed), "-key", e2eKey, "-poll", "5ms")
	var stderr bytes.Buffer
	daemon.Stderr = &stderr
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if daemon.Process != nil {
			_ = daemon.Process.Kill()
			_ = daemon.Wait()
		}
	}()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("daemon exited before announcing its address; stderr:\n%s", stderr.String())
	}
	startLine := sc.Text()
	const marker = "serving on http://"
	i := strings.Index(startLine, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line %q", startLine)
	}
	addr := strings.Fields(startLine[i+len(marker):])[0]
	base := "http://" + addr
	// Drain any further stdout so the child never blocks on a full pipe.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
		}
	}()

	// Before any day is sealed every /v1 endpoint is a clean 503.
	if code, _, _ := get(t, base+"/v1/report"); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-seal /v1/report: status %d, want 503", code)
	}

	// A concurrent querier hammers the API during growth: every response
	// must come from a sealed epoch, and epochs must never regress.
	qStop := make(chan struct{})
	qDone := make(chan struct{})
	var qErr error
	go func() {
		defer close(qDone)
		last := 0
		for {
			select {
			case <-qStop:
				return
			default:
			}
			resp, err := http.Get(base + "/v1/figures/fig1_active_devices.csv")
			if err != nil {
				qErr = err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				continue
			}
			if resp.StatusCode != http.StatusOK {
				qErr = fmt.Errorf("querier: status %d", resp.StatusCode)
				return
			}
			e, err := strconv.Atoi(resp.Header.Get("X-Lockdown-Epoch"))
			if err != nil || e < last {
				qErr = fmt.Errorf("querier: epoch header %q after epoch %d", resp.Header.Get("X-Lockdown-Epoch"), last)
				return
			}
			last = e
			if !bytes.HasPrefix(body, []byte("date,")) {
				qErr = fmt.Errorf("querier: malformed CSV at epoch %d: %.60s", e, body)
				return
			}
		}
	}()

	// Grow day by day. Day k can only seal once day k+1 exists (or the
	// sentinel lands), so after copying day k+1 we wait for epoch k+1.
	copyE2EDay(t, src, dst, dayNames[0])
	for k := 1; k < len(dayNames); k++ {
		copyE2EDay(t, src, dst, dayNames[k])
		sealedDay := dayNames[k-1]
		info := waitEpoch(t, base, func(i epochInfo) bool { return i.Epoch >= k })
		if info.Epoch == k {
			if info.Day != sealedDay {
				t.Fatalf("epoch %d sealed day %q, want %q", k, info.Day, sealedDay)
			}
			if info.Final {
				t.Fatalf("epoch %d marked final with %d days still to come", k, len(dayNames)-1-k)
			}
		}
		// Per-epoch consistency while the dataset is mid-growth: with no
		// further ingest pending, every endpoint must answer from the same
		// epoch.
		_, eFig, _ := get(t, base+"/v1/figures/fig2_bytes_per_device.csv")
		_, eRep, _ := get(t, base+"/v1/report")
		_, eDev, _ := get(t, base+"/v1/devices")
		if eFig != k || eRep != k || eDev != k {
			t.Fatalf("inconsistent epochs across endpoints after seal %d: fig=%d report=%d devices=%d",
				k, eFig, eRep, eDev)
		}
	}

	// Complete the dataset; the daemon finalizes and publishes the last
	// epoch.
	if err := os.WriteFile(filepath.Join(dst, logsink.TailSentinel), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	final := waitEpoch(t, base, func(i epochInfo) bool { return i.Final })
	if final.Epoch != len(dayNames) {
		t.Fatalf("final epoch %d, want %d", final.Epoch, len(dayNames))
	}
	if final.Day != dayNames[len(dayNames)-1] {
		t.Fatalf("final day %q, want %q", final.Day, dayNames[len(dayNames)-1])
	}
	close(qStop)
	<-qDone
	if qErr != nil {
		t.Fatalf("concurrent querier: %v", qErr)
	}

	// Final parity: every figure CSV and the report served by the daemon
	// must be byte-identical to the batch run's files.
	var figNames []string
	code, _, body := get(t, base+"/v1/figures")
	if code != http.StatusOK {
		t.Fatalf("/v1/figures: status %d", code)
	}
	var index struct {
		Figures []string `json:"figures"`
	}
	if err := json.Unmarshal(body, &index); err != nil {
		t.Fatalf("/v1/figures: %v", err)
	}
	figNames = index.Figures
	if len(figNames) == 0 {
		t.Fatal("/v1/figures returned no names")
	}
	for _, name := range figNames {
		want, err := os.ReadFile(filepath.Join(batchOut, name))
		if err != nil {
			t.Fatalf("batch output missing %s: %v", name, err)
		}
		code, epoch, got := get(t, base+"/v1/figures/"+name)
		if code != http.StatusOK {
			t.Fatalf("/v1/figures/%s: status %d", name, code)
		}
		if epoch != final.Epoch {
			t.Fatalf("/v1/figures/%s served epoch %d, want %d", name, epoch, final.Epoch)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs between daemon and batch (daemon %d bytes, batch %d)", name, len(got), len(want))
		}
	}
	wantReport, err := os.ReadFile(filepath.Join(batchOut, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if code, _, gotReport := get(t, base+"/v1/report"); code != http.StatusOK || !bytes.Equal(gotReport, wantReport) {
		t.Fatalf("report differs between daemon and batch (status %d, daemon %d bytes, batch %d)",
			code, len(gotReport), len(wantReport))
	}
	if code, _, _ := get(t, base+"/v1/figures/nope.csv"); code != http.StatusNotFound {
		t.Fatalf("unknown figure: status %d, want 404", code)
	}

	// Historical epochs stay queryable after finalize: epoch 1's metadata
	// comes back pinned by path, and ?epoch=1 pins artifacts to the first
	// seal (header and bytes both from epoch 1, not the final one).
	code, eh, body := get(t, base+"/v1/epoch/1")
	if code != http.StatusOK || eh != 1 {
		t.Fatalf("/v1/epoch/1: status %d, header epoch %d", code, eh)
	}
	var h1 epochInfo
	if err := json.Unmarshal(body, &h1); err != nil {
		t.Fatalf("/v1/epoch/1: %v in %s", err, body)
	}
	if h1.Epoch != 1 || h1.Final || h1.Day != dayNames[0] {
		t.Fatalf("/v1/epoch/1 = %+v, want epoch 1, non-final, day %s", h1, dayNames[0])
	}

	// Each incrementally sealed epoch's day counts are exactly the growth
	// of the cumulative counts since the previous epoch, and a day with
	// traffic touched at least one device.
	var prev epochInfo
	for n := 1; n < final.Epoch; n++ {
		code, _, body := get(t, fmt.Sprintf("%s/v1/epoch/%d", base, n))
		if code != http.StatusOK {
			t.Fatalf("/v1/epoch/%d: status %d", n, code)
		}
		var cur epochInfo
		if err := json.Unmarshal(body, &cur); err != nil {
			t.Fatalf("/v1/epoch/%d: %v in %s", n, err, body)
		}
		if got, want := cur.Flows-prev.Flows, cur.DayFlows; got != want {
			t.Fatalf("epoch %d: flows grew by %d, day_flows = %d", n, got, want)
		}
		if got, want := cur.Bytes-prev.Bytes, cur.DayBytes; got != want {
			t.Fatalf("epoch %d: bytes grew by %d, day_bytes = %d", n, got, want)
		}
		if cur.DayFlows > 0 && cur.DayTouched == 0 {
			t.Fatalf("epoch %d: %d flows but day_touched = 0", n, cur.DayFlows)
		}
		prev = cur
	}
	if prev.DayFlows == 0 {
		t.Fatal("degenerate run: the last sealed day carried no flows")
	}
	code, eh, fig1old := get(t, base+"/v1/figures/fig1_active_devices.csv?epoch=1")
	if code != http.StatusOK || eh != 1 {
		t.Fatalf("epoch-pinned figure: status %d, header epoch %d", code, eh)
	}
	_, _, fig1cur := get(t, base+"/v1/figures/fig1_active_devices.csv")
	if bytes.Equal(fig1old, fig1cur) {
		t.Fatal("epoch-1 figure identical to final figure; historical pin not honored")
	}
	if code, eh, _ := get(t, base+"/v1/report?epoch=1"); code != http.StatusOK || eh != 1 {
		t.Fatalf("epoch-pinned report: status %d, header epoch %d", code, eh)
	}
	if code, _, _ := get(t, base+"/v1/epoch/99"); code != http.StatusNotFound {
		t.Fatalf("out-of-range epoch: status %d, want 404", code)
	}
	if code, _, _ := get(t, base+"/v1/report?epoch=zero"); code != http.StatusBadRequest {
		t.Fatalf("malformed epoch selector: status %d, want 400", code)
	}

	// epochs_published counts sealed join-table epochs of a sharded
	// pipeline, registered under obs.counters (the path the sharded
	// counter test in internal/core reads nonzero). A single pipeline
	// registers no epoch cells and seals none, however many served epochs
	// /v1/epoch has reported.
	code, _, body = get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", code)
	}
	var vars struct {
		Obs *struct {
			Events   int64            `json:"events"`
			Counters map[string]int64 `json:"counters"`
		} `json:"obs"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if vars.Obs == nil || vars.Obs.Events == 0 {
		t.Fatal("/debug/vars: no obs metrics")
	}
	if n, ok := vars.Obs.Counters["epochs_published"]; ok && n != 0 {
		t.Fatalf("obs.counters.epochs_published = %d after %d served epochs at -shards 1, want 0",
			n, final.Epoch)
	}

	// Clean shutdown on SIGTERM with exit code 0.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- daemon.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM\nstderr:\n%s", stderr.String())
	}
	<-drained
	daemon.Process = nil
}
