// The fuzz target lives in an external test package so the seed corpus can
// be built with logsink and faultline, which import dnssim.
package dnssim_test

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/decodeerr"
	"repro/internal/dnssim"
	"repro/internal/faultline"
	"repro/internal/logsink"
	"repro/internal/trace"
	"repro/internal/universe"
)

// genDNSLog renders one tiny-scale generated day's dns.log, trimmed to
// keep the seed corpus small.
func genDNSLog(f *testing.F) string {
	f.Helper()
	dir := f.TempDir()
	reg, err := universe.New()
	if err != nil {
		f.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.002
	g, err := trace.New(cfg, reg)
	if err != nil {
		f.Fatal(err)
	}
	w, err := logsink.NewWriter(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := g.RunDays(w, 10, 11); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, logsink.DNSFile))
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfterN(string(data), "\n", 65)
	return strings.Join(lines[:min(len(lines), 64)], "")
}

// FuzzDNSLogReader feeds arbitrary text through the dns log reader under
// the contract the other log readers' fuzz targets hold: no panics, every
// record-level failure classified for the replay guard, the reader usable
// after a classified failure, and accepted entries carrying valid client
// and answer addresses.
func FuzzDNSLogReader(f *testing.F) {
	clean := genDNSLog(f)
	f.Add(clean)
	for seed := int64(1); seed <= 3; seed++ {
		out, err := io.ReadAll(faultline.NewReader(strings.NewReader(clean), faultline.Config{Seed: seed, Rate: 0.3}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(out))
	}
	f.Add("")
	f.Add("#fields\tts\tid.orig_h\tquery\tanswer\tttl")

	f.Fuzz(func(t *testing.T, input string) {
		lr, err := dnssim.NewLogReader(strings.NewReader(input))
		if err != nil {
			return
		}
		for i := 0; i < 2000; i++ {
			e, err := lr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if _, ok := decodeerr.ClassOf(err); ok {
					continue
				}
				if errors.Is(err, bufio.ErrTooLong) {
					return
				}
				t.Fatalf("unclassified decode error: %v", err)
			}
			if !e.Client.IsValid() || !e.Answer.IsValid() {
				t.Fatalf("reader accepted an entry with an invalid address: %+v", e)
			}
		}
	})
}
