package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"

	"repro/internal/anonymize"
	"repro/internal/appsig"
	"repro/internal/campus"
	"repro/internal/core"
	"repro/internal/devclass"
	"repro/internal/faultline"
	"repro/internal/figset"
	"repro/internal/logsink"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/stagecache"
	"repro/internal/trace"
	"repro/internal/universe"
)

// The traced repeats redo a workload inside this process by calling the same
// public layer functions the binaries call, in the same order and with the
// same options, with a span around each call. Their artifacts must equal the
// binaries' byte for byte, which is what shows the repeat is faithful.

// traced is one in-process repeat: its spans plus what is counted beside
// them.
type traced struct {
	*tracer
	taskMS       map[string]float64 // figset task → total ms over every Compute
	readDirs     []string           // log directories the repeat decoded
	hashedBytes  int64
	ckptBytes    int
	stats        core.Stats
	hits, misses int64
	cache        stagecache.Counters // the latest cachedRun's store accounting
	gc0, alloc0  float64
	gcS, allocMB float64
	// opNS is the repeat's counterpart of one untraced operation, for the
	// tracing-overhead ratio.
	opNS int64
}

func newTraced(workload string) *traced {
	runtime.GC() // do not bill the repeat for garbage the untraced part left
	t := &traced{tracer: newTracer(workload), taskMS: map[string]float64{}}
	t.gc0, t.alloc0 = runtimeCounters()
	return t
}

// done fixes the traced wall and the runtime counters.
func (t *traced) done() {
	t.finish()
	gc, alloc := runtimeCounters()
	t.gcS, t.allocMB = gc-t.gc0, (alloc-t.alloc0)/(1<<20)
}

func runtimeCounters() (gcCPU, allocBytes float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[1].Value.Uint64())
	}
	return gcCPU, allocBytes
}

func (e *env) genConfig() trace.Config {
	c := trace.DefaultConfig()
	c.Scale, c.Seed = e.scale, e.seed
	return c
}

func (e *env) figParams(truth map[anonymize.DeviceID]devclass.Type) figset.Params {
	return figset.Params{Scale: e.scale, Seed: e.seed, Truth: truth}
}

// registry builds the universe registry every program starts from.
func (t *traced) registry() (*universe.Registry, error) {
	var reg *universe.Registry
	err := t.do("core.new", func() (err error) {
		reg, err = universe.New()
		return err
	})
	return reg, err
}

// genTree writes the study window as a rotated tree, as tracegen -rotate
// does.
func (t *traced) genTree(e *env, dir string) error {
	var gen *trace.Generator
	if err := t.do("trace.new", func() error {
		reg, err := universe.New()
		if err != nil {
			return err
		}
		gen, err = trace.New(e.genConfig(), reg)
		return err
	}); err != nil {
		return err
	}
	w, err := logsink.NewRotatingWriter(dir, false)
	if err != nil {
		return err
	}
	ts := newTimedSink(t.tracer, w)
	for day := campus.Day(0); day < campus.NumDays; day++ {
		id := t.begin("trace.generate")
		ts.a = t.agg("logsink.write")
		err := gen.RunDays(ts, day, day+1)
		t.end(id)
		if err != nil {
			_ = w.Close()
			return err
		}
	}
	return t.do("logsink.close", w.Close)
}

type deviceIDer interface {
	DeviceID(m packet.MAC) anonymize.DeviceID
}

// truth builds the ground-truth typing the accuracy figures score against,
// rebuilding the population when no generator is at hand (replay paths).
func (t *traced) truth(e *env, reg *universe.Registry, ids deviceIDer, gen *trace.Generator) (map[anonymize.DeviceID]devclass.Type, error) {
	truth := map[anonymize.DeviceID]devclass.Type{}
	err := t.do("trace.truth", func() (err error) {
		if gen == nil {
			if gen, err = trace.New(e.genConfig(), reg); err != nil {
				return err
			}
		}
		for _, d := range gen.Devices() {
			truth[ids.DeviceID(d.MAC)] = d.Kind.TruthType()
		}
		return nil
	})
	return truth, err
}

func (t *traced) finalize(p interface{ Finalize() *core.Dataset }) *core.Dataset {
	var ds *core.Dataset
	_ = t.do("core.finalize", func() error { ds = p.Finalize(); return nil })
	t.stats = ds.Stats
	return ds
}

func (t *traced) addTasks(ms map[string]float64) {
	for k, v := range ms {
		t.taskMS[k] += v
	}
}

func (t *traced) compute(ds *core.Dataset, p figset.Params) *figset.Results {
	var res *figset.Results
	_ = t.do("figset.compute", func() error {
		var ms map[string]float64
		res, ms, _ = figset.Compute(ds, p)
		t.addTasks(ms)
		return nil
	})
	return res
}

// render renders every artifact into memory, as both binaries do.
func (t *traced) render(res *figset.Results) (map[string][]byte, error) {
	arts := map[string][]byte{}
	err := t.do("figset.render", func() error {
		for _, n := range figset.FigureNames() {
			var b bytes.Buffer
			if err := res.WriteFigure(&b, n); err != nil {
				return err
			}
			arts[n] = b.Bytes()
		}
		var b bytes.Buffer
		if err := res.Report(&b); err != nil {
			return err
		}
		arts["report.txt"] = b.Bytes()
		return nil
	})
	return arts, err
}

// write writes the artifacts into dir, as lockdown does.
func (t *traced) write(arts map[string][]byte, dir string) error {
	return t.do("figset.write", func() error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, n := range artifactNames() {
			if err := os.WriteFile(filepath.Join(dir, n), arts[n], 0o644); err != nil {
				return err
			}
		}
		return nil
	})
}

// traceGenerate repeats `lockdown -scale S -seed N -key K -quiet`.
func (e *env) traceGenerate(r *report, ref map[string][]byte, untracedNS float64) error {
	t := newTraced(r.workload)
	reg, err := t.registry()
	if err != nil {
		return err
	}
	var pipe *core.Pipeline
	var gen *trace.Generator
	if err := t.do("core.new", func() (err error) {
		pipe, err = core.NewPipeline(reg, core.Options{Key: e.key})
		return err
	}); err != nil {
		return err
	}
	if err := t.do("trace.new", func() (err error) {
		gen, err = trace.New(e.genConfig(), reg)
		return err
	}); err != nil {
		return err
	}
	ts := newTimedSink(t.tracer, pipe)
	for day := campus.Day(0); day < campus.NumDays; day++ {
		id := t.begin("trace.generate")
		ts.a = t.agg("core.ingest")
		err := gen.RunDays(ts, day, day+1)
		t.end(id)
		if err != nil {
			return err
		}
	}
	truth, err := t.truth(e, reg, pipe, gen)
	if err != nil {
		return err
	}
	arts, err := t.render(t.compute(t.finalize(pipe), e.figParams(truth)))
	if err != nil {
		return err
	}
	if err := t.write(arts, e.path("traced")); err != nil {
		return err
	}
	t.done()
	t.opNS = t.wallNS
	checkTraced(r, ref, arts)
	e.layerReport(r, t, untracedNS)
	return nil
}

// traceReplay repeats tracegen (set-up) and `lockdown -logs TREE`.
func (e *env) traceReplay(r *report, ref map[string][]byte, treeDigest stagecache.Digest, untracedNS float64) error {
	t := newTraced(r.workload)
	tree := e.path("traced-tree")
	if err := t.genTree(e, tree); err != nil {
		return err
	}
	opStart := t.now()
	reg, err := t.registry()
	if err != nil {
		return err
	}
	var pipe *core.Pipeline
	if err := t.do("core.new", func() (err error) {
		pipe, err = core.NewPipeline(reg, core.Options{Key: e.key})
		return err
	}); err != nil {
		return err
	}
	ts := newTimedSink(t.tracer, pipe)
	guard := faultline.NewGuard(faultline.PolicyStrict, 0.001, nil, nil)
	id := t.begin("logsink.replay")
	ts.a = t.agg("core.ingest")
	err = logsink.ReplayRotatedWithOptions(tree, ts, logsink.ReplayOptions{Guard: guard})
	t.end(id)
	if err != nil {
		return err
	}
	truth, err := t.truth(e, reg, pipe, nil)
	if err != nil {
		return err
	}
	arts, err := t.render(t.compute(t.finalize(pipe), e.figParams(truth)))
	if err != nil {
		return err
	}
	if err := t.write(arts, e.path("traced")); err != nil {
		return err
	}
	t.done()
	t.opNS = t.wallNS - opStart
	t.readDirs = []string{tree}
	checkTraced(r, ref, arts)
	if err := checkTree(r, tree, treeDigest); err != nil {
		return err
	}
	e.layerReport(r, t, untracedNS)
	return nil
}

// binaryCacheCounts reruns the append binary once more, untimed, with
// -bench-json on a fresh copy of the seeded cache, and returns its own
// stage-cache accounting for the traced repeat to be checked against.
func (e *env) binaryCacheCounts(ref map[string][]byte, logs, line string) (obs.CacheBench, error) {
	cache, out, bj := e.path("xcheck-cache"), e.path("xcheck"), e.path("xcheck-bench.json")
	if err := copyDir(e.path("cache-0"), cache); err != nil {
		return obs.CacheBench{}, err
	}
	if _, err := e.checkedRun(ref, out, line, e.lockdownArgs(out, "-logs", logs, "-cache-dir", cache, "-bench-json", bj)); err != nil {
		return obs.CacheBench{}, err
	}
	b, err := os.ReadFile(bj)
	if err != nil {
		return obs.CacheBench{}, err
	}
	var br obs.BenchReport
	if err := json.Unmarshal(b, &br); err != nil {
		return obs.CacheBench{}, fmt.Errorf("%s: %w", bj, err)
	}
	if br.Cache == nil {
		return obs.CacheBench{}, fmt.Errorf("%s has no cache accounting", bj)
	}
	return *br.Cache, nil
}

// traceAppend repeats tracegen, the cache-seeding run over the 120-day
// prefix (set-up) and one append rerun. The rerun's cache hits, misses,
// invalidations and verify failures must equal the binary's (bin), so a
// change to how lockdown probes its cache cannot leave the repeat
// describing the old one.
func (e *env) traceAppend(r *report, ref map[string][]byte, logs string, untracedNS float64, bin obs.CacheBench) error {
	treeDigest, _, err := stagecache.TreeDigest(logs)
	if err != nil {
		return err
	}
	t := newTraced(r.workload)
	tree, held := e.path("traced-tree"), e.path("traced-held")
	if err := t.genTree(e, tree); err != nil {
		return err
	}
	last := campus.Day(campus.NumDays - 1).String()
	if err := moveDays(tree, held, []string{last}); err != nil {
		return err
	}
	cache := e.path("traced-cache")
	if _, _, err := e.cachedRun(t, tree, cache, e.path("traced-prefix")); err != nil {
		return err
	}
	if err := moveDays(held, tree, []string{last}); err != nil {
		return err
	}
	opStart := t.now()
	arts, line, err := e.cachedRun(t, tree, cache, e.path("traced"))
	if err != nil {
		return err
	}
	t.done()
	t.opNS = t.wallNS - opStart
	if want := fmt.Sprintf("statsday: days=%d replayed=1 misses=1 hits=1", campus.NumDays); line != want {
		r.fail("traced append: %q, want %q", line, want)
	}
	c := t.cache
	if got := (obs.CacheBench{Hits: c.Hits, Misses: c.Misses, Invalidations: c.Invalidations, VerifyFailures: c.VerifyFailures}); got != bin {
		r.fail("traced append's cache accounting %+v differs from the binary's %+v", got, bin)
	}
	checkTraced(r, ref, arts)
	if err := checkTree(r, tree, treeDigest); err != nil {
		return err
	}
	e.layerReport(r, t, untracedNS)
	return nil
}

// cachedRun repeats `lockdown -logs LOGS -cache-dir CACHE` on its per-day
// checkpoint path: key every day, restore the deepest cached checkpoint,
// replay and seal the remaining days, publish the new checkpoint, then the
// stats and figures stages. It returns the artifacts and the statsday line
// the binary would print.
func (e *env) cachedRun(t *traced, logs, cacheDir, out string) (map[string][]byte, string, error) {
	reg, err := t.registry()
	if err != nil {
		return nil, "", err
	}
	var store *stagecache.Store
	var keys cacheKeys
	if err := t.do("stagecache.open", func() (err error) {
		if keys.code, err = stagecache.CodeDigest(); err != nil {
			return err
		}
		keys.rules = stagecache.RulesDigest(reg, appsig.TableRows())
		store, err = stagecache.Open(cacheDir, stagecache.ModeReadWrite, nil)
		return err
	}); err != nil {
		return nil, "", err
	}
	defer func() {
		t.cache = store.Counters()
		t.hits += t.cache.Hits
		t.misses += t.cache.Misses
	}()
	digest := func(dir string) (d stagecache.Digest, err error) {
		err = t.do("stagecache.tree_digest", func() error {
			var n int64
			d, n, err = stagecache.TreeDigest(dir)
			t.hashedBytes += n
			return err
		})
		return d, err
	}
	get := func(stage string, key stagecache.Digest, validate func(map[string][]byte) error) (hit bool) {
		_ = t.do("stagecache.get", func() error {
			_, hit = store.GetBytes(stage, key, validate)
			return nil
		})
		return hit
	}
	put := func(stage string, key stagecache.Digest, inputs map[string]stagecache.Digest, files map[string][]byte) error {
		return t.do("stagecache.put", func() error { return store.PutBytes(stage, key, inputs, files) })
	}

	logsDigest, err := digest(logs)
	if err != nil {
		return nil, "", err
	}
	statsKey := keys.key("stats", logsDigest)
	if get("stats", statsKey, func(map[string][]byte) error { return nil }) {
		return nil, "", fmt.Errorf("stats stage hit over %s; the workload expects every run to change the tree", logs)
	}

	opts := core.Options{Key: e.key}
	replayOpts := logsink.ReplayOptions{Guard: faultline.NewGuard(faultline.PolicyStrict, 0.001, nil, nil)}
	days, err := logsink.DayDirs(logs)
	if err != nil {
		return nil, "", err
	}
	dayKeys := make([]stagecache.Digest, len(days))
	var prev stagecache.Digest
	for i, d := range days {
		dd, err := digest(filepath.Join(logs, d))
		if err != nil {
			return nil, "", err
		}
		dayKeys[i] = keys.key("statsday", prev, dd)
		prev = dayKeys[i]
	}
	var pipe *core.Pipeline
	start, hits, misses := 0, 0, 0
	for j := len(days) - 1; j >= 0; j-- {
		var restored *core.Pipeline
		if get("statsday", dayKeys[j], func(files map[string][]byte) error {
			return t.do("core.restore_checkpoint", func() (err error) {
				restored, err = core.RestoreCheckpoint(reg, opts, files["checkpoint.bin"])
				return err
			})
		}) {
			pipe, start = restored, j+1
			hits++
			break
		}
		misses++
	}
	if pipe == nil {
		if err := t.do("core.new", func() (err error) {
			pipe, err = core.NewPipeline(reg, opts)
			return err
		}); err != nil {
			return nil, "", err
		}
	}
	base := pipe.Stats()
	ts := newTimedSink(t.tracer, pipe)
	var parts []*core.DayPartial
	for i := start; i < len(days); i++ {
		id := t.begin("logsink.replay_day")
		ts.a = t.agg("core.ingest")
		err := logsink.ReplayRotatedDay(logs, days[i], ts, replayOpts)
		t.end(id)
		if err != nil {
			return nil, "", err
		}
		t.readDirs = append(t.readDirs, filepath.Join(logs, days[i]))
		_ = t.do("core.seal_day", func() error { parts = append(parts, pipe.SealDay(days[i])); return nil })
	}
	if len(parts) > 0 {
		if err := t.do("core.merge_check", func() error {
			merged, err := core.MergeDayPartials(parts)
			if err != nil {
				return err
			}
			if got, want := base.Add(merged.Stats), pipe.Stats(); got != want {
				return fmt.Errorf("merged day partials %+v != pipeline stats %+v", got, want)
			}
			return nil
		}); err != nil {
			return nil, "", err
		}
		var ckpt []byte
		if err := t.do("core.encode_checkpoint", func() (err error) {
			ckpt, err = pipe.EncodeCheckpoint()
			return err
		}); err != nil {
			return nil, "", err
		}
		t.ckptBytes = len(ckpt)
		if err := put("statsday", dayKeys[len(days)-1], map[string]stagecache.Digest{"code": keys.code, "rules": keys.rules},
			map[string][]byte{"checkpoint.bin": ckpt}); err != nil {
			return nil, "", err
		}
	}
	truth, err := t.truth(e, reg, pipe, nil)
	if err != nil {
		return nil, "", err
	}
	ds := t.finalize(pipe)
	var dsBytes, truthBytes []byte
	_ = t.do("core.encode_dataset", func() error {
		dsBytes, truthBytes = core.EncodeDataset(ds), core.EncodeTruth(truth)
		return nil
	})
	if err := put("stats", statsKey, map[string]stagecache.Digest{"code": keys.code, "rules": keys.rules, "dataset": logsDigest},
		map[string][]byte{"dataset.bin": dsBytes, "truth.bin": truthBytes}); err != nil {
		return nil, "", err
	}
	dsDigest, truthDigest := stagecache.ContentDigest(dsBytes), stagecache.ContentDigest(truthBytes)
	figKey := keys.key("figures", dsDigest, truthDigest)
	if get("figures", figKey, func(map[string][]byte) error { return nil }) {
		return nil, "", fmt.Errorf("figures stage hit over %s", logs)
	}
	arts, err := t.render(t.compute(ds, e.figParams(truth)))
	if err != nil {
		return nil, "", err
	}
	if err := put("figures", figKey, map[string]stagecache.Digest{"dataset": dsDigest, "truth": truthDigest}, arts); err != nil {
		return nil, "", err
	}
	if err := t.write(arts, out); err != nil {
		return nil, "", err
	}
	line := fmt.Sprintf("statsday: days=%d replayed=%d misses=%d hits=%d", len(days), len(parts), misses, hits)
	return arts, line, nil
}

// cacheKeys holds the run-invariant digests every stage key chains from.
type cacheKeys struct{ code, rules stagecache.Digest }

// key addresses the repeat's private cache: a stage's key is the code and
// rules digests chained with the content digests the stage reads. Only the
// repeat's own runs read this cache, and within one workload the flags
// cmd/lockdown also keys on never change, so the content decides every hit
// and miss, as it does for the binary. The repeat mirrors cmd/lockdown's
// probes and hashing at this commit; the append workload checks its cache
// accounting against the binary's own (-bench-json).
func (k cacheKeys) key(stage string, content ...stagecache.Digest) stagecache.Digest {
	h := stagecache.NewHasher("lockbench/" + stage)
	h.Digest("code", k.code)
	h.Digest("rules", k.rules)
	for _, d := range content {
		h.Digest("content", d)
	}
	return h.Sum()
}

// traceServe repeats tracegen (set-up) and lockdownd's ingest side over the
// whole tree: tail, per-day seal through figset.Incremental, finalize. The
// days are all on disk, so the tail never waits for the next one and its
// self time is decode; the untraced run of the same invocation supplies the
// lag and query numbers, which need the schedule.
func (e *env) traceServe(r *report, ref map[string][]byte, rootDigest stagecache.Digest, prefix int, untracedNS float64) error {
	t := newTraced(r.workload)
	tree := e.path("traced-tree")
	if err := t.genTree(e, tree); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tree, logsink.TailSentinel), nil, 0o644); err != nil {
		return err
	}
	opStart := t.now()
	reg, err := t.registry()
	if err != nil {
		return err
	}
	var pipe *core.Pipeline
	if err := t.do("core.new", func() (err error) {
		pipe, err = core.NewPipeline(reg, core.Options{Key: e.key, Obs: obs.NewMetrics()})
		return err
	}); err != nil {
		return err
	}
	truth, err := t.truth(e, reg, pipe, nil)
	if err != nil {
		return err
	}
	params := e.figParams(truth)
	sealer := &timedSealer{tr: t.tracer, s: pipe}
	inc := figset.NewIncremental(sealer, params, core.Stats{})
	ts := newTimedSink(t.tracer, pipe)
	epochs := 0
	var prefixNS int64
	var sealErr error
	id := t.begin("logsink.tail")
	ts.a = t.agg("core.ingest")
	err = logsink.TailRotated(tree, ts, logsink.TailOptions{
		Poll: poll,
		OnDaySealed: func(day string, final bool) {
			epochs++
			if final || sealErr != nil {
				return
			}
			sid := t.begin("figset.seal")
			ep, err := inc.Seal(day)
			if err != nil {
				sealErr = err
			} else {
				end := t.now()
				t.child("figset.compute", end-int64(ep.FigWallMS*1e6), end)
				t.addTasks(ep.FigMS)
			}
			t.end(sid)
			if epochs == prefix-1 {
				prefixNS = t.now()
			}
		},
	})
	t.end(id)
	if err == nil {
		err = sealErr
	}
	if err != nil {
		return err
	}
	arts, err := t.render(t.compute(t.finalize(pipe), params))
	if err != nil {
		return err
	}
	t.done()
	t.opNS = prefixNS - opStart
	t.readDirs = []string{tree}
	checkTraced(r, ref, arts)
	if err := checkTree(r, tree, rootDigest); err != nil {
		return err
	}
	r.detail("core.touched_devices_p50", median(sealer.touched), "count", fmt.Sprintf("n=%d seals", len(sealer.touched)))
	e.layerReport(r, t, untracedNS)
	return nil
}

func checkTraced(r *report, ref, arts map[string][]byte) {
	r.attempted++
	if n := diffArtifacts(ref, arts); n != "" {
		r.failed++
		r.fail("traced in-process run: %s differs from the binary's", n)
	}
}

// checkTree requires the tree the repeat generated in-process to equal the
// one tracegen wrote.
func checkTree(r *report, tree string, want stagecache.Digest) error {
	got, _, err := stagecache.TreeDigest(tree)
	if err != nil {
		return err
	}
	if got != want {
		r.fail("traced in-process tree %s differs from tracegen's", tree)
	}
	return nil
}
