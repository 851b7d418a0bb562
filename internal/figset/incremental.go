package figset

import "repro/internal/core"

// Sealer is the slice of core.Pipeline / core.ShardedPipeline the
// incremental maintainer drives: seal a day into its Stats delta and
// touched set, then re-render only the devices that day touched on top of
// the previous copy-on-write snapshot.
type Sealer interface {
	SealDay(label string) *core.DayPartial
	SnapshotDelta(prev *core.Dataset, dp *core.DayPartial) *core.Dataset
}

// Epoch is one sealed day's output: the day's partial, the copy-on-write
// snapshot it produced, the figure set recomputed over that snapshot, and
// the per-figure timings for bench accounting.
type Epoch struct {
	Partial   *core.DayPartial
	Dataset   *core.Dataset
	Results   *Results
	FigMS     map[string]float64
	FigWallMS float64
}

// Incremental maintains the figure set across day seals. Each Seal costs
// O(devices touched that day) on the snapshot side — untouched devices'
// records are shared with the previous epoch, not re-rendered — plus one
// figure recompute; a full Snapshot re-renders every device every epoch.
// The previous snapshot is the only state kept between seals.
type Incremental struct {
	sealer Sealer
	params Params
	prev   *core.Dataset
}

// NewIncremental returns a maintainer over s.
// base is unused (the snapshot carries its own cumulative stats); it is
// kept so existing callers compile.
func NewIncremental(s Sealer, p Params, base core.Stats) *Incremental {
	return &Incremental{sealer: s, params: p}
}

// Seal closes the day under label and returns its epoch: partial, delta
// snapshot, and recomputed figures.
// The error result is always nil; it is kept so existing callers compile.
func (inc *Incremental) Seal(label string) (*Epoch, error) {
	dp := inc.sealer.SealDay(label)
	ds := inc.sealer.SnapshotDelta(inc.prev, dp)
	res, figMS, figWallMS := Compute(ds, inc.params)
	inc.prev = ds
	return &Epoch{Partial: dp, Dataset: ds, Results: res, FigMS: figMS, FigWallMS: figWallMS}, nil
}
