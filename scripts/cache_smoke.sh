#!/usr/bin/env sh
# Cache smoke: prove the stage cache's acceptance walk on the shipped
# binary. A cold run populates the cache; a warm run must hit every stage,
# produce byte-identical outputs, and beat the cold wall clock by at least
# MIN_SPEEDUP; after the cache's figures/ directory is deleted (a lost
# entry), a rerun must reuse the cached stats (stats=hit figures=miss) and
# still emit identical bytes.
# The bench JSONs are left behind for cmd/benchdiff -summary.
#
# Usage: cache_smoke.sh <lockdown-binary> <work-dir> <key-hex> <scale> [min-speedup]
set -eu

BIN=$1
WORK=$2
KEY=$3
SCALE=$4
MIN_SPEEDUP=${5:-3}

fail() {
    echo "cache-smoke: $1" >&2
    exit 1
}

mkdir -p "$WORK"
CACHE=$WORK/cache

echo "== cold run (populates the cache)"
"$BIN" -scale "$SCALE" -quiet -key "$KEY" -cache-dir "$CACHE" \
    -out "$WORK/cold" -bench-json "$WORK/BENCH_cache_cold.json" 2>"$WORK/cold.log"
cat "$WORK/cold.log"
grep -q 'stats=miss figures=miss' "$WORK/cold.log" || fail "cold run did not miss both stages"

echo "== warm run (must hit every stage)"
"$BIN" -scale "$SCALE" -quiet -key "$KEY" -cache-dir "$CACHE" \
    -out "$WORK/warm" -bench-json "$WORK/BENCH_cache_warm.json" 2>"$WORK/warm.log"
cat "$WORK/warm.log"
grep -q 'stats=hit figures=hit' "$WORK/warm.log" || fail "warm run did not hit both stages"
grep -q 'verify_failures=0' "$WORK/warm.log" || fail "warm run reported verify failures"
diff -r "$WORK/cold" "$WORK/warm" || fail "warm outputs differ from cold outputs"

# Wall-clock gate: the warm run replays cached stats and figures, so it
# must be at least MIN_SPEEDUP x faster than the cold run end to end.
wall() {
    sed -n 's/.*"wall_seconds": *\([0-9.eE+-]*\).*/\1/p' "$1" | head -1
}
COLD_WALL=$(wall "$WORK/BENCH_cache_cold.json")
WARM_WALL=$(wall "$WORK/BENCH_cache_warm.json")
[ -n "$COLD_WALL" ] && [ -n "$WARM_WALL" ] || fail "bench reports missing wall_seconds"
echo "cold wall: ${COLD_WALL}s, warm wall: ${WARM_WALL}s (gate: ${MIN_SPEEDUP}x)"
awk -v cold="$COLD_WALL" -v warm="$WARM_WALL" -v min="$MIN_SPEEDUP" 'BEGIN {
    if (warm <= 0) exit 0;           # sub-resolution warm run: trivially fast
    if (cold / warm < min) {
        printf "cache-smoke: warm speedup %.2fx below the %.1fx gate\n", cold / warm, min;
        exit 1;
    }
    printf "warm speedup: %.1fx\n", cold / warm;
}' || exit 1

echo "== lost figures entry (figures/ deleted: stats stay cached)"
rm -rf "$CACHE/figures"
"$BIN" -scale "$SCALE" -quiet -key "$KEY" -cache-dir "$CACHE" \
    -out "$WORK/partial" -bench-json "$WORK/BENCH_cache_partial.json" 2>"$WORK/partial.log"
cat "$WORK/partial.log"
grep -q 'stats=hit figures=miss' "$WORK/partial.log" \
    || fail "lost figures entry did not reuse cached stats"
diff -r "$WORK/cold" "$WORK/partial" || fail "recomputed figures moved output bytes"

echo "cache-smoke: OK"
