#!/usr/bin/env sh
# Append smoke: prove the per-day stats cache makes a one-day append
# O(delta) on the shipped binary. A cached run over the dataset's 14-day
# prefix seeds per-day checkpoints; after the 15th day is appended, the
# rerun must (a) replay exactly one day (statsday: replayed=1 misses=1
# hits=1 — one probe missed at the new final day, the next hit the
# previous run's checkpoint), (b) emit outputs byte-identical to a
# cache-free run over the full dataset, (c) land within a fixed
# multiple of the full run's single-day cost, and (d) read at most half of
# the 15-day tree to key it: the digest memo the prefix run wrote vouches
# for every unchanged file, so the rerun reads about one day of fifteen.
#
# Usage: append_smoke.sh <lockdown-binary> <tracegen-binary> <work-dir> <key-hex> <scale> [day-budget]
set -eu

LOCKDOWN=$1
TRACEGEN=$2
WORK=$3
KEY=$4
SCALE=$5
DAY_BUDGET=${6:-8}

fail() {
    echo "append-smoke: $1" >&2
    exit 1
}

mkdir -p "$WORK"
CACHE=$WORK/cache

echo "== generate 15-day rotated dataset (days 36:51)"
rm -rf "$WORK/full" "$WORK/trunc"
"$TRACEGEN" -scale "$SCALE" -rotate -days 36:51 -out "$WORK/full"
DAYS=$(ls -d "$WORK"/full/*/ | wc -l)
[ "$DAYS" -eq 15 ] || fail "expected 15 day directories, got $DAYS"
LAST=$(ls "$WORK/full" | sort | tail -1)

# Truncated copy: byte-identical prefix, final day withheld.
cp -r "$WORK/full" "$WORK/trunc"
rm -rf "$WORK/trunc/$LAST"

echo "== cold cache-free reference over the full dataset"
"$LOCKDOWN" -logs "$WORK/full" -scale "$SCALE" -quiet -key "$KEY" \
    -out "$WORK/ref" -bench-json "$WORK/BENCH_append_cold.json" 2>"$WORK/ref.log"
cat "$WORK/ref.log"

echo "== cached run over the 14-day prefix (seeds per-day checkpoints)"
"$LOCKDOWN" -logs "$WORK/trunc" -scale "$SCALE" -quiet -key "$KEY" -cache-dir "$CACHE" \
    -out "$WORK/trunc-out" 2>"$WORK/trunc.log"
cat "$WORK/trunc.log"
grep -q 'statsday: days=14 replayed=14 misses=14 hits=0' "$WORK/trunc.log" \
    || fail "prefix run did not cold-build all 14 days"

echo "== append day 15 and rerun"
cp -r "$WORK/full/$LAST" "$WORK/trunc/$LAST"
"$LOCKDOWN" -logs "$WORK/trunc" -scale "$SCALE" -quiet -key "$KEY" -cache-dir "$CACHE" \
    -out "$WORK/incr" -bench-json "$WORK/BENCH_append_incr.json" 2>"$WORK/incr.log"
cat "$WORK/incr.log"
grep -q 'statsday: days=15 replayed=1 misses=1 hits=1' "$WORK/incr.log" \
    || fail "append rerun did not replay exactly the appended day"

# Byte identity against the cache-free full run: the incremental rerun and
# the reference saw the same bytes, so every CSV and the report must match.
diff -r "$WORK/ref" "$WORK/incr" || fail "incremental outputs differ from the cold full run"
echo "append-smoke: incremental outputs byte-identical to the cold full run"

# Wall gate: the incremental rerun may cost at most DAY_BUDGET times the
# full run's per-day average (cold_wall / 15), with a 1s floor so timer
# resolution and process startup never flake the gate.
wall() {
    sed -n 's/.*"wall_seconds": *\([0-9.eE+-]*\).*/\1/p' "$1" | head -1
}
COLD_WALL=$(wall "$WORK/BENCH_append_cold.json")
INCR_WALL=$(wall "$WORK/BENCH_append_incr.json")
[ -n "$COLD_WALL" ] && [ -n "$INCR_WALL" ] || fail "bench reports missing wall_seconds"
echo "cold wall: ${COLD_WALL}s (15 days), incremental wall: ${INCR_WALL}s (gate: ${DAY_BUDGET}x single day, 1s floor)"
awk -v cold="$COLD_WALL" -v incr="$INCR_WALL" -v budget="$DAY_BUDGET" 'BEGIN {
    limit = budget * cold / 15;
    if (limit < 1) limit = 1;
    if (incr > limit) {
        printf "append-smoke: incremental wall %.2fs above the %.2fs gate\n", incr, limit;
        exit 1;
    }
    printf "incremental wall %.2fs within the %.2fs gate\n", incr, limit;
}' || exit 1

# Keying gate: the rerun's hashed_mb (bytes read to key the tree, in MiB;
# omitted when nothing was read) may be at most half of the tree's size.
TREE_BYTES=$(find "$WORK/trunc" -type f -exec wc -c {} + | awk '$2 != "total" {s += $1} END {print s + 0}')
HASHED_MB=$(sed -n 's/.*"hashed_mb": *\([0-9.eE+-]*\).*/\1/p' "$WORK/BENCH_append_incr.json" | head -1)
awk -v hashed="${HASHED_MB:-0}" -v tree="$TREE_BYTES" 'BEGIN {
    read = hashed * 1048576;
    if (read > tree / 2) {
        printf "append-smoke: keying read %.0f bytes, above half of the %d-byte tree\n", read, tree;
        exit 1;
    }
    printf "keying read %.0f of %d tree bytes (gate: half)\n", read, tree;
}' || exit 1

echo "append-smoke: OK"
