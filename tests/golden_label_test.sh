#!/bin/sh
# Golden-file regression tests for the pinned synthetic dataset, split so
# each stage is checked on its own:
#
#  1. `lamo label` over the committed mined-motif fixture must reproduce the
#     committed labeled-motif output byte for byte. The fixture pins the
#     labeler's input, so this isolates labeling (algorithm, iteration
#     orders, on-disk format) from the miner.
#  2. `lamo mine` over the same dataset must find the fixture's motifs:
#     the same header lines in the same order (size, frequency, uniqueness,
#     edges) and, per motif, the same multiset of aligned occurrence lines.
#     Occurrence order is not pinned (it follows the enumeration order).
#
# To regenerate the labeled output after an *intentional* change:
#   LAMO_UPDATE_GOLDEN=1 sh tests/golden_label_test.sh build/tools/lamo \
#     tests/golden/labeled.golden.txt tests/golden/motifs.golden.txt
set -e
LAMO="$1"
GOLDEN="$2"
MOTIFS="$3"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$LAMO" generate --proteins 400 --copies 30 --seed 5 --out "$WORK/ds" \
  > /dev/null
"$LAMO" label --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --motifs "$MOTIFS" \
  --sigma 6 --out "$WORK/labeled.txt" > /dev/null

if [ -n "$LAMO_UPDATE_GOLDEN" ]; then
  cp "$WORK/labeled.txt" "$GOLDEN"
  echo "updated $GOLDEN"
  exit 0
fi

diff -u "$GOLDEN" "$WORK/labeled.txt" || {
  echo "FAIL: lamo label output drifted from $GOLDEN" >&2
  echo "(rerun with LAMO_UPDATE_GOLDEN=1 if the change is intentional)" >&2
  exit 1
}

"$LAMO" mine --graph "$WORK/ds.graph.txt" --min-size 3 --max-size 4 \
  --min-freq 20 --networks 5 --uniqueness 0.8 --out "$WORK/motifs.txt" \
  > /dev/null

# Numbers each motif block, keeps its non-occurrence lines in file order
# and sorts its occurrence lines, so two files compare equal iff they agree
# motif by motif up to occurrence order.
normalize() {
  awk '$1 == "motif" { block++; line = 0 }
       $1 == "occ" { print block, 1, $0; next }
       { printf "%d 0 %04d %s\n", block, line++, $0 }' "$1" |
    LC_ALL=C sort -k1,1n -k2,2n -k3
}
normalize "$MOTIFS" > "$WORK/fixture.norm"
normalize "$WORK/motifs.txt" > "$WORK/mined.norm"
diff -u "$WORK/fixture.norm" "$WORK/mined.norm" || {
  echo "FAIL: lamo mine no longer finds the motifs of $MOTIFS" >&2
  exit 1
}
echo "golden label output OK; mined motifs match the fixture"
