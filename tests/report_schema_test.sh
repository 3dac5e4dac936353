#!/bin/sh
# Schema test for --report: run the ESU miner over a small synthetic graph
# with a JSON run report enabled, then validate the document's required keys
# (and that the ESU/parallel counters actually recorded work) with
# lamo_report_check. Also exercises --stats and checks the predictor path
# emits a report at all.
set -e
LAMO="$1"
CHECK="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$LAMO" generate --proteins 300 --copies 20 --seed 9 --out "$WORK/ds" \
  > /dev/null

"$LAMO" mine --graph "$WORK/ds.graph.txt" --min-size 3 \
  --max-size 4 --min-freq 15 --networks 3 --uniqueness 0.5 --threads 2 \
  --report "$WORK/mine.json" --stats --out "$WORK/motifs.txt" \
  > /dev/null 2> "$WORK/mine.stats.txt"
"$CHECK" "$WORK/mine.json" \
  esu.subgraphs esu.canon_cache_misses parallel.chunks \
  uniqueness.replicates \
  hist:esu.chunk_us hist:uniqueness.replicate_us hist:pool.queue_wait_us

grep -q "lamo mine run stats" "$WORK/mine.stats.txt" || {
  echo "FAIL: --stats printed no summary" >&2
  exit 1
}

"$LAMO" label --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --motifs "$WORK/motifs.txt" \
  --sigma 5 --report "$WORK/label.json" --out "$WORK/labeled.txt" > /dev/null
"$CHECK" "$WORK/label.json" lamofinder.so_cells similarity.memo_misses \
  hist:lamofinder.so_cell_us hist:similarity.compute_us

"$LAMO" predict --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --protein 1 --report "$WORK/predict.json" > /dev/null
"$CHECK" "$WORK/predict.json"

echo "report schema OK"
