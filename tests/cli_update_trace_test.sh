#!/bin/sh
# Attribution of the live-update path, end to end: a traced --stdin server
# applies DELEDGE / PREDICT_EDGE / ADDEDGE rounds, and lamo_report_check
# must find every engine phase span (update.index_edit,
# update.enumerate.k<k>, update.classify, update.sites, update.roles,
# update.invalidate) nested in its update.apply / update.score_edge parent,
# with the phases covering at least 95% of update.apply's time (the scope
# of the update.update_us histogram). Hand-written traces with an orphaned
# phase span, or with a parent its phases barely cover, must fail.
set -e
LAMO="$1"
REPORT_CHECK="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$LAMO" generate --proteins 300 --copies 30 --seed 5 --out "$WORK/ds" \
  > /dev/null
"$LAMO" mine --graph "$WORK/ds.graph.txt" --min-size 3 \
  --max-size 4 --min-freq 15 --networks 4 --uniqueness 0.8 \
  --out "$WORK/motifs.txt" > /dev/null
"$LAMO" label --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --motifs "$WORK/motifs.txt" \
  --sigma 6 --out "$WORK/labeled.txt" > /dev/null
"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --out "$WORK/model.lamosnap" > /dev/null

# 30 edges (lines 3.. of the edge list): delete, score, re-add each.
sed -n '3,32p' "$WORK/ds.graph.txt" | while read -r u v; do
  echo "DELEDGE $u $v"
  echo "PREDICT_EDGE $u $v"
  echo "ADDEDGE $u $v"
done > "$WORK/updates.txt"
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --stdin \
  --trace "$WORK/update.trace.json" < "$WORK/updates.txt" \
  > "$WORK/updates.out" 2> /dev/null
test "$(grep -c '^OK' "$WORK/updates.out")" -eq 90 || {
  echo "FAIL: not every traced update succeeded" >&2; exit 1; }
"$REPORT_CHECK" "$WORK/update.trace.json" > "$WORK/check.out"
cat "$WORK/check.out"
grep -q "^update.score_edge: nested phases cover" "$WORK/check.out"

# An engine phase outside any update.apply must be rejected.
cat > "$WORK/orphan.trace.json" << 'EOF'
{"traceEvents":[
{"name":"update.apply","ph":"X","pid":1,"tid":1,"ts":100,"dur":50},
{"name":"update.sites","ph":"X","pid":1,"tid":1,"ts":110,"dur":20},
{"name":"update.enumerate.k3","ph":"X","pid":1,"tid":1,"ts":200,"dur":10}
]}
EOF
if "$REPORT_CHECK" "$WORK/orphan.trace.json" 2> "$WORK/orphan.err"; then
  echo "FAIL: orphaned phase span accepted" >&2
  exit 1
fi
grep -q "update.enumerate.k3" "$WORK/orphan.err"
# Same span on another thread than its parent: also an orphan.
cat > "$WORK/thread.trace.json" << 'EOF'
{"traceEvents":[
{"name":"update.apply","ph":"X","pid":1,"tid":1,"ts":100,"dur":50},
{"name":"update.sites","ph":"X","pid":1,"tid":2,"ts":110,"dur":20}
]}
EOF
if "$REPORT_CHECK" "$WORK/thread.trace.json" 2> /dev/null; then
  echo "FAIL: cross-thread phase span accepted" >&2
  exit 1
fi

# Phases covering 40 of 100 us of an update.apply: unattributed time.
cat > "$WORK/gap.trace.json" << 'EOF'
{"traceEvents":[
{"name":"update.apply","ph":"X","pid":1,"tid":1,"ts":100,"dur":100},
{"name":"update.roles","ph":"X","pid":1,"tid":1,"ts":110,"dur":40}
]}
EOF
if "$REPORT_CHECK" "$WORK/gap.trace.json" 2> /dev/null; then
  echo "FAIL: under-covered update.apply accepted" >&2
  exit 1
fi

echo "update trace attribution OK"
