#!/bin/sh
# Live-update contract, end to end: pack a snapshot, then prove the three
# roads to the same dynamic interactome are byte-identical — (1) a live
# server applying ADDEDGE/DELEDGE with a write-ahead --journal, (2) an
# offline `pack --apply-deltas` repack, and (3) a restarted server replaying
# that journal. Then the operational drills: a DELEDGE through a cached TCP
# server must invalidate stale PREDICT answers, PREDICT_EDGE must score the
# removed edge (and reject an existing one), the final --report must pass
# the update.* invariants in lamo_report_check, the router must fan
# mutations out to every backend while routing PREDICT_EDGE like PREDICT,
# and --watch-deltas must pick a mutation up from a tailed file.
set -e
LAMO="$1"
BENCH="$2"
REPORT_CHECK="$3"
WORK="$(mktemp -d)"
SERVER=""
SERVER2=""
ROUTER=""
cleanup() {
  [ -n "$SERVER" ] && kill "$SERVER" 2> /dev/null
  [ -n "$SERVER2" ] && kill "$SERVER2" 2> /dev/null
  [ -n "$ROUTER" ] && kill "$ROUTER" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

"$LAMO" generate --proteins 300 --copies 30 --seed 5 --out "$WORK/ds" \
  > /dev/null
"$LAMO" mine --graph "$WORK/ds.graph.txt" --min-size 3 \
  --max-size 3 --min-freq 15 --networks 4 --uniqueness 0.8 \
  --out "$WORK/motifs.txt" > /dev/null
"$LAMO" label --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --motifs "$WORK/motifs.txt" \
  --sigma 6 --out "$WORK/labeled.txt" > /dev/null
"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --out "$WORK/model.lamosnap" --shards 2 > /dev/null

# Two distinct edges from the edge list (line 1 is a comment, line 2 the
# vertex count). E1 is deleted and re-added (net no-op); E2 stays deleted,
# so the updated state differs from the base snapshot by exactly one edge.
E1="$(sed -n '3p' "$WORK/ds.graph.txt")"
E2="$(sed -n '20p' "$WORK/ds.graph.txt")"
E1U="${E1%% *}"; E1V="${E1##* }"
E2U="${E2%% *}"; E2V="${E2##* }"
test "$E1" != "$E2" || { echo "FAIL: edge sample collided" >&2; exit 1; }

cat > "$WORK/deltas.txt" << EOF
# exercise both verbs; net effect: base graph minus edge $E2
DELEDGE $E1U $E1V
ADDEDGE $E1U $E1V
DELEDGE $E2U $E2V
EOF
cat > "$WORK/queries.txt" << EOF
PREDICT $E2U 3
PREDICT $E2V 3
MOTIFS $E2U
MOTIFS $E1U
PREDICT_EDGE $E2U $E2V
TERMINFO T0005
EOF

# --- Part 1: live == repack == replay, byte for byte. --------------------
# Live: mutations then queries through one --stdin server with a journal.
# Each mutation answers with a 2-line OK response; drop all 6.
grep -v '^#' "$WORK/deltas.txt" | cat - "$WORK/queries.txt" \
  | "$LAMO" serve --snapshot "$WORK/model.lamosnap" --stdin \
    --journal "$WORK/journal" > "$WORK/live_all.out" 2> /dev/null
head -6 "$WORK/live_all.out" | grep -q "applied DELEDGE $E2U $E2V" || {
  echo "FAIL: live server did not acknowledge DELEDGE" >&2
  head -6 "$WORK/live_all.out" >&2
  exit 1
}
head -6 "$WORK/live_all.out" | grep -q "applied ADDEDGE $E1U $E1V" || {
  echo "FAIL: live server did not acknowledge ADDEDGE" >&2
  exit 1
}
sed '1,6d' "$WORK/live_all.out" > "$WORK/live.out"

# Repack: the same deltas folded in offline, comments and all.
"$LAMO" pack --graph "$WORK/ds.graph.txt" --obo "$WORK/ds.obo" \
  --annotations "$WORK/ds.annotations.tsv" --labeled "$WORK/labeled.txt" \
  --apply-deltas "$WORK/deltas.txt" --out "$WORK/updated.lamosnap" \
  --shards 2 > "$WORK/pack_deltas.out"
grep -q "applied 3 deltas" "$WORK/pack_deltas.out" || {
  echo "FAIL: pack --apply-deltas did not report 3 applied deltas" >&2
  cat "$WORK/pack_deltas.out" >&2
  exit 1
}
"$LAMO" serve --snapshot "$WORK/updated.lamosnap" --stdin \
  < "$WORK/queries.txt" > "$WORK/repack.out" 2> /dev/null
cmp "$WORK/live.out" "$WORK/repack.out" || {
  echo "FAIL: live-updated server differs from pack --apply-deltas" >&2
  diff "$WORK/live.out" "$WORK/repack.out" | head >&2
  exit 1
}

# Replay: a fresh server on the BASE snapshot + the journal must converge
# to the same answers, and say how many entries it replayed.
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --stdin \
  --journal "$WORK/journal" < "$WORK/queries.txt" > "$WORK/replay.out" \
  2> "$WORK/replay.err"
cmp "$WORK/replay.out" "$WORK/repack.out" || {
  echo "FAIL: journal replay differs from pack --apply-deltas" >&2
  diff "$WORK/replay.out" "$WORK/repack.out" | head >&2
  exit 1
}
grep -q "journal .* attached (3 updates)" "$WORK/replay.err" || {
  echo "FAIL: replay banner does not show 3 replayed updates" >&2
  cat "$WORK/replay.err" >&2
  exit 1
}
# Journal layout (docs/FORMATS.md): versioned header binding the base
# snapshot checksum, then one wire-grammar line per acknowledged update.
head -1 "$WORK/journal" | grep -q '^LAMOJOURNAL 1 [0-9a-f]\{16\}$' || {
  echo "FAIL: journal header malformed: $(head -1 "$WORK/journal")" >&2
  exit 1
}
test "$(grep -c 'EDGE' "$WORK/journal")" -eq 3 || {
  echo "FAIL: journal does not hold exactly 3 entries" >&2
  cat "$WORK/journal" >&2
  exit 1
}

wait_port() {
  PORT=""
  for _ in $(seq 1 200); do
    PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$1")"
    [ -n "$PORT" ] && return 0
    sleep 0.1
  done
  echo "FAIL: no listening banner in $1" >&2
  exit 1
}

# --- Part 2: stale-cache regression + PREDICT_EDGE over TCP. -------------
# Server A serves the base snapshot with the response cache on; server B
# serves the repacked (edge-deleted) snapshot as the oracle.
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --port 0 \
  --report "$WORK/serve_report.json" > "$WORK/serve_a.log" 2>&1 &
SERVER=$!
wait_port "$WORK/serve_a.log"
APORT="$PORT"
"$LAMO" serve --snapshot "$WORK/updated.lamosnap" --port 0 \
  > "$WORK/serve_b.log" 2>&1 &
SERVER2=$!
wait_port "$WORK/serve_b.log"
BPORT="$PORT"

# Warm A's cache on the pre-delete answer, then mutate, then re-ask: the
# answer must be the post-delete one (a stale cache would replay the first).
"$BENCH" --port "$APORT" --query "PREDICT $E2U 3" > "$WORK/pre.txt"
"$BENCH" --port "$BPORT" --query "PREDICT $E2U 3" > "$WORK/post_expected.txt"
"$BENCH" --port "$APORT" --query "DELEDGE $E2U $E2V" > "$WORK/applied.txt"
grep -q "applied DELEDGE $E2U $E2V" "$WORK/applied.txt" || {
  echo "FAIL: TCP DELEDGE not acknowledged: $(cat "$WORK/applied.txt")" >&2
  exit 1
}
"$BENCH" --port "$APORT" --query "PREDICT $E2U 3" > "$WORK/post.txt"
cmp "$WORK/post.txt" "$WORK/post_expected.txt" || {
  echo "FAIL: PREDICT after DELEDGE differs from a fresh server on the" \
    "updated snapshot (stale cache?)" >&2
  diff "$WORK/post.txt" "$WORK/post_expected.txt" | head >&2
  exit 1
}

# PREDICT_EDGE scores the now-missing edge as a candidate interaction...
"$BENCH" --port "$APORT" --query "PREDICT_EDGE $E2U $E2V" > "$WORK/edge.txt"
grep -q "candidate edge $E2U $E2V score" "$WORK/edge.txt" || {
  echo "FAIL: PREDICT_EDGE payload malformed: $(cat "$WORK/edge.txt")" >&2
  exit 1
}
# ...and must reject an edge that is still present.
rc=0
"$BENCH" --port "$APORT" --query "PREDICT_EDGE $E1U $E1V" \
  > /dev/null 2>&1 || rc=$?
test "$rc" -ne 0 || {
  echo "FAIL: PREDICT_EDGE accepted an existing edge" >&2
  exit 1
}

# The update counters surface in the METRICS exposition before shutdown.
"$BENCH" --port "$APORT" --query "METRICS" > "$WORK/metrics.txt"
grep -q '^lamo_update_applied_total 1$' "$WORK/metrics.txt" || {
  echo "FAIL: METRICS lacks lamo_update_applied_total after one DELEDGE" >&2
  grep '^lamo_update' "$WORK/metrics.txt" >&2 || true
  exit 1
}

kill -TERM "$SERVER"
wait "$SERVER" || {
  echo "FAIL: server A exited nonzero after SIGTERM" >&2
  cat "$WORK/serve_a.log" >&2
  exit 1
}
SERVER=""
# The report must carry nonzero update traffic and pass the update.*
# invariants (applied == added + deleted, journal_replayed <= applied,
# resubgraphs <= esu.subgraphs) checked inside lamo_report_check.
"$REPORT_CHECK" "$WORK/serve_report.json" serve.requests update.applied \
  update.deleted update.resubgraphs hist:update.update_us > /dev/null || {
  echo "FAIL: serve report failed the update.* invariants" >&2
  exit 1
}

# --- Part 3: router fans mutations out to every backend. -----------------
"$LAMO" router --snapshot "$WORK/model.lamosnap" --backends 2 \
  --mode sharded --port 0 > "$WORK/router.log" 2> /dev/null &
ROUTER=$!
wait_port "$WORK/router.log"
RPORT="$PORT"
"$BENCH" --port "$RPORT" --query "DELEDGE $E2U $E2V" > "$WORK/fan.txt"
grep -q "applied DELEDGE $E2U $E2V backends=2" "$WORK/fan.txt" || {
  echo "FAIL: router fan-out not confirmed: $(cat "$WORK/fan.txt")" >&2
  exit 1
}
# After the fan-out every routed answer matches the single updated server.
"$BENCH" --port "$RPORT" --query "PREDICT $E2U 3" > "$WORK/router_post.txt"
cmp "$WORK/router_post.txt" "$WORK/post_expected.txt" || {
  echo "FAIL: router PREDICT after fan-out differs from updated serve" >&2
  diff "$WORK/router_post.txt" "$WORK/post_expected.txt" | head >&2
  exit 1
}
# PREDICT_EDGE routes like PREDICT and scores identically on any backend
# (each shard keeps the full graph and the global motif tables).
"$BENCH" --port "$RPORT" --query "PREDICT_EDGE $E2U $E2V" \
  > "$WORK/router_edge.txt"
cmp "$WORK/router_edge.txt" "$WORK/edge.txt" || {
  echo "FAIL: routed PREDICT_EDGE differs from single-server answer" >&2
  exit 1
}
kill "$ROUTER"
wait "$ROUTER" 2> /dev/null || true
ROUTER=""

# --- Part 4: --watch-deltas tails a file into the same update path. ------
: > "$WORK/watched.txt"
"$LAMO" serve --snapshot "$WORK/model.lamosnap" --port 0 \
  --watch-deltas "$WORK/watched.txt" --watch-interval-ms 50 \
  > "$WORK/serve_w.log" 2>&1 &
SERVER=$!
wait_port "$WORK/serve_w.log"
WPORT="$PORT"
printf '# rotated in by an external pipeline\nDELEDGE %s %s\n' \
  "$E2U" "$E2V" >> "$WORK/watched.txt"
ok=""
for _ in $(seq 1 100); do
  if grep -q "watch-deltas \"DELEDGE $E2U $E2V\": OK" "$WORK/serve_w.log"
  then
    ok=1
    break
  fi
  sleep 0.1
done
test -n "$ok" || {
  echo "FAIL: --watch-deltas never applied the appended DELEDGE" >&2
  cat "$WORK/serve_w.log" >&2
  exit 1
}
"$BENCH" --port "$WPORT" --query "PREDICT $E2U 3" > "$WORK/watch_post.txt"
cmp "$WORK/watch_post.txt" "$WORK/post_expected.txt" || {
  echo "FAIL: answer after watched delta differs from updated serve" >&2
  exit 1
}
kill "$SERVER"
wait "$SERVER" 2> /dev/null || true
SERVER=""
kill "$SERVER2"
wait "$SERVER2" 2> /dev/null || true
SERVER2=""

echo "live update OK: live == repack == replay byte-identical, stale cache" \
  "invalidated, PREDICT_EDGE scored+rejected, update.* report invariants," \
  "router fan-out x2, watch-deltas applied"
