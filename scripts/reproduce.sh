#!/bin/sh
# Rebuilds the library and regenerates every table and figure of the paper
# (plus the ablations and the future-work extension), leaving outputs in
# reproduction_output/.
set -e
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

OUT=reproduction_output
mkdir -p "$OUT"
for bench in build/bench/*; do
  name="$(basename "$bench")"
  echo "== $name =="
  case "$name" in
    bench_micro|bench_scaling)
      # google-benchmark harnesses also emit machine-readable JSON (the
      # thread-sweep benchmarks tag each measurement with a "threads"
      # counter) so later PRs can track parallel speedup over time.
      "$bench" --benchmark_out="$OUT/$name.json" \
        --benchmark_out_format=json | tee "$OUT/$name.txt"
      ;;
    bench_update)
      # Dynamic-interactome perf gate: one incremental UpdateEngine::Apply
      # must beat a full re-mine+relabel+repack by 460x (half the lowest
      # measured ratio on the in-place update path: 928x-2433x over three
      # runs);
      # BENCH_update.json archives the measured ratio so the incremental
      # path is tracked across PRs like the mining and routing throughput
      # numbers.
      "$bench" --json "$OUT/BENCH_update.json" --min-speedup 460 \
        | tee "$OUT/$name.txt"
      ;;
    bench_fig9_precision_recall)
      # Also archives the registered-backend comparison (LabeledMotif vs
      # GDS vs RoleSimilarity leave-one-out P/R, the same backends `lamo
      # serve --predictor` offers) as BENCH_predictors.json.
      "$bench" --json "$OUT/BENCH_predictors.json" | tee "$OUT/$name.txt"
      ;;
    *)
      "$bench" | tee "$OUT/$name.txt"
      ;;
  esac
done

# Mining perf-regression gate: archive the ESU thread sweep on its own
# (BENCH_mine.json) with the headline esu.subgraphs/sec rate, the shared
# canonicalization-table hit rate and the p99 chunk time, so the enumeration
# engine's throughput is tracked across PRs exactly like the serving and
# routing benchmarks (EXPERIMENTS.md records the baseline).
echo "== mining perf gate (BENCH_mine.json) =="
build/bench/bench_scaling \
  --benchmark_filter=BM_EsuEnumerationThreads \
  --benchmark_out="$OUT/BENCH_mine.json" --benchmark_out_format=json \
  | tee "$OUT/mine_bench.txt"

# Observability artifacts: run the ESU pipeline with --report/--stats over
# a pinned synthetic dataset, validate the JSON against the documented
# schema, and keep both documents with the other outputs so instrumentation
# (phase times, counter totals, per-worker load) can be tracked across PRs.
echo "== run reports (lamo mine/label --report) =="
build/tools/lamo generate --proteins 500 --copies 40 --seed 11 \
  --out "$OUT/obs_ds" > /dev/null
build/tools/lamo mine --graph "$OUT/obs_ds.graph.txt" --algo esu \
  --min-size 3 --max-size 4 --min-freq 20 --networks 5 --uniqueness 0.8 \
  --report "$OUT/mine_report.json" --stats \
  --trace "$OUT/mine_trace.json" \
  --out "$OUT/obs_motifs.txt" > /dev/null 2> "$OUT/mine_stats.txt"
build/tools/lamo_report_check "$OUT/mine_report.json" \
  esu.subgraphs esu.canon_shared_lookups parallel.chunks \
  uniqueness.replicates hist:esu.chunk_us hist:uniqueness.replicate_us
build/tools/lamo label --graph "$OUT/obs_ds.graph.txt" \
  --obo "$OUT/obs_ds.obo" --annotations "$OUT/obs_ds.annotations.tsv" \
  --motifs "$OUT/obs_motifs.txt" --sigma 6 \
  --report "$OUT/label_report.json" --stats \
  --trace "$OUT/label_trace.json" \
  --out "$OUT/obs_labeled.txt" > /dev/null 2> "$OUT/label_stats.txt"
build/tools/lamo_report_check "$OUT/label_report.json" \
  hist:lamofinder.so_cell_us

# Span-trace artifacts: the Chrome traces archived above load directly in
# chrome://tracing or ui.perfetto.dev; keep their terminal digests next to
# them so span coverage can be compared across PRs without a browser.
echo "== span traces (lamo mine/label --trace) =="
build/tools/lamo_trace_summary "$OUT/mine_trace.json" \
  | tee "$OUT/mine_trace_summary.txt"
build/tools/lamo_trace_summary "$OUT/label_trace.json" \
  | tee "$OUT/label_trace_summary.txt"

# Serving artifacts: pack the obs dataset into a snapshot, serve it over
# TCP, load-test with 4 concurrent connections and archive the throughput +
# p50/p99 numbers (BENCH_serve.json) plus the daemon's own run report, with
# the serve.* counter/histogram invariants validated by lamo_report_check.
echo "== serving (lamo pack/serve + bench client) =="
build/tools/lamo pack --graph "$OUT/obs_ds.graph.txt" \
  --obo "$OUT/obs_ds.obo" --annotations "$OUT/obs_ds.annotations.tsv" \
  --labeled "$OUT/obs_labeled.txt" --out "$OUT/obs_model.lamosnap" \
  | tee "$OUT/pack.txt"
build/tools/lamo serve --snapshot "$OUT/obs_model.lamosnap" --port 0 \
  --report "$OUT/serve_report.json" \
  --access-log "$OUT/serve_access.jsonl" --access-sample 5 --slow-ms 50 \
  > "$OUT/serve.log" 2>&1 &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$OUT/serve.log")"
  [ -n "$PORT" ] && break
  sleep 0.1
done
test -n "$PORT"
build/tools/lamo_bench_client --port "$PORT" --connections 4 \
  --requests 100 --out "$OUT/BENCH_serve.json" | tee "$OUT/serve_bench.txt"
# Archive a live METRICS scrape (Prometheus text exposition) and validate it
# against the documented grammar; after shutdown the scraped totals must sit
# within the final --report counters.
build/tools/lamo_bench_client --port "$PORT" --query METRICS \
  > "$OUT/serve_metrics.txt"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
build/tools/lamo_metrics_check "$OUT/serve_metrics.txt" \
  --report "$OUT/serve_report.json"
build/tools/lamo_report_check "$OUT/serve_report.json" serve.requests \
  serve.connections serve.access_logged hist:serve.request_us

# Cluster routing artifacts: shard the snapshot, then bench the SAME
# workload against 1, 2 and 4 sharded backends behind `lamo router` —
# BENCH_router.json archives the throughput scaling curve, and the router's
# own run report is validated against the router.* invariants
# (backend request sums == proxied, retries <= requests).
echo "== cluster routing (lamo router + bench client scaling) =="
build/tools/lamo pack --graph "$OUT/obs_ds.graph.txt" \
  --obo "$OUT/obs_ds.obo" --annotations "$OUT/obs_ds.annotations.tsv" \
  --labeled "$OUT/obs_labeled.txt" --out "$OUT/obs_model.lamosnap" \
  --shards 2 > /dev/null
build/tools/lamo pack --graph "$OUT/obs_ds.graph.txt" \
  --obo "$OUT/obs_ds.obo" --annotations "$OUT/obs_ds.annotations.tsv" \
  --labeled "$OUT/obs_labeled.txt" --out "$OUT/obs_model.lamosnap" \
  --shards 4 > /dev/null
PROTEINS=500
: > "$OUT/router_bench.txt"
for N in 1 2 4; do
  rm -f "$OUT/router.log"
  build/tools/lamo router --snapshot "$OUT/obs_model.lamosnap" \
    --backends "$N" --mode sharded --port 0 \
    --report "$OUT/router_report_${N}.json" \
    --access-log "$OUT/router_access_${N}.jsonl" --access-sample 5 \
    --backend-access-log "$OUT/backend_access_${N}.jsonl" --slow-ms 50 \
    > "$OUT/router.log" 2>&1 &
  ROUTER_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$OUT/router.log")"
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  test -n "$PORT"
  build/tools/lamo_bench_client --port "$PORT" --cluster \
    --proteins "$PROTEINS" --connections 4 --requests 100 \
    --name "router/sharded_x$N" --out "$OUT/BENCH_router_${N}.json" \
    | tee -a "$OUT/router_bench.txt"
  # Aggregated scrape: the router's own series plus every backend's,
  # re-exported with backend=/shard= labels.
  build/tools/lamo_bench_client --port "$PORT" --query METRICS \
    > "$OUT/router_metrics_${N}.txt"
  kill -TERM "$ROUTER_PID"
  wait "$ROUTER_PID"
  build/tools/lamo_metrics_check "$OUT/router_metrics_${N}.txt" \
    --report "$OUT/router_report_${N}.json"
  build/tools/lamo_report_check "$OUT/router_report_${N}.json" \
    router.requests router.proxied router.backend_requests \
    router.ids_issued hist:router.request_us
done
# Stitch the three scaling points into one BENCH_router.json (same shape as
# the per-run files: one context, benchmarks array ordered 1 -> 2 -> 4).
python3 - "$OUT" << 'PYEOF'
import json, sys
d = sys.argv[1]
merged = None
for n in (1, 2, 4):
    with open(f"{d}/BENCH_router_{n}.json") as f:
        run = json.load(f)
    if merged is None:
        merged = run
    else:
        merged["benchmarks"].extend(run["benchmarks"])
with open(f"{d}/BENCH_router.json", "w") as f:
    json.dump(merged, f, indent=1)
PYEOF

# ThreadSanitizer smoke run of the parallel runtime, the tracer and the
# serving stack: rebuilds those tests under -fsanitize=thread and fails on
# any reported race (serve_tests hammers the sharded cache and the stream
# server from multiple threads, plus the live-update writer applying
# ADDEDGE/DELEDGE against concurrent PREDICT readers in update_test; router_tests exercises the monitor/reload
# threads against live backend processes; motif_tests drives the shared
# canonicalization table — lock-free CAS inserts on the dense path, mutex
# shards past k=6 — from concurrent enumeration chunks, and runs the
# pair-kernel differential (PairKernelDifferentialTest, pair_kernel_test.cc:
# the engine's pair-anchored policy vs the copying oracle walk); obs_tests hammers
# the metric-window ring with concurrent observers vs METRICS scrapes;
# predict_tests runs the per-vertex parallel GDS orbit counter, whose
# relaxed-atomic signature cells TSan must see as race-free).
echo "== tsan smoke (parallel runtime + tracer + serve + router + motif" \
  "+ predict) =="
cmake -B build-tsan -G Ninja -DLAMO_SANITIZE=thread
cmake --build build-tsan --target parallel_tests obs_tests serve_tests \
  router_tests motif_tests predict_tests
LAMO_THREADS=4 ./build-tsan/tests/parallel_tests
LAMO_THREADS=4 ./build-tsan/tests/obs_tests
LAMO_THREADS=4 ./build-tsan/tests/serve_tests
LAMO_THREADS=4 ./build-tsan/tests/router_tests
LAMO_THREADS=4 ./build-tsan/tests/motif_tests
LAMO_THREADS=4 ./build-tsan/tests/predict_tests

# AddressSanitizer smoke run alongside it: the motif + obs tests cover the
# enumeration hot paths (the pair-kernel differential included: the flat
# extension stack and per-depth forbidden rows of the pair-anchored policy
# are the overread-prone state) and the metrics layer's thread-local blocks,
# graph_tests runs the GraphIndex property battery (bitset kernels, CSR
# round trips), serve_tests replays the snapshot corruption matrix and the
# incremental-update differential (update_test's in-place occurrence/site
# patches are the overwrite-prone path) under ASan, and io_tests runs the parser fuzz matrix (every reader x 500
# deterministic mutations) plus the GraphIndex build fuzz (500 mutated edge
# lists through ReadEdgeList -> index build -> Validate) where ASan turns
# silent overreads into hard failures; predict_tests runs the GDS
# brute-force differential, where the orbit lookup tables and the ESU
# extension buffers are the overread-prone hot path.
echo "== asan smoke (motif + graph + obs + serve + router + predict" \
  "+ fuzz) =="
cmake -B build-asan -G Ninja -DLAMO_SANITIZE=address
cmake --build build-asan --target motif_tests graph_tests obs_tests \
  serve_tests io_tests router_tests predict_tests
LAMO_THREADS=4 ./build-asan/tests/motif_tests
LAMO_THREADS=4 ./build-asan/tests/graph_tests
LAMO_THREADS=4 ./build-asan/tests/obs_tests
LAMO_THREADS=4 ./build-asan/tests/serve_tests
LAMO_THREADS=4 ./build-asan/tests/io_tests
LAMO_THREADS=4 ./build-asan/tests/router_tests
LAMO_THREADS=4 ./build-asan/tests/predict_tests

# Fault-injection smoke: crash the level-wise miner mid-run with LAMO_FAULT,
# resume from the checkpoint, and require byte-identical output — the full
# crash matrix over every registered fault point runs in ctest
# (`ctest -L fault`), this is the one-command sanity check.
echo "== fault smoke (crash + resume, byte-identical) =="
rm -rf "$OUT/fault_ck"
rc=0
LAMO_FAULT="mine.level:2" build/tools/lamo mine \
  --graph "$OUT/obs_ds.graph.txt" --min-size 3 --max-size 4 --min-freq 20 \
  --checkpoint "$OUT/fault_ck" --out "$OUT/fault_motifs.txt" \
  > /dev/null 2>&1 || rc=$?
test "$rc" -eq 42  # the injected crash, not an ordinary failure
build/tools/lamo mine \
  --graph "$OUT/obs_ds.graph.txt" --min-size 3 --max-size 4 --min-freq 20 \
  --checkpoint "$OUT/fault_ck" --resume --out "$OUT/fault_motifs.txt" \
  > /dev/null
build/tools/lamo mine \
  --graph "$OUT/obs_ds.graph.txt" --min-size 3 --max-size 4 --min-freq 20 \
  --out "$OUT/fault_baseline.txt" > /dev/null
cmp "$OUT/fault_motifs.txt" "$OUT/fault_baseline.txt"
echo "crash/resume reproduced the uninterrupted run byte-for-byte"

echo "All outputs in $OUT/; compare against EXPERIMENTS.md."
