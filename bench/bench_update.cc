// Dynamic-interactome perf gate: a single live edge update through
// UpdateEngine::Apply (pair-anchored re-enumeration + in-place patches)
// must beat rebuilding the snapshot from scratch (full ESU re-mine +
// relabel + repack, which is what serving would otherwise have to do for
// every mutation) by a wide margin — the whole point of maintaining motifs
// incrementally.
//
//   bench_update [--proteins N] [--updates N] [--json PATH]
//                [--min-speedup X]
//
// The update workload alternates DELEDGE/ADDEDGE over existing edges, so
// the snapshot ends exactly where it started and every apply is a real
// mutation (never a rejected no-op). --json writes the measurements as one
// JSON document; scripts/reproduce.sh archives it as BENCH_update.json
// with --min-speedup 460, turning the incremental-vs-remine ratio into a
// hard regression gate.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "core/lamofinder.h"
#include "motif/esu_finder.h"
#include "serve/snapshot.h"
#include "serve/update.h"
#include "synth/dataset.h"

int main(int argc, char** argv) {
  using namespace lamo;
  using Clock = std::chrono::steady_clock;
  size_t num_proteins = 300;
  size_t num_updates = 20;
  const char* json_path = nullptr;
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--proteins") == 0 && i + 1 < argc) {
      num_proteins = std::strtoull(argv[i + 1], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--updates") == 0 && i + 1 < argc) {
      num_updates = std::strtoull(argv[i + 1], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::strtod(argv[i + 1], nullptr);
    }
  }

  SyntheticDatasetConfig config;
  config.num_proteins = num_proteins;
  config.copies_per_template = num_proteins / 10;
  config.seed = 5;
  SyntheticDataset dataset = BuildSyntheticDataset(config);
  const Graph graph = dataset.ppi;  // kept: BuildSnapshot moves the original

  std::printf("=== live update vs full re-mine (%zu proteins, %zu edges, "
              "%zu updates) ===\n\n",
              graph.num_vertices(), graph.num_edges(), num_updates);

  // The re-mine baseline: the batch pipeline a server without incremental
  // maintenance would re-run per mutation. Timed once; its output also
  // seeds the snapshot the updates run against.
  const auto remine_start = Clock::now();
  MotifFindingConfig motif_config;
  motif_config.min_size = 3;
  motif_config.max_size = 4;
  motif_config.min_frequency = 15;
  motif_config.num_random_networks = 4;
  motif_config.uniqueness_threshold = 0.8;
  const auto motifs = FindNetworkMotifs(dataset.ppi, motif_config);
  LaMoFinder finder(dataset.ontology, dataset.weights, dataset.informative,
                    dataset.annotations);
  LaMoFinderConfig label_config;
  label_config.sigma = 6;
  auto labeled = finder.LabelAll(motifs, label_config);
  InformativeConfig informative_config;
  informative_config.min_direct_proteins = config.informative_threshold;
  Snapshot snapshot = BuildSnapshot(
      std::move(dataset.ppi), std::move(dataset.ontology),
      std::move(dataset.annotations), std::move(labeled),
      informative_config);
  const double remine_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - remine_start)
          .count();

  // Alternate delete/re-add over spread-out existing edges: every apply
  // does real pair-anchored work and the final state equals the initial
  // one, so repeated runs measure the same graph.
  const auto edges = graph.Edges();
  if (edges.empty()) {
    std::fprintf(stderr, "no edges to mutate\n");
    return 1;
  }
  UpdateEngine engine(&snapshot);
  const size_t stride = edges.size() / (num_updates / 2 + 1) + 1;
  double total_update_ms = 0.0;
  size_t applied = 0;
  size_t resubgraphs = 0;
  for (size_t i = 0; applied < num_updates; ++i) {
    const auto [u, v] = edges[(i / 2) * stride % edges.size()];
    const bool add = (i % 2) == 1;  // delete first, then restore
    UpdateResult result;
    const auto start = Clock::now();
    const Status status = engine.Apply(add, u, v, &result);
    if (!status.ok()) {
      std::fprintf(stderr, "apply %s %u %u failed: %s\n",
                   add ? "ADDEDGE" : "DELEDGE", u, v,
                   status.message().c_str());
      return 1;
    }
    total_update_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    ++applied;
    resubgraphs += result.resubgraphs;
  }
  const double mean_update_ms = total_update_ms / static_cast<double>(applied);
  const double speedup =
      mean_update_ms > 0.0 ? remine_ms / mean_update_ms : 0.0;

  std::printf("full re-mine (mine+label+pack):  %10.1f ms\n", remine_ms);
  std::printf("mean incremental apply:          %10.3f ms  "
              "(%zu updates, %zu re-enumerated subgraphs)\n",
              mean_update_ms, applied, resubgraphs);
  std::printf("speedup:                         %10.1fx\n\n", speedup);

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"name\": \"update/incremental_vs_remine\",\n"
                 "  \"proteins\": %zu,\n"
                 "  \"edges\": %zu,\n"
                 "  \"updates\": %zu,\n"
                 "  \"resubgraphs\": %zu,\n"
                 "  \"remine_ms\": %.3f,\n"
                 "  \"mean_update_ms\": %.4f,\n"
                 "  \"speedup\": %.2f,\n"
                 "  \"min_speedup\": %.2f\n"
                 "}\n",
                 graph.num_vertices(), graph.num_edges(), applied,
                 resubgraphs, remine_ms, mean_update_ms, speedup,
                 min_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: incremental update speedup %.1fx is below the "
                 "required %.1fx gate\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
