// Network motif mining demo: exhaustive ESU enumeration against the RAND-ESU
// sampling estimator on one network, then Tasks 1-2 of the paper (repeated
// and unique subgraphs) through the motif-finding route.
//
// Usage: mine_motifs [--proteins N] [--size K]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "graph/generators.h"
#include "motif/esu.h"
#include "motif/esu_finder.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace lamo;
  size_t num_proteins = 600;
  size_t k = 4;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--proteins") == 0) {
      num_proteins = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--size") == 0) {
      k = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  Rng rng(7);
  const Graph g = DuplicationDivergence(num_proteins, 0.3, 0.15, rng);
  std::printf("network: %s\n\n", g.ToString().c_str());

  // 1. Exhaustive ESU: ground-truth class counts.
  Timer timer;
  const auto exact = CountSubgraphClasses(g, k);
  size_t exact_total = 0;
  for (const auto& [code, count] : exact) exact_total += count;
  std::printf("ESU: %zu size-%zu classes, %zu connected sets  [%.2fs]\n",
              exact.size(), k, exact_total, timer.ElapsedSeconds());

  // 2. RAND-ESU: the same enumeration tree with the two deepest levels
  // sampled; each sample is weighted by 1 / P(sampled).
  timer.Reset();
  Rng sample_rng(11);
  std::vector<double> probabilities(k, 1.0);
  probabilities[k - 1] = 0.3;
  probabilities[k - 2] = 0.5;
  const auto sampled = SampleSubgraphClasses(g, k, probabilities, sample_rng);
  std::printf(
      "RAND-ESU: %zu sets sampled, estimated total %.0f (exact %zu)  "
      "[%.2fs]\n",
      sampled.samples, sampled.estimated_total, exact_total,
      timer.ElapsedSeconds());
  size_t class_index = 0;
  for (const auto& [code, count] : exact) {
    const auto it = sampled.estimated_counts.find(code);
    const double estimate =
        it == sampled.estimated_counts.end() ? 0.0 : it->second;
    std::printf("  class %2zu  exact %8zu  estimated %10.0f\n", class_index++,
                count, estimate);
  }

  // 3. Repeated (frequency >= 20) and unique (against 10 rewired networks)
  // size-k classes: the network motifs the labeling stage consumes.
  timer.Reset();
  MotifFindingConfig config;
  config.min_size = k;
  config.max_size = k;
  config.min_frequency = 20;
  config.num_random_networks = 10;
  config.uniqueness_threshold = -1;  // report every frequent class
  const auto motifs = FindNetworkMotifs(g, config);
  std::printf("\n%zu classes with frequency >= 20, uniqueness against 10 "
              "rewired networks:\n",
              motifs.size());
  for (const Motif& m : motifs) {
    const auto it = exact.find(m.code);
    std::printf("  %-40s  esu=%zu  uniqueness %.2f  %s\n",
                m.ToString().c_str(), it == exact.end() ? 0 : it->second,
                m.uniqueness, m.uniqueness > 0.95 ? "MOTIF" : "");
  }
  std::printf("[%.2fs]\n", timer.ElapsedSeconds());
  return 0;
}
