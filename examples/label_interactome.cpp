// Labels network motifs mined from a whole synthetic interactome — the
// Section-4 pipeline of the paper (NeMoFinder-style mining, uniqueness
// testing, LaMoFinder labeling) on a scaled-down yeast-like network.
//
// Usage: label_interactome [--proteins N] [--max-size K] [--min-freq F]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "core/lamofinder.h"
#include "graph/algorithms.h"
#include "motif/esu_finder.h"
#include "synth/dataset.h"
#include "util/timer.h"

namespace {

size_t FlagValue(int argc, char** argv, const char* name, size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lamo;

  const size_t num_proteins = FlagValue(argc, argv, "--proteins", 1200);
  const size_t max_size = FlagValue(argc, argv, "--max-size", 5);
  const size_t min_freq = FlagValue(argc, argv, "--min-freq", 40);

  // 1. Synthetic yeast-like interactome with annotations (see DESIGN.md
  // section 2 for the substitution rationale).
  SyntheticDatasetConfig config = BindScaleConfig();
  config.num_proteins = num_proteins;
  config.copies_per_template = min_freq + 20;
  config.informative_threshold =
      std::max<size_t>(5, num_proteins / 140);  // scale Zhou's 30-of-4141
  Timer timer;
  const SyntheticDataset dataset = BuildSyntheticDataset(config);
  std::printf("interactome: %s, clustering coefficient %.3f\n",
              dataset.ppi.ToString().c_str(),
              GlobalClusteringCoefficient(dataset.ppi));
  std::printf("annotated proteins: %zu / %zu (mean %.2f terms each)\n",
              dataset.annotations.CountAnnotated(), num_proteins,
              dataset.annotations.MeanTermsPerAnnotatedProtein());

  // 2. Tasks 1 + 2: repeated and unique subgraphs.
  MotifFindingConfig motif_config;
  motif_config.min_size = 3;
  motif_config.max_size = max_size;
  motif_config.min_frequency = min_freq;
  motif_config.max_occurrences_per_pattern = 20000;
  motif_config.num_random_networks = 10;
  motif_config.uniqueness_threshold = 0.95;
  const auto motifs = FindNetworkMotifs(dataset.ppi, motif_config);
  std::printf("network motifs (freq >= %zu, uniq > 0.95): %zu  [%.1fs]\n",
              min_freq, motifs.size(), timer.ElapsedSeconds());

  // 3. Task 3: label them.
  LaMoFinder finder(dataset.ontology, dataset.weights, dataset.informative,
                    dataset.annotations);
  LaMoFinderConfig label_config;
  label_config.sigma = 10;
  label_config.max_occurrences = 300;
  const auto labeled = finder.LabelAll(motifs, label_config);
  std::printf("labeled network motifs (sigma = %zu): %zu  [%.1fs]\n",
              label_config.sigma, labeled.size(), timer.ElapsedSeconds());

  // 4. Distribution by size (the Figure-6 readout).
  std::map<size_t, size_t> by_size;
  for (const auto& lm : labeled) ++by_size[lm.size()];
  std::printf("\nsize  count\n");
  for (const auto& [size, count] : by_size) {
    std::printf("%4zu  %zu\n", size, count);
  }

  // 5. A small gallery of schemes (the Figure-7 readout).
  std::printf("\nsample labeled motifs:\n");
  size_t shown = 0;
  for (const auto& lm : labeled) {
    if (shown++ >= 5) break;
    std::printf("  size %zu, freq %zu, LMS %.2f: %s\n", lm.size(),
                lm.frequency, lm.strength,
                lm.SchemeToString(dataset.ontology).c_str());
  }
  return 0;
}
