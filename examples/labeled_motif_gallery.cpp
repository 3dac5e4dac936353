// The Figure-7 gallery: labels motifs in all three GO branches (function,
// process, cellular component) over one interactome, then prints
//   g1-style  uni-labeled motifs (functional homogeneity),
//   g2-style  non-uni-labeled motifs (distinct but related labels), and
//   g3-style  parallel-labeled motifs (function + location on the same
//             occurrences).
//
// Usage: labeled_motif_gallery [--proteins N]
#include <cstdio>
#include <cstring>

#include "core/lamofinder.h"
#include "core/parallel_labels.h"
#include "motif/esu_finder.h"
#include "synth/multi_branch.h"

namespace {

using namespace lamo;

// A scheme is "uni-labeled" when every vertex carries the same label set.
bool IsUniLabeled(const LabelProfile& scheme) {
  for (size_t i = 1; i < scheme.size(); ++i) {
    if (scheme[i] != scheme[0]) return false;
  }
  return !scheme.empty() && !scheme[0].empty();
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_proteins = 700;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--proteins") == 0) {
      num_proteins = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  MultiBranchConfig config;
  config.base = MipsScaleConfig();
  config.base.num_proteins = num_proteins;
  config.base.copies_per_template = 35;
  config.base.template_min_size = 4;
  config.base.template_max_size = 5;
  config.base.informative_threshold = std::max<size_t>(5, num_proteins / 100);
  const MultiBranchDataset dataset = BuildMultiBranchDataset(config);
  std::printf("interactome: %s, annotated in 3 GO branches\n",
              dataset.ppi.ToString().c_str());

  MotifFindingConfig motif_config;
  motif_config.min_size = 4;
  motif_config.max_size = 5;
  motif_config.min_frequency = 25;
  motif_config.num_random_networks = 8;
  motif_config.uniqueness_threshold = 0.95;
  const auto motifs = FindNetworkMotifs(dataset.ppi, motif_config);
  std::printf("network motifs: %zu\n\n", motifs.size());

  // Label per branch, as the paper does ("We call LaMoFinder 3 times").
  std::array<std::vector<LabeledMotif>, 3> per_branch;
  LaMoFinderConfig label_config;
  label_config.sigma = 8;
  label_config.max_occurrences = 150;
  for (size_t b = 0; b < 3; ++b) {
    const BranchData& branch = dataset.branches[b];
    LaMoFinder finder(branch.ontology, branch.weights, branch.informative,
                      branch.annotations);
    per_branch[b] = finder.LabelAll(motifs, label_config);
    std::printf("%-18s: %zu labeled motifs\n",
                GoBranchName(branch.branch), per_branch[b].size());
  }

  // g1: uni-labeled motifs.
  std::printf("\n--- g1-style (uni-labeled, functional homogeneity) ---\n");
  size_t shown = 0;
  for (const LabeledMotif& lm : per_branch[0]) {
    if (!IsUniLabeled(lm.scheme) || shown >= 3) continue;
    ++shown;
    std::printf("  size %zu, freq %zu: %s\n", lm.size(), lm.frequency,
                lm.SchemeToString(dataset.branches[0].ontology).c_str());
  }
  if (shown == 0) std::printf("  (none at this scale)\n");

  // g2: non-uni-labeled motifs.
  std::printf("\n--- g2-style (distinct but related labels) ---\n");
  shown = 0;
  for (const LabeledMotif& lm : per_branch[0]) {
    if (IsUniLabeled(lm.scheme) || shown >= 3) continue;
    bool all_labeled = true;
    for (const LabelSet& labels : lm.scheme) {
      if (labels.empty()) all_labeled = false;
    }
    if (!all_labeled) continue;
    ++shown;
    std::printf("  size %zu, freq %zu: %s\n", lm.size(), lm.frequency,
                lm.SchemeToString(dataset.branches[0].ontology).c_str());
  }
  if (shown == 0) std::printf("  (none at this scale)\n");

  // g3: parallel function + location labels.
  std::printf("\n--- g3-style (parallel labels across branches) ---\n");
  const auto parallel = CombineBranchLabels(per_branch, 8);
  shown = 0;
  for (const ParallelLabeledMotif& pm : parallel) {
    if (shown >= 3) break;
    ++shown;
    std::printf("  size %zu, %zu branches, freq %zu:\n",
                pm.pattern.num_vertices(), pm.num_branches(), pm.frequency);
    for (size_t b = 0; b < 3; ++b) {
      if (!pm.schemes[b].has_value()) continue;
      const Ontology& onto = dataset.branches[b].ontology;
      std::printf("    %-18s [", GoBranchName(static_cast<GoBranch>(b)));
      for (size_t pos = 0; pos < pm.schemes[b]->size(); ++pos) {
        std::printf("%s%s", pos ? ", " : "",
                    LabelSetToString(onto, (*pm.schemes[b])[pos]).c_str());
      }
      std::printf("]\n");
    }
  }
  std::printf("\nparallel-labeled motifs total: %zu\n", parallel.size());
  return 0;
}
