// Regenerates Figure 6 of the paper: the distribution of labeled network
// motifs over motif sizes, on the BIND-scale synthetic interactome.
//
// The paper mines 1367 unlabeled motifs (sizes up to 20, frequency >= 100,
// uniqueness > 0.95) from the 4141-protein / 7095-edge yeast network and
// extracts 3842 labeled motifs with sigma = 10, with the mass of the
// distribution at meso-scale.
//
// By default this harness runs a scaled-down instance so the whole bench
// directory executes in minutes; pass --full for the BIND-scale run.
//
//   bench_fig6_motif_distribution [--full] [--proteins N] [--max-size K]
//                                 [--csv PATH]
#include <cstring>
#include <iostream>
#include <map>

#include "core/lamofinder.h"
#include "motif/esu_finder.h"
#include "synth/dataset.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace lamo;
  bool full = false;
  size_t num_proteins = 1500;
  size_t max_size = 6;
  const char* csv_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--proteins") == 0 && i + 1 < argc) {
      num_proteins = std::strtoull(argv[i + 1], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--max-size") == 0 && i + 1 < argc) {
      max_size = std::strtoull(argv[i + 1], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[i + 1];
    }
  }
  if (full) {
    num_proteins = 4141;
    max_size = 7;  // sizes beyond this dominate runtime at BIND scale
  }

  std::cout << "=== Figure 6: labeled network motif distribution ("
            << (full ? "BIND-scale" : "scaled-down") << ") ===\n\n";

  SyntheticDatasetConfig config = BindScaleConfig();
  config.num_proteins = num_proteins;
  const size_t min_frequency = full ? 100 : 40;
  config.copies_per_template = min_frequency + 30;
  config.num_templates = 8;
  config.template_min_size = 3;
  config.template_max_size = std::min<size_t>(max_size, 6);
  config.informative_threshold =
      std::max<size_t>(5, num_proteins * 30 / 4141);
  Timer timer;
  const SyntheticDataset dataset = BuildSyntheticDataset(config);
  std::cout << "interactome: " << dataset.ppi.ToString() << " (paper: 4141 "
            << "vertices, 7095 edges)\n";
  std::cout << "annotated: " << dataset.annotations.CountAnnotated() << " / "
            << num_proteins << " proteins (paper: 3554 / 4141)\n\n";

  MotifFindingConfig motif_config;
  motif_config.min_size = 3;
  motif_config.max_size = max_size;
  motif_config.min_frequency = min_frequency;
  motif_config.max_occurrences_per_pattern = 20000;
  motif_config.num_random_networks = 10;
  motif_config.uniqueness_threshold = 0.95;
  const auto motifs = FindNetworkMotifs(dataset.ppi, motif_config);
  std::cout << "network motifs (freq >= " << min_frequency
            << ", uniq > 0.95): " << motifs.size()
            << "  (paper: 1367, sizes up to 20)   [" << timer.ElapsedSeconds()
            << "s]\n";

  LaMoFinder finder(dataset.ontology, dataset.weights, dataset.informative,
                    dataset.annotations);
  LaMoFinderConfig label_config;
  label_config.sigma = 10;
  label_config.max_occurrences = 250;
  const auto labeled = finder.LabelAll(motifs, label_config);
  std::cout << "labeled network motifs (sigma = 10): " << labeled.size()
            << "  (paper: 3842)   [" << timer.ElapsedSeconds() << "s]\n\n";

  std::map<size_t, size_t> unlabeled_by_size;
  for (const auto& m : motifs) ++unlabeled_by_size[m.size()];
  std::map<size_t, size_t> labeled_by_size;
  for (const auto& lm : labeled) ++labeled_by_size[lm.size()];

  TablePrinter table({"motif size", "network motifs", "labeled motifs",
                      "share of labeled"});
  for (size_t size = 3; size <= max_size; ++size) {
    const size_t unlabeled_count =
        unlabeled_by_size.count(size) ? unlabeled_by_size[size] : 0;
    const size_t labeled_count =
        labeled_by_size.count(size) ? labeled_by_size[size] : 0;
    char share[32];
    std::snprintf(share, sizeof(share), "%.1f%%",
                  labeled.empty() ? 0.0
                                  : 100.0 * static_cast<double>(labeled_count) /
                                        static_cast<double>(labeled.size()));
    table.AddRow({std::to_string(size), std::to_string(unlabeled_count),
                  std::to_string(labeled_count), share});
  }
  table.Print(std::cout);

  if (csv_path != nullptr) {
    CsvWriter csv(csv_path);
    csv.WriteRow({"size", "network_motifs", "labeled_motifs"});
    for (size_t size = 3; size <= max_size; ++size) {
      csv.WriteRow({std::to_string(size),
                    std::to_string(unlabeled_by_size.count(size)
                                       ? unlabeled_by_size[size]
                                       : 0),
                    std::to_string(labeled_by_size.count(size)
                                       ? labeled_by_size[size]
                                       : 0)});
    }
    std::cout << "\nhistogram written to " << csv_path << "\n";
  }

  std::cout << "\nExpected shape (paper): multiple labeled motifs per "
               "unlabeled motif (3842 from 1367), with the distribution's "
               "mass above the smallest sizes. Our mining ceiling is "
            << max_size << " (paper: 20), so the histogram is truncated "
            << "accordingly; the per-size expansion factor is the "
            << "scale-free readout.\n";
  return 0;
}
