#ifndef LAMO_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define LAMO_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <utility>

#include "core/lamofinder.h"
#include "motif/esu_finder.h"
#include "serve/snapshot.h"
#include "synth/dataset.h"

namespace lamo {

/// One small synthetic pipeline run (dataset -> mined motifs -> labeled
/// motifs) packed into a Snapshot. Built once per process and shared by the
/// serve tests; copy it before mutating or handing ownership to a service.
inline const Snapshot& TestSnapshot() {
  static const Snapshot* const snapshot = [] {
    SyntheticDatasetConfig config;
    config.num_proteins = 300;
    config.go.num_terms = 70;
    config.go.depth = 5;
    config.num_templates = 3;
    config.copies_per_template = 30;
    config.template_min_size = 3;
    config.template_max_size = 4;
    config.informative_threshold = 10;
    config.seed = 4242;
    SyntheticDataset dataset = BuildSyntheticDataset(config);

    MotifFindingConfig motif_config;
    motif_config.min_size = 3;
    motif_config.max_size = 4;
    motif_config.min_frequency = 20;
    motif_config.num_random_networks = 3;
    motif_config.uniqueness_threshold = 0.0;  // keep all frequent patterns
    const auto motifs = FindNetworkMotifs(dataset.ppi, motif_config);

    LaMoFinder finder(dataset.ontology, dataset.weights, dataset.informative,
                      dataset.annotations);
    LaMoFinderConfig label_config;
    label_config.sigma = 8;
    label_config.max_occurrences = 150;
    auto labeled = finder.LabelAll(motifs, label_config);

    InformativeConfig informative_config;
    informative_config.min_direct_proteins = config.informative_threshold;
    return new Snapshot(BuildSnapshot(
        std::move(dataset.ppi), std::move(dataset.ontology),
        std::move(dataset.annotations), std::move(labeled),
        informative_config));
  }();
  return *snapshot;
}

}  // namespace lamo

#endif  // LAMO_TESTS_SERVE_SERVE_TEST_UTIL_H_
