#ifndef LAMO_MOTIF_ESU_FINDER_H_
#define LAMO_MOTIF_ESU_FINDER_H_

#include <vector>

#include "graph/graph.h"
#include "motif/motif.h"
#include "util/checkpoint.h"

namespace lamo {

/// Configuration of the FANMOD-style per-size motif finder.
struct EsuMotifConfig {
  /// Subgraph size (this pipeline is per-size, like FANMOD/mfinder).
  size_t size = 4;
  /// Minimum occurrences for a class to be considered repeated.
  size_t min_frequency = 5;
  /// Memory-control cap on the occurrence list of one class: each
  /// enumeration chunk stores at most the first N occurrences it emits and
  /// counts the rest, and the merged list keeps the first N in emission
  /// order. Frequency and uniqueness always use the exact count.
  /// 0 = unlimited.
  size_t max_occurrences_per_pattern = 0;
  /// Randomized networks for the uniqueness test.
  size_t num_random_networks = 10;
  /// Edge swaps per edge when randomizing.
  double swaps_per_edge = 3.0;
  /// Classes below this uniqueness are dropped. Negative keeps everything
  /// (uniqueness still reported).
  double uniqueness_threshold = 0.95;
  uint64_t seed = 42;
  /// Crash-safe progress saves: the enumeration checkpoints per root-vertex
  /// chunk group (stage "mine_enum_<size>") and the uniqueness ensemble per
  /// replicate group (stage "mine_uniq_<size>"). Resumed runs are
  /// byte-identical to uninterrupted ones.
  CheckpointOptions checkpoint;
};

/// The FANMOD/mfinder route to network motifs (Tasks 1+2 of the paper):
/// exhaustively enumerate all connected size-k subgraphs with ESU, group
/// them by canonical class, keep the classes with at least min_frequency
/// occurrences, then score uniqueness by re-enumerating each randomized
/// network once and comparing *all* class counts simultaneously (one
/// enumeration per network covers every candidate class).
///
/// Motifs come out in canonical-code order. Occurrences are aligned to the
/// canonical vertex order, so the result feeds LaMoFinder directly.
std::vector<Motif> FindNetworkMotifsEsu(const Graph& graph,
                                        const EsuMotifConfig& config);

/// Parameters of FindNetworkMotifs: the EsuMotifConfig fields, with a size
/// range in place of the single size.
struct MotifFindingConfig {
  /// Smallest and largest motif size mined (inclusive).
  size_t min_size = 3;
  size_t max_size = 5;
  /// Minimum occurrences for a class to be considered repeated. The paper
  /// uses 100 on the BIND yeast network.
  size_t min_frequency = 100;
  /// Per-class occurrence-list cap (see EsuMotifConfig). 0 = unlimited.
  size_t max_occurrences_per_pattern = 0;
  /// Randomized networks for the uniqueness test, and edge swaps per edge
  /// when randomizing.
  size_t num_random_networks = 10;
  double swaps_per_edge = 3.0;
  /// Motifs below this uniqueness are discarded (paper: > 0.95). Negative
  /// keeps every frequent class (uniqueness still reported).
  double uniqueness_threshold = 0.95;
  uint64_t seed = 42;
  /// Crash-safe progress saves, per size (stages "mine_enum_<k>" and
  /// "mine_uniq_<k>").
  CheckpointOptions checkpoint;
};

/// One call for Tasks 1+2 over a size range: FindNetworkMotifsEsu for each
/// size from min_size to max_size, concatenated in size order. With
/// num_random_networks 0 every frequent class is kept, uniqueness -1.
std::vector<Motif> FindNetworkMotifs(const Graph& graph,
                                     const MotifFindingConfig& config);

}  // namespace lamo

#endif  // LAMO_MOTIF_ESU_FINDER_H_
