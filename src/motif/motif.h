#ifndef LAMO_MOTIF_MOTIF_H_
#define LAMO_MOTIF_MOTIF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/small_graph.h"
#include "util/checkpoint.h"
#include "util/status.h"

namespace lamo {

/// One occurrence of a motif: the embedding aligned to the motif's canonical
/// vertex order. `proteins[i]` is the graph vertex (protein) playing the role
/// of canonical motif vertex i. The underlying vertex *set* identifies the
/// occurrence; the particular alignment is one representative of the
/// automorphism class (LaMoFinder explores the alternatives via the motif's
/// symmetric vertex sets).
struct MotifOccurrence {
  std::vector<VertexId> proteins;
};

/// A network motif: a connected subgraph pattern (in canonical form) that is
/// repeated in the network (frequency >= threshold) and unique (appears at a
/// higher frequency than in randomized networks). This is the paper's g with
/// its occurrence set D_g.
struct Motif {
  /// Canonical representative of the isomorphism class.
  SmallGraph pattern;
  /// Canonical code of `pattern` (hashable identity of the class).
  std::vector<uint8_t> code;
  /// D_g: distinct vertex sets inducing the pattern, one aligned embedding
  /// each.
  std::vector<MotifOccurrence> occurrences;
  /// Frequency |D_g| at mining time. Kept separately because occurrence
  /// lists may be capped for memory control; frequency is always the exact
  /// count.
  size_t frequency = 0;
  /// Uniqueness s(g): fraction of randomized networks in which g's frequency
  /// in the real network is >= its frequency in the randomized network
  /// [Milo et al.]. Filled by UniquenessTest; -1 if not evaluated.
  double uniqueness = -1.0;
  /// When non-empty, overrides the symmetric vertex sets derived from
  /// `pattern` (twin classes). Directed motifs use this: their occurrences
  /// are aligned to a *directed* canonical order whose symmetries the
  /// undirected pattern over-approximates, so the directed twin classes are
  /// attached here and the labeling stage honors them.
  std::vector<std::vector<uint32_t>> symmetric_sets_override;

  /// Number of vertices in the pattern.
  size_t size() const { return pattern.num_vertices(); }

  /// One-line summary for logs.
  std::string ToString() const;
};

/// Binary codecs used by checkpoint payloads (little-endian, bounds-checked
/// on decode). Encode(Decode(x)) is the identity; Decode rejects malformed
/// input with a Status instead of crashing.
void EncodeSmallGraph(const SmallGraph& g, ByteWriter* w);
Status DecodeSmallGraph(ByteReader* r, SmallGraph* g);
void EncodeMotif(const Motif& m, ByteWriter* w);
Status DecodeMotif(ByteReader* r, Motif* m);

}  // namespace lamo

#endif  // LAMO_MOTIF_MOTIF_H_
