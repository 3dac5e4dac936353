#ifndef LAMO_MOTIF_DELTA_ESU_H_
#define LAMO_MOTIF_DELTA_ESU_H_

#include <cstdint>
#include <vector>

#include "graph/graph_index.h"

namespace lamo {

/// ---- Pair-anchored ESU: the delta enumerator ------------------------------
///
/// When the edge {u, v} is added or deleted, the only vertex sets whose
/// induced pattern can change are the connected k-sets containing *both*
/// endpoints — everything else induces the same adjacency before and after.
/// So an incremental update never re-mines the graph: it re-enumerates the
/// (k-1)-hop neighborhood around the edge (Berg & Lässig's locality argument)
/// and diffs the pattern each touched set induces with and without the edge.
///
/// EnumeratePairSubgraphs does that re-enumeration: an ESU walk whose seed is
/// the fixed two-vertex set {u, v} instead of a single root (the RunPair
/// policy of esu_internal::Engine). Wernicke's exclusive-neighborhood
/// invariant (a vertex becomes a candidate exactly once, when the first
/// subgraph vertex adjacent to it joins) carries over to any connected
/// seed, so every connected k-superset of {u, v} is emitted
/// exactly once, with no root-minimality filter. Both bit packings of each
/// set are returned so one enumeration on the graph *with* the edge serves
/// additions and deletions alike:
///
///   ADDEDGE: sets connected without the edge *move* pattern
///            (bits_without -> bits_with); newly-connected sets are pure
///            additions of bits_with.
///   DELEDGE: every set loses bits_with; sets still connected without the
///            edge re-appear as bits_without.

/// One connected k-set containing both anchor endpoints, packed flat so a
/// reused std::vector of them makes enumeration allocation-free.
struct PackedPairSubgraph {
  /// InducedBits packing of the set's adjacency *including* the anchor edge.
  uint64_t bits_with = 0;
  /// bits_with with the anchor pair bit cleared — the set's adjacency in the
  /// graph without the edge.
  uint64_t bits_without = 0;
  /// True iff the set stays connected without the anchor edge (bits_without
  /// then describes a valid connected pattern).
  bool connected_without = false;
  /// The vertex set, ascending; the first k entries are used.
  VertexId verts[GraphIndex::kMaxInducedBitsVertices] = {};
};

/// Appends to `*out` (cleared first; its capacity is reused) every connected
/// k-vertex set of `index` containing both `u` and `v`, in deterministic
/// order — the pair-anchored policy of the ESU engine (esu_engine.h).
/// `index` must contain the edge {u, v};
/// 2 <= k <= GraphIndex::kMaxInducedBitsVertices. Works on dense and
/// CSR-only indexes.
void EnumeratePairSubgraphs(const GraphIndex& index, VertexId u, VertexId v,
                            size_t k, std::vector<PackedPairSubgraph>* out);

/// The same sets, one vector per vertex set — the convenient shape for
/// tests and offline tools.
struct PairSubgraph {
  /// The vertex set, ascending (includes both u and v).
  std::vector<VertexId> verts;
  uint64_t bits_with = 0;
  uint64_t bits_without = 0;
  bool connected_without = false;
};

/// EnumeratePairSubgraphs into the unpacked shape, same order.
void EnumeratePairSubgraphs(const GraphIndex& index, VertexId u, VertexId v,
                            size_t k, std::vector<PairSubgraph>* out);

/// Bit position of pair (i, j), i < j, within the InducedBits upper-triangle
/// packing of a k-vertex subgraph (lexicographic pair order, lowest bit
/// first).
size_t PairBitIndex(size_t i, size_t j, size_t k);

/// True iff the packed upper-triangle adjacency `bits` describes a connected
/// graph on k vertices (BFS over the mask; any k the packing supports, unlike
/// GdsOrbitTable::ConnectedMask which stops at 5).
bool MaskConnected(uint64_t bits, size_t k);

}  // namespace lamo

#endif  // LAMO_MOTIF_DELTA_ESU_H_
