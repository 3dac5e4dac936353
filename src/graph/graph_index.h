#ifndef LAMO_GRAPH_GRAPH_INDEX_H_
#define LAMO_GRAPH_GRAPH_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace lamo {

/// A precomputed, cache-friendly query index over an immutable Graph — the
/// build-once-query-forever layout the mining hot paths run on. Two parallel
/// representations are kept:
///
///  * a private CSR copy (uint32 offsets + sorted, deduplicated neighbor
///    arrays) so enumeration walks flat contiguous memory regardless of how
///    the source Graph stores its adjacency, and
///  * a dense bitset adjacency matrix (one n-bit row per vertex, packed into
///    64-bit words) built whenever n <= dense_vertex_limit. A row probe
///    replaces the O(log d) binary search of Graph::HasEdge with one shift
///    and mask, and whole-row word operations (union, intersection) power
///    the ESU exclusive-neighborhood computation.
///
/// The build is strictly serial and depends only on the Graph contents, so
/// the index bytes are identical for any --threads setting. At the default
/// cap (8192 vertices) the bitset tops out at 8 MiB; beyond it the index
/// degrades to CSR-only and queries fall back to sorted-neighbor merges.
class GraphIndex {
 public:
  /// Default dense-adjacency cap: 8192 vertices = 8 MiB of bits, which
  /// comfortably covers PPI-scale interactomes (the paper's BIND network has
  /// 4141 proteins).
  static constexpr size_t kDenseVertexLimit = 8192;

  /// Maximum subgraph size whose upper-triangle adjacency fits the 64-bit
  /// key produced by InducedBits (11 * 10 / 2 = 55 bits).
  static constexpr size_t kMaxInducedBitsVertices = 11;

  /// An empty index (0 vertices).
  GraphIndex() = default;

  /// Builds the index for `g`. The dense bitset is materialized only when
  /// g.num_vertices() <= dense_vertex_limit (tests pass 0 to force the
  /// sparse fallback paths).
  explicit GraphIndex(const Graph& g,
                      size_t dense_vertex_limit = kDenseVertexLimit);

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return neighbors_.size() / 2; }

  /// True when the dense bitset adjacency was built.
  bool dense() const { return words_per_row_ != 0; }

  /// 64-bit words per dense row (0 when the index is CSR-only).
  size_t words_per_row() const { return words_per_row_; }

  /// Dense adjacency row of `v`: bit u set iff {v, u} is an edge. Only
  /// valid when dense().
  const uint64_t* Row(VertexId v) const {
    return bits_.data() + static_cast<size_t>(v) * words_per_row_;
  }

  /// Sorted, deduplicated neighbors of `v`.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  size_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// CSR offset array (size n + 1); exposed for round-trip property tests.
  std::span<const uint32_t> Offsets() const { return offsets_; }

  /// Flat neighbor array (size 2m); exposed for round-trip property tests.
  std::span<const VertexId> NeighborArray() const { return neighbors_; }

  /// Raw dense bitset words (empty when CSR-only); exposed for the
  /// byte-stability property test.
  std::span<const uint64_t> DenseBits() const { return bits_; }

  /// Edge probe: one bit test when dense, binary search on the smaller
  /// neighbor list otherwise.
  bool HasEdge(VertexId a, VertexId b) const;

  /// Packs the upper-triangle adjacency of the subgraph induced by
  /// verts[0..k) into a 64-bit key: pair (i, j), i < j, in lexicographic
  /// order, lowest bit first. Requires k <= kMaxInducedBitsVertices and
  /// distinct in-range vertices. The key depends only on the induced
  /// adjacency pattern, so it is shareable across graphs of the same order
  /// (SharedCanonCache keys on it).
  uint64_t InducedBits(const VertexId* verts, size_t k) const;

  /// Common neighbors of `a` and `b` in ascending order, appended to *out
  /// (cleared first). Word-at-a-time row intersection when dense, sorted
  /// merge otherwise. Returns the count.
  size_t CommonNeighbors(VertexId a, VertexId b,
                         std::vector<VertexId>* out) const;

  /// Sorted-list intersection (ascending, deduplicated inputs), appended to
  /// *out (cleared first). Returns the count. Exposed so property tests can
  /// pin it against std::set_intersection.
  static size_t IntersectSorted(std::span<const VertexId> a,
                                std::span<const VertexId> b,
                                std::vector<VertexId>* out);

  /// Structural self-check used by the fuzzing harness: offsets monotone
  /// and consistent with the neighbor array, every neighbor list strictly
  /// increasing (sorted + deduplicated), in range, self-loop-free and
  /// symmetric, and — when dense — the bitset in exact agreement with the
  /// CSR. Returns the first violation as a non-OK Status.
  Status Validate() const;

 private:
  // Live edge updates edit the CSR arrays and bitset rows in place
  // (graph/mutable_index.h).
  friend class MutableGraphIndex;

  size_t num_vertices_ = 0;
  std::vector<uint32_t> offsets_;    // size n+1
  std::vector<VertexId> neighbors_;  // size 2m, sorted per vertex
  size_t words_per_row_ = 0;         // 0 = CSR-only
  std::vector<uint64_t> bits_;       // n * words_per_row_ when dense
};

}  // namespace lamo

#endif  // LAMO_GRAPH_GRAPH_INDEX_H_
