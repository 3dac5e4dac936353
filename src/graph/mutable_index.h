#ifndef LAMO_GRAPH_MUTABLE_INDEX_H_
#define LAMO_GRAPH_MUTABLE_INDEX_H_

#include "graph/graph.h"
#include "graph/graph_index.h"
#include "util/status.h"

namespace lamo {

/// The edit path of the dynamic interactome: a Graph and its GraphIndex
/// patched in place, one undirected edge at a time. Every mining and serving
/// hot path keeps reading the flat CSR + dense-bitset layout it was built
/// for; an edit performs the same surgery on both views:
///
///   * a sorted insert/erase of each endpoint in the other's neighbor run,
///     followed by a +-1 bump of the offsets after it (Graph and index CSR);
///   * one bit flip in each endpoint's dense row (when the index is dense).
///
/// Edits are validated (range, self-link, duplicate add, missing delete)
/// before anything is written, so a rejected edit changes nothing. The
/// result is byte-identical to a fresh GraphBuilder + GraphIndex build of
/// the edited edge set — sorted runs with no duplicates have exactly one
/// layout — which the serve-path update engine's online/offline
/// byte-identity contract depends on (tests/graph/mutable_index_test.cc
/// pins it after random edit sequences, in dense and sparse mode).
///
/// Cost model: an edit is O(n + m), paid as memmoves of the neighbor arrays
/// and one pass over each offset array — about 3 µs for both views
/// together on the 1500-protein, 3450-edge default interactome (x86-64,
/// -O2), where a full rebuild of both views through GraphBuilder measures
/// about 250-290 µs — hence no rebuild path.
class MutableGraphIndex {
 public:
  /// Edits a private copy of `g`. `dense_vertex_limit` is forwarded to the
  /// index build (tests pass 0 to force the sparse index paths).
  explicit MutableGraphIndex(
      const Graph& g, size_t dense_vertex_limit = GraphIndex::kDenseVertexLimit);

  /// Edits `*graph` itself, which must outlive this object and not be
  /// modified by anyone else while it lives. This is how the update engine
  /// patches a served snapshot's graph without copying it.
  explicit MutableGraphIndex(
      Graph* graph, size_t dense_vertex_limit = GraphIndex::kDenseVertexLimit);

  MutableGraphIndex(const MutableGraphIndex&) = delete;
  MutableGraphIndex& operator=(const MutableGraphIndex&) = delete;

  size_t num_vertices() const { return index_.num_vertices(); }
  size_t num_edges() const { return index_.num_edges(); }

  /// True iff the undirected edge {u, v} exists in the current adjacency.
  /// One bit probe when dense, a binary search otherwise.
  bool HasEdge(VertexId u, VertexId v) const { return index_.HasEdge(u, v); }

  /// Adds the undirected edge {u, v}. InvalidArgument when an endpoint is
  /// out of range or u == v; AlreadyExists when the edge is present.
  Status AddEdge(VertexId u, VertexId v);

  /// Removes the undirected edge {u, v}. InvalidArgument when an endpoint is
  /// out of range or u == v; NotFound when the edge is absent.
  Status RemoveEdge(VertexId u, VertexId v);

  /// The current adjacency. Always up to date; references stay valid across
  /// edits (the arrays behind Neighbors spans may move).
  const Graph& graph() const { return *graph_; }

  /// The current query index, same dense/sparse mode as construction chose.
  /// Always up to date; the reference stays valid across edits.
  const GraphIndex& index() const { return index_; }

 private:
  /// Inserts (add) or erases (!add) the already-validated edge {u, v} in
  /// both views.
  void Edit(bool add, VertexId u, VertexId v);

  Graph owned_;  // the copy, when constructed from a const Graph&
  Graph* graph_;
  GraphIndex index_;
};

}  // namespace lamo

#endif  // LAMO_GRAPH_MUTABLE_INDEX_H_
