#include "graph/mutable_index.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/logging.h"

namespace lamo {
namespace {

Status CheckEndpoints(size_t n, VertexId u, VertexId v) {
  if (u >= n || v >= n) {
    return Status::InvalidArgument("edge endpoint out of range: {" +
                                   std::to_string(u) + ", " +
                                   std::to_string(v) + "} on " +
                                   std::to_string(n) + " vertices");
  }
  if (u == v) {
    return Status::InvalidArgument("self-link {" + std::to_string(u) + ", " +
                                   std::to_string(u) + "} rejected");
  }
  return Status::OK();
}

/// Inserts (add) or erases (!add) `b` in the sorted neighbor run of `a`
/// and shifts every later run's offset by one. The caller has validated
/// that `b` is absent (add) / present (erase).
template <typename Offset>
void EditCsrRun(std::vector<Offset>* offsets, std::vector<VertexId>* neighbors,
                bool add, VertexId a, VertexId b) {
  const auto first = neighbors->begin() + static_cast<ptrdiff_t>((*offsets)[a]);
  const auto last =
      neighbors->begin() + static_cast<ptrdiff_t>((*offsets)[a + 1]);
  const auto at = std::lower_bound(first, last, b);
  if (add) {
    neighbors->insert(at, b);
    for (size_t w = a + 1; w < offsets->size(); ++w) ++(*offsets)[w];
  } else {
    neighbors->erase(at);
    for (size_t w = a + 1; w < offsets->size(); ++w) --(*offsets)[w];
  }
}

}  // namespace

MutableGraphIndex::MutableGraphIndex(const Graph& g, size_t dense_vertex_limit)
    : owned_(g), graph_(&owned_), index_(owned_, dense_vertex_limit) {}

MutableGraphIndex::MutableGraphIndex(Graph* graph, size_t dense_vertex_limit)
    : graph_(graph), index_(*graph, dense_vertex_limit) {}

Status MutableGraphIndex::AddEdge(VertexId u, VertexId v) {
  const Status check = CheckEndpoints(num_vertices(), u, v);
  if (!check.ok()) return check;
  if (HasEdge(u, v)) {
    return Status::AlreadyExists("edge {" + std::to_string(u) + ", " +
                                 std::to_string(v) + "} already present");
  }
  LAMO_CHECK_LT(index_.neighbors_.size() + 2,
                static_cast<size_t>(UINT32_MAX));
  Edit(/*add=*/true, u, v);
  return Status::OK();
}

Status MutableGraphIndex::RemoveEdge(VertexId u, VertexId v) {
  const Status check = CheckEndpoints(num_vertices(), u, v);
  if (!check.ok()) return check;
  if (!HasEdge(u, v)) {
    return Status::NotFound("edge {" + std::to_string(u) + ", " +
                            std::to_string(v) + "} does not exist");
  }
  Edit(/*add=*/false, u, v);
  return Status::OK();
}

void MutableGraphIndex::Edit(bool add, VertexId u, VertexId v) {
  for (const auto& [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    EditCsrRun(&graph_->offsets_, &graph_->neighbors_, add, a, b);
    EditCsrRun(&index_.offsets_, &index_.neighbors_, add, a, b);
    if (index_.dense()) {
      index_.bits_[static_cast<size_t>(a) * index_.words_per_row_ + (b >> 6)] ^=
          uint64_t{1} << (b & 63);
    }
  }
}

}  // namespace lamo
