// In-place edit tests for MutableGraphIndex: after random AddEdge /
// RemoveEdge sequences — rejected edits included — the edited Graph and
// GraphIndex must equal a fresh GraphBuilder + GraphIndex build of the same
// edge set, array for array: CSR offsets, neighbor arrays and dense bitset
// rows, on the dense index and the CSR-only one.
#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_index.h"
#include "graph/mutable_index.h"
#include "util/random.h"

namespace lamo {
namespace {

using EdgeSet = std::set<std::pair<VertexId, VertexId>>;

Graph Build(size_t n, const EdgeSet& edges) {
  GraphBuilder builder(n);
  for (const auto& [a, b] : edges) EXPECT_TRUE(builder.AddEdge(a, b).ok());
  return builder.Build();
}

template <typename T>
std::vector<T> ToVector(std::span<const T> span) {
  return {span.begin(), span.end()};
}

void ExpectSameGraph(const Graph& expected, const Graph& actual) {
  ASSERT_EQ(actual.num_vertices(), expected.num_vertices());
  EXPECT_EQ(actual.num_edges(), expected.num_edges());
  for (VertexId v = 0; v < expected.num_vertices(); ++v) {
    // Degree is the offset delta; Neighbors the run it delimits.
    EXPECT_EQ(actual.Degree(v), expected.Degree(v)) << "vertex " << v;
    EXPECT_EQ(ToVector(actual.Neighbors(v)), ToVector(expected.Neighbors(v)))
        << "vertex " << v;
  }
}

void ExpectSameIndex(const GraphIndex& expected, const GraphIndex& actual) {
  EXPECT_EQ(actual.num_vertices(), expected.num_vertices());
  EXPECT_EQ(actual.dense(), expected.dense());
  EXPECT_EQ(actual.words_per_row(), expected.words_per_row());
  EXPECT_EQ(ToVector(actual.Offsets()), ToVector(expected.Offsets()));
  EXPECT_EQ(ToVector(actual.NeighborArray()),
            ToVector(expected.NeighborArray()));
  EXPECT_EQ(ToVector(actual.DenseBits()), ToVector(expected.DenseBits()));
  EXPECT_TRUE(actual.Validate().ok()) << actual.Validate().ToString();
}

TEST(MutableGraphIndexTest, RandomEditsEqualFreshBuild) {
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 2 + rng.Uniform(70);  // 2..71: one and two dense words
    Rng graph_rng(rng.Next64());
    const size_t max_edges = n * (n - 1) / 2;
    const Graph g0 =
        ErdosRenyi(n, rng.Uniform(std::min(2 * n, max_edges) + 1), graph_rng);
    const uint64_t edit_seed = rng.Next64();
    for (const size_t dense_limit :
         {GraphIndex::kDenseVertexLimit, size_t{0}}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                      << " dense_limit=" << dense_limit);
      EdgeSet edges;
      for (const auto& e : g0.Edges()) edges.insert(e);
      // Both constructors: a private copy, and the caller's graph edited
      // in place.
      Graph borrowed = g0;
      MutableGraphIndex owned_edits(g0, dense_limit);
      MutableGraphIndex borrowed_edits(&borrowed, dense_limit);
      Rng edit_rng(edit_seed);
      for (int step = 0; step < 60; ++step) {
        VertexId u = static_cast<VertexId>(edit_rng.Uniform(n + 1));
        VertexId v = static_cast<VertexId>(edit_rng.Uniform(n + 1));
        const bool add = edit_rng.Uniform(2) == 0;
        const std::pair<VertexId, VertexId> key{std::min(u, v),
                                                std::max(u, v)};
        // Valid iff in range, distinct, and absent (add) / present (del);
        // everything else must be rejected without touching either view.
        const bool valid = u < n && v < n && u != v &&
                           (add ? edges.count(key) == 0
                                : edges.count(key) == 1);
        for (MutableGraphIndex* m : {&owned_edits, &borrowed_edits}) {
          const Status status = add ? m->AddEdge(u, v) : m->RemoveEdge(u, v);
          EXPECT_EQ(status.ok(), valid)
              << (add ? "add {" : "remove {") << u << "," << v << "} "
              << status.ToString();
        }
        if (valid) {
          if (add) {
            edges.insert(key);
          } else {
            edges.erase(key);
          }
        }
        const Graph fresh = Build(n, edges);
        const GraphIndex fresh_index(fresh, dense_limit);
        for (MutableGraphIndex* m : {&owned_edits, &borrowed_edits}) {
          ExpectSameGraph(fresh, m->graph());
          ExpectSameIndex(fresh_index, m->index());
          EXPECT_EQ(m->num_edges(), edges.size());
        }
        ExpectSameGraph(fresh, borrowed);  // the borrowed graph itself
        if (testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(MutableGraphIndexTest, RejectedEditsReportTheirCause) {
  GraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  MutableGraphIndex m(builder.Build());
  EXPECT_TRUE(m.AddEdge(0, 4).IsInvalidArgument());
  EXPECT_TRUE(m.AddEdge(2, 2).IsInvalidArgument());
  EXPECT_TRUE(m.AddEdge(1, 0).IsAlreadyExists());
  EXPECT_TRUE(m.RemoveEdge(2, 3).IsNotFound());
  EXPECT_TRUE(m.RemoveEdge(1, 0).ok());
  EXPECT_FALSE(m.HasEdge(0, 1));
  EXPECT_EQ(m.num_edges(), 0u);
}

}  // namespace
}  // namespace lamo
