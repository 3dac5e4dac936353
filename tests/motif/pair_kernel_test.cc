// Differential test of the pair-anchored ESU kernel (the RunPair policy of
// esu_internal::Engine behind EnumeratePairSubgraphs) against the copying
// recursive walk it replaced, kept here as the oracle: per tree node that
// walk copies its candidate list and its sorted forbidden list, consumes
// candidates from the back, and emits each set sorted with both bit
// packings. The kernel must reproduce its output *sequence* exactly —
// order, vertex sets, bits_with, bits_without and connected_without — for
// every k up to GraphIndex::kMaxInducedBitsVertices, on the dense index
// and on the CSR-only one. The kernel's prefix-emission policy is one more
// input: the size-s emissions of one depth-k pair walk must be the size-s
// pair walk's vertex sets, in order.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_index.h"
#include "motif/delta_esu.h"
#include "motif/esu_engine.h"
#include "util/random.h"

namespace lamo {
namespace {

// ---- Oracle: the original pair-anchored walk -------------------------------

// `sub` holds the current subgraph vertices in insertion order ({u, v}
// first); `ext` is the candidate list; `forbidden` is the sorted union of
// sub and all neighbors of sub at the time each vertex joined (Wernicke's
// exclusive-neighborhood rule).
struct OraclePairEsu {
  const GraphIndex& index;
  VertexId anchor_u, anchor_v;
  size_t k;
  std::vector<PairSubgraph>* out;
  std::vector<VertexId> sub;

  bool Forbidden(const std::vector<VertexId>& forbidden, VertexId w) const {
    return std::binary_search(forbidden.begin(), forbidden.end(), w);
  }

  void Emit() {
    std::vector<VertexId> sorted_verts(sub.begin(), sub.end());
    std::sort(sorted_verts.begin(), sorted_verts.end());
    PairSubgraph ps;
    ps.verts = sorted_verts;
    ps.bits_with = index.InducedBits(sorted_verts.data(), k);
    const size_t pu = static_cast<size_t>(
        std::lower_bound(sorted_verts.begin(), sorted_verts.end(),
                         std::min(anchor_u, anchor_v)) -
        sorted_verts.begin());
    const size_t pv = static_cast<size_t>(
        std::lower_bound(sorted_verts.begin(), sorted_verts.end(),
                         std::max(anchor_u, anchor_v)) -
        sorted_verts.begin());
    const uint64_t pair_bit = uint64_t{1} << PairBitIndex(pu, pv, k);
    ps.bits_without = ps.bits_with & ~pair_bit;
    ps.connected_without = k > 2 && MaskConnected(ps.bits_without, k);
    out->push_back(std::move(ps));
  }

  void Extend(std::vector<VertexId> ext, std::vector<VertexId> forbidden) {
    if (sub.size() == k) {
      Emit();
      return;
    }
    while (!ext.empty()) {
      const VertexId w = ext.back();
      ext.pop_back();
      std::vector<VertexId> next_ext = ext;
      std::vector<VertexId> next_forbidden = forbidden;
      for (const VertexId x : index.Neighbors(w)) {
        if (!Forbidden(forbidden, x)) {
          next_ext.push_back(x);
          next_forbidden.insert(
              std::lower_bound(next_forbidden.begin(), next_forbidden.end(),
                               x),
              x);
        }
      }
      sub.push_back(w);
      Extend(std::move(next_ext), std::move(next_forbidden));
      sub.pop_back();
    }
  }
};

std::vector<PairSubgraph> OraclePairSubgraphs(const GraphIndex& index,
                                              VertexId u, VertexId v,
                                              size_t k) {
  std::vector<PairSubgraph> out;
  if (k == 2) {
    PairSubgraph ps;
    ps.verts = {std::min(u, v), std::max(u, v)};
    ps.bits_with = 1;
    out.push_back(std::move(ps));
    return out;
  }
  OraclePairEsu esu{index, u, v, k, &out, {u, v}};
  std::vector<VertexId> forbidden = {std::min(u, v), std::max(u, v)};
  std::vector<VertexId> ext;
  for (const VertexId seed : {u, v}) {
    for (const VertexId x : index.Neighbors(seed)) {
      if (!esu.Forbidden(forbidden, x)) {
        ext.push_back(x);
        forbidden.insert(
            std::lower_bound(forbidden.begin(), forbidden.end(), x), x);
      }
    }
  }
  esu.Extend(std::move(ext), std::move(forbidden));
  return out;
}

// ---- The differential ------------------------------------------------------

using SetSequence = std::vector<std::vector<VertexId>>;

// Vertex sets of one depth-k pair walk under the prefix policy, in order.
SetSequence PrefixPairSets(const GraphIndex& index, VertexId u, VertexId v,
                           size_t k) {
  SetSequence sets;
  const auto emit = [&](const VertexId* set, size_t size) {
    sets.emplace_back(set, set + size);
    return true;
  };
  esu_internal::Engine<decltype(emit), esu_internal::ExploreAll,
                       esu_internal::EmitPrefixes>
      engine(index, k, emit);
  engine.RunPair(u, v);
  return sets;
}

// The size-s subsequence of `sets`, order kept.
SetSequence OfSize(const SetSequence& sets, size_t s) {
  SetSequence out;
  for (const std::vector<VertexId>& set : sets) {
    if (set.size() == s) out.push_back(set);
  }
  return out;
}

// The prefix pair walk at depths 2..6 against the size-s pair walks
// (`by_size[s]`, the vertex sets the kernel emits at size s). A walk deeper
// than the graph emits nothing (RunPair returns early).
void ExpectPrefixPairWalkMatches(const GraphIndex& index, VertexId u,
                                 VertexId v,
                                 const std::vector<SetSequence>& by_size) {
  for (size_t k = 2; k <= 6; ++k) {
    SCOPED_TRACE(testing::Message() << "prefix depth " << k);
    const SetSequence prefix = PrefixPairSets(index, u, v, k);
    if (k > index.num_vertices()) {
      EXPECT_TRUE(prefix.empty());
      continue;
    }
    size_t matched = 0;
    for (size_t s = 2; s <= k; ++s) {
      EXPECT_EQ(OfSize(prefix, s), by_size[s]) << "size " << s;
      matched += by_size[s].size();
    }
    EXPECT_EQ(prefix.size(), matched);
    // Pre-order: the latest shorter emission before a set is its ESU
    // parent, one vertex smaller and contained in it.
    std::vector<std::vector<VertexId>> latest(k + 1);
    for (const std::vector<VertexId>& set : prefix) {
      const std::vector<VertexId>& parent = latest[set.size() - 1];
      if (set.size() > 2) {
        EXPECT_TRUE(parent.size() + 1 == set.size() &&
                    std::includes(set.begin(), set.end(), parent.begin(),
                                  parent.end()));
      }
      latest[set.size()] = set;
    }
  }
}

std::vector<SetSequence> PairSetsBySize(const GraphIndex& index, VertexId u,
                                        VertexId v) {
  std::vector<SetSequence> by_size(7);
  for (size_t s = 2; s <= 6 && s <= index.num_vertices(); ++s) {
    std::vector<PairSubgraph> subgraphs;
    EnumeratePairSubgraphs(index, u, v, s, &subgraphs);
    for (PairSubgraph& ps : subgraphs) by_size[s].push_back(ps.verts);
  }
  return by_size;
}

void ExpectSameSequence(const std::vector<PairSubgraph>& expected,
                        const std::vector<PairSubgraph>& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "emission " << i);
    EXPECT_EQ(actual[i].verts, expected[i].verts);
    EXPECT_EQ(actual[i].bits_with, expected[i].bits_with);
    EXPECT_EQ(actual[i].bits_without, expected[i].bits_without);
    EXPECT_EQ(actual[i].connected_without, expected[i].connected_without);
  }
}

// A random graph from a rotating family, sized so k = 11 stays cheap for
// the copying oracle.
Graph RandomGraph(int trial, Rng& rng) {
  const size_t n = 6 + rng.Uniform(11);  // 6..16
  const size_t max_edges = n * (n - 1) / 2;
  Rng graph_rng(rng.Next64());
  switch (trial % 3) {
    case 0:  // sparse
      return ErdosRenyi(n, std::min(max_edges, n + rng.Uniform(n)), graph_rng);
    case 1:
      return ErdosRenyi(n, rng.Uniform(max_edges + 1), graph_rng);
    default:
      return BarabasiAlbert(n, 2, graph_rng);
  }
}

TEST(PairKernelDifferentialTest, MatchesCopyingWalkSequenceExactly) {
  Rng rng(1307);
  size_t compared_sets = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = RandomGraph(trial, rng);
    const auto edges = g.Edges();
    if (edges.empty()) continue;
    // Both orientations of a random edge: the seed order {u, v} vs {v, u}
    // changes the candidate order, hence the emission order.
    const auto [a, b] = edges[rng.Uniform(edges.size())];
    for (const auto& [u, v] : {std::pair{a, b}, std::pair{b, a}}) {
      for (const size_t dense_limit :
           {GraphIndex::kDenseVertexLimit, size_t{0}}) {
        const GraphIndex index(g, dense_limit);
        {
          SCOPED_TRACE(testing::Message()
                       << "trial " << trial << " edge {" << u << "," << v
                       << "} dense_limit=" << dense_limit);
          ExpectPrefixPairWalkMatches(index, u, v,
                                      PairSetsBySize(index, u, v));
        }
        for (size_t k = 2; k <= GraphIndex::kMaxInducedBitsVertices &&
                           k <= g.num_vertices();
             ++k) {
          SCOPED_TRACE(testing::Message()
                       << "trial " << trial << " n=" << g.num_vertices()
                       << " m=" << g.num_edges() << " edge {" << u << ","
                       << v << "} k=" << k << " dense_limit=" << dense_limit);
          const std::vector<PairSubgraph> expected =
              OraclePairSubgraphs(index, u, v, k);
          std::vector<PairSubgraph> actual;
          EnumeratePairSubgraphs(index, u, v, k, &actual);
          ExpectSameSequence(expected, actual);
          compared_sets += expected.size();
        }
      }
    }
  }
  EXPECT_GT(compared_sets, 10000u);  // the battery is not vacuous
}

TEST(PairKernelDifferentialTest, PrefixWalkOnGraphsSmallerThanItsDepth) {
  // Cliques and paths on 2..5 vertices: depths up to n interleave the pair
  // walks, deeper ones emit nothing.
  for (size_t n = 2; n <= 5; ++n) {
    for (const bool clique : {true, false}) {
      GraphBuilder b(n);
      for (VertexId x = 0; x < n; ++x) {
        for (VertexId y = x + 1; y < n; ++y) {
          if (clique || y == x + 1) {
            ASSERT_TRUE(b.AddEdge(x, y).ok());
          }
        }
      }
      const Graph g = b.Build();
      for (const size_t dense_limit :
           {GraphIndex::kDenseVertexLimit, size_t{0}}) {
        const GraphIndex index(g, dense_limit);
        SCOPED_TRACE(testing::Message() << "n=" << n << " clique=" << clique
                                        << " dense_limit=" << dense_limit);
        ExpectPrefixPairWalkMatches(index, 0, 1, PairSetsBySize(index, 0, 1));
      }
    }
  }
}

TEST(PairKernelDifferentialTest, PackedAndUnpackedShapesAgree) {
  // The packed buffer the update engine reuses must carry the same
  // sequence as the unpacked shape, and be refilled (not appended to) on
  // reuse.
  Rng rng(77);
  Rng graph_rng(rng.Next64());
  const Graph g = ErdosRenyi(30, 90, graph_rng);
  const GraphIndex index(g);
  std::vector<PackedPairSubgraph> packed;
  for (const auto& [u, v] : g.Edges()) {
    for (size_t k = 2; k <= 5; ++k) {
      EnumeratePairSubgraphs(index, u, v, k, &packed);
      const std::vector<PairSubgraph> expected =
          OraclePairSubgraphs(index, u, v, k);
      ASSERT_EQ(packed.size(), expected.size());
      for (size_t i = 0; i < packed.size(); ++i) {
        EXPECT_TRUE(std::equal(packed[i].verts, packed[i].verts + k,
                               expected[i].verts.begin()));
        EXPECT_EQ(packed[i].bits_with, expected[i].bits_with);
        EXPECT_EQ(packed[i].bits_without, expected[i].bits_without);
        EXPECT_EQ(packed[i].connected_without, expected[i].connected_without);
      }
    }
  }
}

}  // namespace
}  // namespace lamo
