// Differential tests for the ESU enumeration stack, two layers deep:
//
//  1. ESU versus a naive brute-force connected-subgraph enumerator. The
//     brute force walks every C(n, k) vertex subset and keeps the connected
//     ones, so it is obviously correct (and hopeless beyond tiny n); ESU
//     must produce exactly the same multiset of canonical classes on random
//     graphs of every density.
//  2. The index-centric engine (CSR + dense bitset, and its sparse
//     CSR-only fallback) versus the original pointer-chasing walk it
//     replaced, kept as the oracle::LegacyEsu test oracle. These
//     are required to agree on the exact emission *sequence*, not just the
//     multiset — the pipelines' byte-identical-output guarantee rests on
//     the emission order being preserved.
//  3. The engine's prefix-emission policy (EmitPrefixes, the graphlet
//     degree signature walk) versus the leaf-emitting engine: the size-s
//     emissions of one depth-k walk must be the depth-s walk's sequence.
#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "graph/graph_index.h"
#include "motif/canon_cache.h"
#include "motif/esu.h"
#include "motif/esu_engine.h"
#include "oracle/legacy_esu.h"
#include "util/random.h"

namespace lamo {
namespace {

using ClassCounts = std::map<std::vector<uint8_t>, size_t>;

// All connected induced size-k subgraphs by subset enumeration.
ClassCounts BruteForceClasses(const Graph& g, size_t k) {
  ClassCounts counts;
  const size_t n = g.num_vertices();
  if (k == 0 || k > n) return counts;
  std::vector<VertexId> subset(k);
  // Lexicographic k-combinations of [0, n).
  for (size_t i = 0; i < k; ++i) subset[i] = static_cast<VertexId>(i);
  while (true) {
    const SmallGraph sub = SmallGraph::InducedSubgraph(g, subset);
    if (sub.IsConnected()) ++counts[CanonicalCode(sub)];
    // Advance: find the rightmost position that can still move up.
    size_t pos = k;
    while (pos > 0 && subset[pos - 1] == n - k + pos - 1) --pos;
    if (pos == 0) break;
    ++subset[pos - 1];
    for (size_t i = pos; i < k; ++i) subset[i] = subset[i - 1] + 1;
  }
  return counts;
}

// The same multiset via ESU, both through the raw enumerator and through
// the parallel class-counting pipeline.
ClassCounts EsuClasses(const Graph& g, size_t k) {
  ClassCounts counts;
  EnumerateConnectedSubgraphs(g, k, [&](const std::vector<VertexId>& set) {
    ++counts[CanonicalCode(SmallGraph::InducedSubgraph(g, set))];
    return true;
  });
  return counts;
}

TEST(EsuDifferentialTest, MatchesBruteForceOnRandomGraphs) {
  // 30 random graphs, n <= 12, densities from near-empty to near-complete,
  // every k in 3..5 — identical canonical-class multisets throughout.
  Rng rng(20070406);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 4 + rng.Uniform(9);  // 4..12
    const size_t max_edges = n * (n - 1) / 2;
    const size_t m = rng.Uniform(max_edges + 1);
    Rng graph_rng(rng.Next64());
    const Graph g = ErdosRenyi(n, m, graph_rng);
    for (size_t k = 3; k <= 5 && k <= n; ++k) {
      const ClassCounts expected = BruteForceClasses(g, k);
      SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                      << " m=" << m << " k=" << k);
      EXPECT_EQ(EsuClasses(g, k), expected);
      EXPECT_EQ(CountSubgraphClasses(g, k), expected);
    }
  }
}

using SetSequence = std::vector<std::vector<VertexId>>;

// The exact emission sequence of the original pointer-chasing walk.
SetSequence LegacySequence(const Graph& g, size_t k) {
  SetSequence sets;
  oracle::LegacyEsu(g, k, nullptr, nullptr,
                    [&](const std::vector<VertexId>& set) {
                      sets.push_back(set);
                      return true;
                    });
  return sets;
}

// The exact emission sequence of the index engine over a prebuilt index
// (dense bitset or, with dense_vertex_limit = 0, the sparse CSR fallback).
SetSequence IndexSequence(const GraphIndex& index, size_t k) {
  SetSequence sets;
  esu_internal::RunEsu(index, k, 0, static_cast<VertexId>(index.num_vertices()),
                       [&](const VertexId* set, size_t size) {
                         sets.emplace_back(set, set + size);
                         return true;
                       });
  return sets;
}

// Every emission of one depth-k walk under the prefix policy, in order.
SetSequence PrefixSequence(const GraphIndex& index, size_t k) {
  SetSequence sets;
  esu_internal::RunPrefixEsu(
      index, k, 0, static_cast<VertexId>(index.num_vertices()),
      [&](const VertexId* set, size_t size) {
        sets.emplace_back(set, set + size);
        return true;
      });
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

// The prefix walk at every depth k in 2..6 against the leaf walk at every
// size s <= k. A walk deeper than the graph emits nothing at all (RunRoots
// returns early), which is why the signature walk clamps its depth.
void ExpectPrefixWalkMatchesLeafWalks(const GraphIndex& index) {
  const size_t n = index.num_vertices();
  for (size_t k = 2; k <= 6; ++k) {
    SCOPED_TRACE(testing::Message() << "prefix depth " << k << " dense "
                                    << index.dense());
    const SetSequence prefix = PrefixSequence(index, k);
    if (k > n) {
      EXPECT_TRUE(prefix.empty());
      continue;
    }
    size_t matched = 0;
    for (size_t s = 2; s <= k; ++s) {
      const SetSequence leaves = IndexSequence(index, s);
      EXPECT_EQ(OfSize(prefix, s), leaves) << "size " << s;
      matched += leaves.size();
    }
    EXPECT_EQ(prefix.size(), matched);  // no size-0/1 or oversized sets
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

// A graph from one of several structural families, cycling with `trial` so
// the battery covers shapes random edge counts rarely hit: stars (one hub,
// maximal degree skew), cliques (densest case), disjoint unions
// (disconnected graphs), and near-empty graphs, with Erdos-Renyi across the
// full density range in between.
Graph TrialGraph(int trial, size_t n, Rng& rng) {
  GraphBuilder b(n);
  switch (trial % 8) {
    case 0:  // star: vertex 0 adjacent to everyone
      for (VertexId v = 1; v < n; ++v) EXPECT_TRUE(b.AddEdge(0, v).ok());
      return b.Build();
    case 1:  // clique
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = u + 1; v < n; ++v) {
          EXPECT_TRUE(b.AddEdge(u, v).ok());
        }
      }
      return b.Build();
    case 2: {  // two disjoint cliques (disconnected)
      const VertexId half = static_cast<VertexId>(n / 2);
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = u + 1; v < n; ++v) {
          if ((u < half) == (v < half)) {
            EXPECT_TRUE(b.AddEdge(u, v).ok());
          }
        }
      }
      return b.Build();
    }
    case 3: {  // path plus isolated vertices (sparse, disconnected)
      const VertexId end = static_cast<VertexId>(n - n / 3);
      for (VertexId v = 1; v < end; ++v) {
        EXPECT_TRUE(b.AddEdge(v - 1, v).ok());
      }
      return b.Build();
    }
    default: {  // Erdos-Renyi across the density range
      const size_t max_edges = n * (n - 1) / 2;
      Rng graph_rng(rng.Next64());
      return ErdosRenyi(n, rng.Uniform(max_edges + 1), graph_rng);
    }
  }
}

TEST(EsuDifferentialTest, IndexEngineMatchesLegacyWalkOn120Graphs) {
  // 120 graphs (stars, cliques, disjoint unions, paths, random at all
  // densities), n <= 14, every k in 3..5. The dense-bitset engine, the
  // forced-sparse engine, and the legacy walk must emit the *same sequence*
  // of vertex sets; the class-counting pipeline (with and without a shared
  // canonicalization table) and the brute force must agree on the multiset.
  // On both indexes the prefix walk at depths 2..6 interleaves the leaf
  // walks of every size (graphs with n < 6 cover the too-deep case).
  Rng rng(20070715);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t n = 4 + rng.Uniform(11);  // 4..14
    const Graph g = TrialGraph(trial, n, rng);
    const GraphIndex dense_index(g);
    const GraphIndex sparse_index(g, 0);
    ASSERT_TRUE(dense_index.dense());
    ASSERT_FALSE(sparse_index.dense());
    ExpectPrefixWalkMatchesLeafWalks(dense_index);
    ExpectPrefixWalkMatchesLeafWalks(sparse_index);
    for (size_t k = 3; k <= 5 && k <= n; ++k) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " n=" << n
                   << " m=" << g.num_edges() << " k=" << k);
      const SetSequence legacy = LegacySequence(g, k);
      EXPECT_EQ(IndexSequence(dense_index, k), legacy);
      EXPECT_EQ(IndexSequence(sparse_index, k), legacy);

      const ClassCounts expected = BruteForceClasses(g, k);
      EXPECT_EQ(CountSubgraphClasses(g, k), expected);
      SharedCanonCache shared(k);
      EXPECT_EQ(CountSubgraphClasses(g, k, &shared), expected);
    }
  }
}

TEST(EsuDifferentialTest, IndexEngineHonorsCallbackAbort) {
  // Returning false must stop the enumeration immediately on both engine
  // paths, exactly as the legacy walk does — inner-node emissions of the
  // prefix walk included.
  Rng rng(11);
  const Graph g = ErdosRenyi(12, 40, rng);
  const SetSequence all = LegacySequence(g, 4);
  ASSERT_GT(all.size(), 5u);
  for (const size_t limit : {size_t{1}, size_t{5}, all.size() - 1}) {
    for (const size_t dense_limit : {GraphIndex::kDenseVertexLimit,
                                     size_t{0}}) {
      const GraphIndex index(g, dense_limit);
      SetSequence prefix;
      esu_internal::RunEsu(index, 4, 0, 12,
                           [&](const VertexId* set, size_t size) {
                             prefix.emplace_back(set, set + size);
                             return prefix.size() < limit;
                           });
      EXPECT_EQ(prefix.size(), limit);
      EXPECT_EQ(prefix, SetSequence(all.begin(), all.begin() + limit));

      const SetSequence walk = PrefixSequence(index, 4);
      SetSequence walk_prefix;
      esu_internal::RunPrefixEsu(index, 4, 0, 12,
                                 [&](const VertexId* set, size_t size) {
                                   walk_prefix.emplace_back(set, set + size);
                                   return walk_prefix.size() < limit;
                                 });
      EXPECT_EQ(walk_prefix, SetSequence(walk.begin(), walk.begin() + limit));
    }
  }
}

TEST(EsuDifferentialTest, RootRangesPartitionTheEnumeration) {
  // Splitting the root range anywhere must reproduce the full multiset —
  // the property the parallel sharding relies on.
  Rng rng(77);
  const Graph g = ErdosRenyi(12, 30, rng);
  const ClassCounts expected = EsuClasses(g, 4);
  for (VertexId split = 0; split <= 12; ++split) {
    ClassCounts merged;
    const auto add = [&](const VertexId* set, size_t size) {
      ++merged[CanonicalCode(SmallGraph::InducedSubgraph(
          g, std::vector<VertexId>(set, set + size)))];
      return true;
    };
    const GraphIndex index(g);
    esu_internal::RunEsu(index, 4, 0, split, add);
    esu_internal::RunEsu(index, 4, split, 12, add);
    EXPECT_EQ(merged, expected) << "split at root " << split;
  }
}

}  // namespace
}  // namespace lamo
