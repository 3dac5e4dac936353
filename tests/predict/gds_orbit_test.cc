#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "parallel/parallel_for.h"
#include "predict/gds.h"
#include "util/random.h"

namespace lamo {
namespace {

// The orbit a vertex of the complete graph K_k occupies (all vertices of a
// clique share one orbit).
int CliqueOrbit(size_t k) {
  SmallGraph g(k);
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t j = i + 1; j < k; ++j) g.AddEdge(i, j);
  }
  return GdsOrbitTable::Get().OrbitOf(g, 0);
}

// The size-k star with vertex 0 at the center; *center/*leaf get the two
// orbit ids (equal for k = 2, where the edge graphlet has a single orbit).
void StarOrbits(size_t k, int* center, int* leaf) {
  SmallGraph g(k);
  for (uint32_t i = 1; i < k; ++i) g.AddEdge(0, i);
  *center = GdsOrbitTable::Get().OrbitOf(g, 0);
  *leaf = GdsOrbitTable::Get().OrbitOf(g, 1);
}

// The size-k path 0-1-...-(k-1); returns the orbit of endpoint 0.
int PathEndpointOrbit(size_t k) {
  SmallGraph g(k);
  for (uint32_t i = 0; i + 1 < k; ++i) g.AddEdge(i, i + 1);
  return GdsOrbitTable::Get().OrbitOf(g, 0);
}

// Brute-force graphlet degree signature of vertex `u`: enumerate every
// vertex subset of size 2..5 containing u, keep the connected induced
// subgraphs, and classify u's position through the (independently exercised)
// canonical OrbitOf path.
std::vector<uint64_t> BruteForceSignature(const Graph& g, VertexId u) {
  std::vector<uint64_t> counts(kGdsOrbits, 0);
  const size_t n = g.num_vertices();
  for (size_t k = 2; k <= 5 && k <= n; ++k) {
    // Combination cursor over {0..n-1} \ {u} choose (k-1); u is always in.
    std::vector<VertexId> others;
    for (VertexId v = 0; v < n; ++v) {
      if (v != u) others.push_back(v);
    }
    std::vector<size_t> pick(k - 1);
    for (size_t i = 0; i < k - 1; ++i) pick[i] = i;
    while (true) {
      std::vector<VertexId> verts{u};
      for (size_t i : pick) verts.push_back(others[i]);
      std::sort(verts.begin(), verts.end());
      const SmallGraph sub = SmallGraph::InducedSubgraph(g, verts);
      if (sub.IsConnected()) {
        const uint32_t pos = static_cast<uint32_t>(
            std::find(verts.begin(), verts.end(), u) - verts.begin());
        const int orbit = GdsOrbitTable::Get().OrbitOf(sub, pos);
        EXPECT_GE(orbit, 0) << verts.size();
        if (orbit >= 0) ++counts[orbit];
      }
      // Advance the combination.
      size_t i = k - 1;
      while (i > 0 && pick[i - 1] == others.size() - (k - 1) + (i - 1)) --i;
      if (i == 0) break;
      ++pick[i - 1];
      for (size_t j = i; j < k - 1; ++j) pick[j] = pick[j - 1] + 1;
    }
  }
  return counts;
}

Graph RandomGraph(size_t n, double p, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(p)) {
        EXPECT_TRUE(builder.AddEdge(a, b).ok());
      }
    }
  }
  return builder.Build();
}

TEST(GdsOrbitTableTest, CensusMatchesPrzulj) {
  const GdsOrbitTable& table = GdsOrbitTable::Get();
  EXPECT_EQ(table.num_graphlets(), 30u);
  // Every (graphlet, vertex) pair maps into 0..72 and all 73 ids occur.
  std::set<int> seen;
  for (size_t k = 2; k <= 5; ++k) {
    const uint32_t masks = 1u << (k * (k - 1) / 2);
    for (uint32_t mask = 0; mask < masks; ++mask) {
      SmallGraph g(k);
      size_t bit = 0;
      for (uint32_t i = 0; i < k; ++i) {
        for (uint32_t j = i + 1; j < k; ++j, ++bit) {
          if ((mask >> bit) & 1u) g.AddEdge(i, j);
        }
      }
      if (!g.IsConnected()) continue;
      ASSERT_TRUE(table.ConnectedMask(k, mask));
      const uint8_t* orbits = table.OrbitsOfMask(k, mask);
      for (uint32_t v = 0; v < k; ++v) {
        ASSERT_LT(orbits[v], kGdsOrbits);
        EXPECT_EQ(orbits[v], table.OrbitOf(g, v));
        seen.insert(orbits[v]);
      }
    }
  }
  EXPECT_EQ(seen.size(), kGdsOrbits);
}

TEST(GdsOrbitTableTest, RejectsNonGraphlets) {
  SmallGraph single(1);
  EXPECT_EQ(GdsOrbitTable::Get().OrbitOf(single, 0), -1);
  SmallGraph disconnected(4);
  disconnected.AddEdge(0, 1);
  disconnected.AddEdge(2, 3);
  EXPECT_EQ(GdsOrbitTable::Get().OrbitOf(disconnected, 0), -1);
}

TEST(GdsSignatureTest, CliqueClosedForm) {
  // K5: vertex v lies in C(4, k-1) induced k-cliques and nothing else.
  GraphBuilder builder(5);
  for (VertexId a = 0; a < 5; ++a) {
    for (VertexId b = a + 1; b < 5; ++b) ASSERT_TRUE(builder.AddEdge(a, b).ok());
  }
  const Graph g = builder.Build();
  const std::vector<uint64_t> sig = ComputeGdsSignatures(g);
  const uint64_t expected[] = {4, 6, 4, 1};  // C(4,1..4)
  for (VertexId v = 0; v < 5; ++v) {
    uint64_t total = 0;
    for (size_t o = 0; o < kGdsOrbits; ++o) total += sig[v * kGdsOrbits + o];
    EXPECT_EQ(total, 15u);
    for (size_t k = 2; k <= 5; ++k) {
      EXPECT_EQ(sig[v * kGdsOrbits + CliqueOrbit(k)], expected[k - 2])
          << "K" << k << " count of vertex " << v;
    }
  }
}

TEST(GdsSignatureTest, StarClosedForm) {
  // Star with center 0 and 6 leaves: the only connected induced subgraphs
  // are sub-stars, so center counts C(6, k-1) and each leaf C(5, k-2).
  GraphBuilder builder(7);
  for (VertexId leaf = 1; leaf < 7; ++leaf) {
    ASSERT_TRUE(builder.AddEdge(0, leaf).ok());
  }
  const Graph g = builder.Build();
  const std::vector<uint64_t> sig = ComputeGdsSignatures(g);
  for (size_t k = 2; k <= 5; ++k) {
    int center = 0, leaf = 0;
    StarOrbits(k, &center, &leaf);
    uint64_t center_expected = 1;  // C(6, k-1)
    for (size_t i = 0; i < k - 1; ++i) {
      center_expected = center_expected * (6 - i) / (i + 1);
    }
    uint64_t leaf_expected = 1;  // C(5, k-2)
    for (size_t i = 0; i < k - 2; ++i) {
      leaf_expected = leaf_expected * (5 - i) / (i + 1);
    }
    if (k == 2) {
      // The edge graphlet has a single orbit shared by center and leaf.
      EXPECT_EQ(sig[0 * kGdsOrbits + center], 6u);
      EXPECT_EQ(sig[1 * kGdsOrbits + leaf], 1u);
    } else {
      EXPECT_EQ(sig[0 * kGdsOrbits + center], center_expected);
      EXPECT_EQ(sig[0 * kGdsOrbits + leaf], 0u);
      EXPECT_EQ(sig[1 * kGdsOrbits + leaf], leaf_expected);
      EXPECT_EQ(sig[1 * kGdsOrbits + center], 0u);
    }
  }
}

TEST(GdsSignatureTest, PathClosedForm) {
  // P5: the connected induced subgraphs are the contiguous subpaths, so
  // endpoint 0 lies in exactly one subpath of each size.
  GraphBuilder builder(5);
  for (VertexId v = 0; v + 1 < 5; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, v + 1).ok());
  }
  const Graph g = builder.Build();
  const std::vector<uint64_t> sig = ComputeGdsSignatures(g);
  uint64_t total = 0;
  for (size_t o = 0; o < kGdsOrbits; ++o) total += sig[0 * kGdsOrbits + o];
  EXPECT_EQ(total, 4u);
  for (size_t k = 2; k <= 5; ++k) {
    EXPECT_EQ(sig[0 * kGdsOrbits + PathEndpointOrbit(k)], 1u);
  }
}

TEST(GdsSignatureTest, DifferentialAgainstBruteForce) {
  // >= 50 random graphs across sizes 4..12 and three densities.
  size_t graphs = 0;
  for (uint64_t seed = 0; seed < 54; ++seed) {
    const size_t n = 4 + seed % 9;
    const double p = 0.2 + 0.15 * static_cast<double>(seed % 3);
    const Graph g = RandomGraph(n, p, 1000 + seed);
    const std::vector<uint64_t> sig = ComputeGdsSignatures(g);
    for (VertexId u = 0; u < n; ++u) {
      const std::vector<uint64_t> expected = BruteForceSignature(g, u);
      for (size_t o = 0; o < kGdsOrbits; ++o) {
        ASSERT_EQ(sig[u * kGdsOrbits + o], expected[o])
            << "seed " << seed << " vertex " << u << " orbit " << o;
      }
    }
    ++graphs;
  }
  EXPECT_GE(graphs, 50u);
}

TEST(GdsSignatureTest, ThreadCountInvariant) {
  const Graph g = RandomGraph(60, 0.1, 7);
  SetThreadCount(1);
  const std::vector<uint64_t> serial = ComputeGdsSignatures(g);
  SetThreadCount(4);
  const std::vector<uint64_t> parallel = ComputeGdsSignatures(g);
  SetThreadCount(0);
  EXPECT_EQ(serial, parallel);
}

TEST(GdsPredictorTest, SimilarRolesVoteAndLeaveOneOutHolds) {
  // Two disjoint triangles; triangle A's other members carry cat 100,
  // triangle B carries 200. Protein 0's own (contradictory) annotation must
  // not influence its prediction: topology ties it to its own triangle.
  GraphBuilder builder(6);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2).ok());
  ASSERT_TRUE(builder.AddEdge(3, 4).ok());
  ASSERT_TRUE(builder.AddEdge(4, 5).ok());
  ASSERT_TRUE(builder.AddEdge(3, 5).ok());
  const Graph ppi = builder.Build();
  PredictionContext context;
  context.ppi = &ppi;
  context.categories = {100, 200};
  context.protein_categories = {{200}, {100}, {100}, {200}, {200}, {}};

  const GdsPredictor predictor(context);
  EXPECT_TRUE(predictor.Covers(0));
  // All six vertices have identical signatures (same orbit profile), so
  // the vote reduces to annotation frequency: 200 has 3 voters for protein
  // 0 at equal similarity vs 2 for 100... except protein 0 itself never
  // votes, leaving 100:2 vs 200:2 with sim ties broken by the prior.
  const auto self_excluded = predictor.Predict(0);
  ASSERT_EQ(self_excluded.size(), 2u);
  EXPECT_DOUBLE_EQ(predictor.Similarity(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(self_excluded[0].score, self_excluded[1].score);

  // The unannotated protein 5 sees the full electorate: 200 wins 3:2.
  const auto full = predictor.Predict(5);
  EXPECT_EQ(full[0].category, 200u);
  EXPECT_DOUBLE_EQ(full[0].score, 1.0);
}

TEST(GdsPredictorTest, PrecomputedSignaturesMatchComputed) {
  const Graph g = RandomGraph(40, 0.15, 11);
  PredictionContext context;
  context.ppi = &g;
  context.categories = {10, 20};
  context.protein_categories.assign(40, {});
  for (VertexId p = 0; p < 40; p += 3) {
    context.protein_categories[p] = {p % 2 == 0 ? TermId{10} : TermId{20}};
  }
  const GdsPredictor computed(context);
  const GdsPredictor precomputed(context, ComputeGdsSignatures(g));
  for (VertexId p = 0; p < 40; ++p) {
    const auto a = computed.Predict(p);
    const auto b = precomputed.Predict(p);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].category, b[i].category);
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }
}

}  // namespace
}  // namespace lamo
