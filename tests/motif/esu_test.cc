#include "motif/esu.h"

#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "oracle/isomorphism.h"

namespace lamo {
namespace {

Graph MakeK4() {
  GraphBuilder b(4);
  for (VertexId i = 0; i < 4; ++i) {
    for (VertexId j = i + 1; j < 4; ++j) {
      EXPECT_TRUE(b.AddEdge(i, j).ok());
    }
  }
  return b.Build();
}

Graph MakePath(size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) {
    EXPECT_TRUE(b.AddEdge(v, v + 1).ok());
  }
  return b.Build();
}

size_t CountSets(const Graph& g, size_t k) {
  size_t count = 0;
  EnumerateConnectedSubgraphs(g, k, [&](const std::vector<VertexId>&) {
    ++count;
    return true;
  });
  return count;
}

TEST(EsuTest, K4AllTriples) {
  EXPECT_EQ(CountSets(MakeK4(), 3), 4u);  // C(4,3)
}

TEST(EsuTest, PathConnectedSubsets) {
  // A path of n vertices has exactly n-k+1 connected size-k subsets.
  const Graph path = MakePath(10);
  EXPECT_EQ(CountSets(path, 3), 8u);
  EXPECT_EQ(CountSets(path, 5), 6u);
  EXPECT_EQ(CountSets(path, 10), 1u);
}

TEST(EsuTest, EachSetEmittedOnce) {
  Rng rng(21);
  const Graph g = ErdosRenyi(25, 60, rng);
  std::set<std::vector<VertexId>> seen;
  EnumerateConnectedSubgraphs(g, 4, [&](const std::vector<VertexId>& set) {
    EXPECT_TRUE(seen.insert(set).second) << "duplicate vertex set";
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
    return true;
  });
  EXPECT_FALSE(seen.empty());
}

TEST(EsuTest, SetsAreConnected) {
  Rng rng(22);
  const Graph g = ErdosRenyi(20, 40, rng);
  EnumerateConnectedSubgraphs(g, 4, [&](const std::vector<VertexId>& set) {
    EXPECT_TRUE(SmallGraph::InducedSubgraph(g, set).IsConnected());
    return true;
  });
}

TEST(EsuTest, EarlyStop) {
  const Graph k4 = MakeK4();
  size_t count = 0;
  EnumerateConnectedSubgraphs(k4, 3, [&](const std::vector<VertexId>&) {
    return ++count < 2;
  });
  EXPECT_EQ(count, 2u);
}

TEST(EsuTest, DegenerateSizes) {
  const Graph k4 = MakeK4();
  EXPECT_EQ(CountSets(k4, 0), 0u);
  EXPECT_EQ(CountSets(k4, 1), 4u);
  EXPECT_EQ(CountSets(k4, 5), 0u);  // larger than the graph
}

TEST(EsuTest, ClassCountsAgreeWithVf2) {
  // For every class ESU finds, VF2 occurrence counting must agree.
  Rng rng(23);
  const Graph g = ErdosRenyi(22, 45, rng);
  const auto classes = CountSubgraphClasses(g, 4);
  size_t total = 0;
  for (const auto& [code, count] : classes) {
    total += count;
    // Reconstruct one representative by finding a set with this code.
    SmallGraph representative(0);
    EnumerateConnectedSubgraphs(g, 4, [&](const std::vector<VertexId>& set) {
      const SmallGraph sub = SmallGraph::InducedSubgraph(g, set);
      if (CanonicalCode(sub) == code) {
        representative = sub;
        return false;
      }
      return true;
    });
    ASSERT_EQ(representative.num_vertices(), 4u);
    EXPECT_EQ(CountOccurrences(representative, g), count);
  }
  EXPECT_EQ(total, CountSets(g, 4));
}

TEST(RandEsuTest, FullProbabilityMatchesExhaustive) {
  Rng rng(24);
  const Graph g = ErdosRenyi(20, 45, rng);
  const auto exact = CountSubgraphClasses(g, 3);
  Rng sample_rng(25);
  const auto sampled =
      SampleSubgraphClasses(g, 3, {1.0, 1.0, 1.0}, sample_rng);
  ASSERT_EQ(sampled.estimated_counts.size(), exact.size());
  for (const auto& [code, count] : exact) {
    EXPECT_NEAR(sampled.estimated_counts.at(code),
                static_cast<double>(count), 1e-9);
  }
}

TEST(RandEsuTest, PartialSamplingUnbiasedish) {
  Rng rng(26);
  const Graph g = BarabasiAlbert(150, 3, rng);
  const auto exact = CountSubgraphClasses(g, 3);
  double exact_total = 0;
  for (const auto& [code, count] : exact) exact_total += count;

  // Average several sampling runs; the estimate of the total should land
  // within ~15% of the truth.
  double estimate_sum = 0.0;
  const int runs = 8;
  for (int r = 0; r < runs; ++r) {
    Rng sample_rng(100 + r);
    const auto sampled =
        SampleSubgraphClasses(g, 3, {1.0, 0.7, 0.7}, sample_rng);
    estimate_sum += sampled.estimated_total;
    EXPECT_LT(sampled.samples, static_cast<size_t>(exact_total));
  }
  EXPECT_NEAR(estimate_sum / runs, exact_total, exact_total * 0.15);
}

}  // namespace
}  // namespace lamo
