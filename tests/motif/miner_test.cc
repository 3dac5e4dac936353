// Route-level tests of FindNetworkMotifs, the one motif-mining entry point
// (per-size ESU enumeration + uniqueness ensemble, esu_finder.h). The
// uniqueness ensemble is switched off (num_random_networks = 0) wherever a
// test is about Task 1 (repeated subgraphs) alone.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "motif/esu.h"
#include "motif/esu_finder.h"

namespace lamo {
namespace {

MotifFindingConfig FrequentOnly(size_t min_size, size_t max_size,
                                size_t min_frequency) {
  MotifFindingConfig config;
  config.min_size = min_size;
  config.max_size = max_size;
  config.min_frequency = min_frequency;
  config.num_random_networks = 0;
  return config;
}

TEST(MinerTest, FrequencyThresholdPrunes) {
  Rng rng(32);
  const Graph g = ErdosRenyi(30, 60, rng);
  const auto motifs = FindNetworkMotifs(g, FrequentOnly(3, 3, 5));
  const auto exact = CountSubgraphClasses(g, 3);
  size_t expected = 0;
  for (const auto& [code, count] : exact) expected += count >= 5 ? 1 : 0;
  EXPECT_EQ(motifs.size(), expected);
  for (const Motif& m : motifs) {
    EXPECT_GE(m.frequency, 5u);
    EXPECT_EQ(m.frequency, exact.at(m.code));
  }
}

TEST(MinerTest, OccurrencesAreAlignedEmbeddings) {
  Rng rng(33);
  const Graph g = ErdosRenyi(25, 55, rng);
  for (const Motif& m : FindNetworkMotifs(g, FrequentOnly(3, 4, 2))) {
    for (const MotifOccurrence& occ : m.occurrences) {
      ASSERT_EQ(occ.proteins.size(), m.size());
      // The embedding maps motif edges to graph edges and non-edges to
      // non-edges (vertex-induced occurrence).
      for (uint32_t a = 0; a < m.size(); ++a) {
        for (uint32_t b = a + 1; b < m.size(); ++b) {
          EXPECT_EQ(m.pattern.HasEdge(a, b),
                    g.HasEdge(occ.proteins[a], occ.proteins[b]));
        }
      }
    }
  }
}

TEST(MinerTest, OccurrenceSetsDistinct) {
  Rng rng(34);
  const Graph g = ErdosRenyi(25, 55, rng);
  for (const Motif& m : FindNetworkMotifs(g, FrequentOnly(3, 4, 1))) {
    std::set<std::vector<VertexId>> sets;
    for (const MotifOccurrence& occ : m.occurrences) {
      std::vector<VertexId> sorted = occ.proteins;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(sets.insert(sorted).second);
    }
    EXPECT_EQ(sets.size(), m.frequency);
  }
}

TEST(MinerTest, PlantedCliquePatternFound) {
  // Plant 12 disjoint triangles on top of a sparse random background.
  GraphBuilder builder(100);
  for (int t = 0; t < 12; ++t) {
    const VertexId base = static_cast<VertexId>(3 * t);
    ASSERT_TRUE(builder.AddEdge(base, base + 1).ok());
    ASSERT_TRUE(builder.AddEdge(base + 1, base + 2).ok());
    ASSERT_TRUE(builder.AddEdge(base, base + 2).ok());
  }
  // Background tail so the graph is bigger than the plants.
  for (VertexId v = 36; v + 1 < 100; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, v + 1).ok());
  }
  const Graph g = builder.Build();
  const auto motifs = FindNetworkMotifs(g, FrequentOnly(3, 3, 10));

  SmallGraph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  const auto triangle_code = CanonicalCode(triangle);
  bool found = false;
  for (const Motif& m : motifs) {
    if (m.code == triangle_code) {
      found = true;
      EXPECT_EQ(m.frequency, 12u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MinerTest, OccurrenceCapBoundsMemory) {
  // The cap bounds the stored list only: frequency stays the exact count,
  // and the stored occurrences are the first ones of the uncapped run.
  Rng rng(36);
  const Graph g = BarabasiAlbert(120, 3, rng);
  const auto exact = CountSubgraphClasses(g, 3);
  const auto uncapped = FindNetworkMotifs(g, FrequentOnly(3, 3, 1));
  MotifFindingConfig capped_config = FrequentOnly(3, 3, 1);
  capped_config.max_occurrences_per_pattern = 10;
  const auto capped = FindNetworkMotifs(g, capped_config);
  ASSERT_EQ(capped.size(), uncapped.size());
  bool any_capped = false;
  for (size_t i = 0; i < capped.size(); ++i) {
    const Motif& m = capped[i];
    EXPECT_EQ(m.occurrences.size(), std::min<size_t>(m.frequency, 10));
    EXPECT_EQ(m.frequency, exact.at(m.code));
    EXPECT_EQ(m.frequency, uncapped[i].frequency);
    ASSERT_EQ(m.code, uncapped[i].code);
    for (size_t o = 0; o < m.occurrences.size(); ++o) {
      EXPECT_EQ(m.occurrences[o].proteins,
                uncapped[i].occurrences[o].proteins);
    }
    any_capped = any_capped || m.frequency > 10;
  }
  EXPECT_TRUE(any_capped) << "the graph must have a class past the cap";
}

}  // namespace
}  // namespace lamo
