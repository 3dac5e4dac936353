#include "motif/esu_finder.h"

#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "motif/esu.h"

namespace lamo {
namespace {

TEST(EsuFinderTest, OccurrencesAreAligned) {
  Rng rng(92);
  const Graph g = ErdosRenyi(25, 55, rng);
  EsuMotifConfig config;
  config.size = 3;
  config.min_frequency = 1;
  config.num_random_networks = 0;
  for (const Motif& m : FindNetworkMotifsEsu(g, config)) {
    for (const MotifOccurrence& occ : m.occurrences) {
      for (uint32_t a = 0; a < 3; ++a) {
        for (uint32_t b = a + 1; b < 3; ++b) {
          EXPECT_EQ(m.pattern.HasEdge(a, b),
                    g.HasEdge(occ.proteins[a], occ.proteins[b]));
        }
      }
    }
  }
}

TEST(EsuFinderTest, UniquenessFiltersCommonShapes) {
  // Planted chordless squares on a sparse background: the square passes,
  // the ubiquitous path does not.
  GraphBuilder builder(80);
  for (int s = 0; s < 12; ++s) {
    const VertexId base = static_cast<VertexId>(4 * s);
    ASSERT_TRUE(builder.AddEdge(base, base + 1).ok());
    ASSERT_TRUE(builder.AddEdge(base + 1, base + 2).ok());
    ASSERT_TRUE(builder.AddEdge(base + 2, base + 3).ok());
    ASSERT_TRUE(builder.AddEdge(base + 3, base).ok());
  }
  for (VertexId v = 48; v + 1 < 80; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, v + 1).ok());
  }
  Rng rng(93);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(builder
                    .AddEdge(static_cast<VertexId>(rng.Uniform(48)),
                             48 + static_cast<VertexId>(rng.Uniform(32)))
                    .ok());
  }
  const Graph g = builder.Build();

  EsuMotifConfig config;
  config.size = 4;
  config.min_frequency = 8;
  config.num_random_networks = 10;
  config.uniqueness_threshold = 0.9;
  config.seed = 3;
  const auto motifs = FindNetworkMotifsEsu(g, config);

  SmallGraph square(4);
  square.AddEdge(0, 1);
  square.AddEdge(1, 2);
  square.AddEdge(2, 3);
  square.AddEdge(3, 0);
  bool square_found = false;
  for (const Motif& m : motifs) {
    EXPECT_GE(m.uniqueness, 0.9);
    if (m.code == CanonicalCode(square)) square_found = true;
  }
  EXPECT_TRUE(square_found);
}

TEST(EsuFinderTest, Deterministic) {
  Rng rng(94);
  const Graph g = BarabasiAlbert(60, 2, rng);
  EsuMotifConfig config;
  config.size = 3;
  config.min_frequency = 5;
  config.num_random_networks = 4;
  config.uniqueness_threshold = -1.0;
  const auto a = FindNetworkMotifsEsu(g, config);
  const auto b = FindNetworkMotifsEsu(g, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].code, b[i].code);
    EXPECT_EQ(a[i].frequency, b[i].frequency);
    EXPECT_DOUBLE_EQ(a[i].uniqueness, b[i].uniqueness);
  }
}

TEST(EsuFinderTest, CappedRunResumesFromItsCheckpoints) {
  // The occurrence cap and the exact counts travel in the enumeration
  // checkpoint: a run resumed from a capped run's saves reproduces it, and
  // a checkpoint written under another cap is not reused.
  Rng rng(95);
  const Graph g = BarabasiAlbert(90, 3, rng);
  EsuMotifConfig config;
  config.size = 3;
  config.min_frequency = 1;
  config.num_random_networks = 2;
  config.uniqueness_threshold = -1.0;
  config.max_occurrences_per_pattern = 7;
  config.checkpoint.dir = ::testing::TempDir() + "/esu_finder_capped_ckpt";
  const auto first = FindNetworkMotifsEsu(g, config);
  config.checkpoint.resume = true;
  const auto resumed = FindNetworkMotifsEsu(g, config);
  config.max_occurrences_per_pattern = 3;
  const auto recapped = FindNetworkMotifsEsu(g, config);

  const auto exact = CountSubgraphClasses(g, 3);
  ASSERT_EQ(first.size(), exact.size());
  ASSERT_EQ(resumed.size(), first.size());
  ASSERT_EQ(recapped.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].frequency, exact.at(first[i].code));
    EXPECT_EQ(resumed[i].code, first[i].code);
    EXPECT_EQ(resumed[i].frequency, first[i].frequency);
    EXPECT_DOUBLE_EQ(resumed[i].uniqueness, first[i].uniqueness);
    ASSERT_EQ(resumed[i].occurrences.size(), first[i].occurrences.size());
    for (size_t o = 0; o < first[i].occurrences.size(); ++o) {
      EXPECT_EQ(resumed[i].occurrences[o].proteins,
                first[i].occurrences[o].proteins);
    }
    EXPECT_EQ(recapped[i].frequency, first[i].frequency);
    EXPECT_EQ(recapped[i].occurrences.size(),
              std::min<size_t>(first[i].frequency, 3));
  }
}

}  // namespace
}  // namespace lamo
