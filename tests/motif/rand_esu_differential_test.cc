// Differential test of RAND-ESU sampling on the index engine (the sampling
// policy of esu_internal::Engine behind SampleConnectedSubgraphs and
// SampleSubgraphClasses) against the recursive walk it replaced, kept as
// oracle::LegacyEsu. Both flip one coin per root and one per extension
// candidate in the same order, so with equal Rng seeds they must emit the
// same *sequence* of sets and bit-identical weighted class estimates — on
// the dense-bitset index and on the CSR-only one.
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph_index.h"
#include "motif/esu.h"
#include "oracle/legacy_esu.h"
#include "util/random.h"

namespace lamo {
namespace {

using SetSequence = std::vector<std::vector<VertexId>>;

SetSequence OracleSample(const Graph& g, size_t k,
                         const std::vector<double>& probabilities,
                         uint64_t seed) {
  SetSequence sets;
  Rng rng(seed);
  oracle::LegacyEsu(g, k, &probabilities, &rng,
                    [&](const std::vector<VertexId>& set) {
                      sets.push_back(set);
                      return true;
                    });
  return sets;
}

SetSequence EngineSample(const GraphIndex& index, size_t k,
                         const std::vector<double>& probabilities,
                         uint64_t seed) {
  SetSequence sets;
  Rng rng(seed);
  SampleConnectedSubgraphs(index, k, probabilities, rng,
                           [&](const std::vector<VertexId>& set) {
                             sets.push_back(set);
                             return true;
                           });
  return sets;
}

void ExpectSameCounts(const SampledSubgraphCounts& got,
                      const SampledSubgraphCounts& want) {
  EXPECT_EQ(got.samples, want.samples);
  // Same samples summed in the same order: exact equality, not a tolerance.
  EXPECT_EQ(got.estimated_total, want.estimated_total);
  EXPECT_EQ(got.estimated_counts, want.estimated_counts);
}

// Per-depth probability vectors of length k: exhaustive, root-only,
// leaf-only, every level, and a mix with a certain level in between.
std::vector<std::vector<double>> ProbabilityVectors(size_t k) {
  std::vector<std::vector<double>> vectors;
  vectors.emplace_back(k, 1.0);
  std::vector<double> root(k, 1.0);
  root[0] = 0.5;
  vectors.push_back(root);
  std::vector<double> leaf(k, 1.0);
  leaf[k - 1] = 0.3;
  vectors.push_back(leaf);
  vectors.emplace_back(k, 0.8);
  std::vector<double> mixed(k, 1.0);
  for (size_t d = 0; d < k; d += 2) mixed[d] = 0.6;
  vectors.push_back(mixed);
  return vectors;
}

TEST(RandEsuDifferentialTest, EngineMatchesLegacyWalkOnRandomGraphs) {
  Rng rng(20061003);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 5 + rng.Uniform(12);  // 5..16
    const size_t max_edges = n * (n - 1) / 2;
    // Sparse to dense: up to a third of all pairs on half the trials.
    const size_t m = rng.Uniform((trial % 2 == 0 ? max_edges / 3 : max_edges) +
                                 1);
    Rng graph_rng(rng.Next64());
    const Graph g = ErdosRenyi(n, m, graph_rng);
    const GraphIndex dense_index(g);
    const GraphIndex sparse_index(g, 0);
    ASSERT_TRUE(dense_index.dense());
    ASSERT_FALSE(sparse_index.dense());
    for (size_t k = 1; k <= 5 && k <= n; ++k) {
      for (const std::vector<double>& p : ProbabilityVectors(k)) {
        for (const uint64_t seed : {uint64_t{1}, uint64_t{20070415}}) {
          SCOPED_TRACE(testing::Message()
                       << "trial " << trial << " n=" << n << " m=" << m
                       << " k=" << k << " p[0]=" << p[0] << " p[k-1]="
                       << p[k - 1] << " seed=" << seed);
          const SetSequence want = OracleSample(g, k, p, seed);
          EXPECT_EQ(EngineSample(dense_index, k, p, seed), want);
          EXPECT_EQ(EngineSample(sparse_index, k, p, seed), want);

          Rng oracle_rng(seed);
          const SampledSubgraphCounts want_counts =
              oracle::LegacySampleSubgraphClasses(g, k, p, oracle_rng);
          Rng dense_rng(seed);
          ExpectSameCounts(
              SampleSubgraphClasses(dense_index, k, p, dense_rng),
              want_counts);
          Rng sparse_rng(seed);
          ExpectSameCounts(
              SampleSubgraphClasses(sparse_index, k, p, sparse_rng),
              want_counts);
        }
      }
    }
  }
}

TEST(RandEsuDifferentialTest, SamplerLeavesRngWhereTheLegacyWalkDoes) {
  // Equal coin consumption, not just equal output: after a sampled run the
  // two generators must produce the same next draws.
  Rng graph_rng(5);
  const Graph g = BarabasiAlbert(60, 2, graph_rng);
  const GraphIndex index(g);
  const std::vector<double> p = {0.9, 1.0, 0.5, 0.7};
  Rng oracle_rng(123);
  oracle::LegacyEsu(g, 4, &p, &oracle_rng,
                    [](const std::vector<VertexId>&) { return true; });
  Rng engine_rng(123);
  SampleConnectedSubgraphs(index, 4, p, engine_rng,
                           [](const std::vector<VertexId>&) { return true; });
  for (int i = 0; i < 4; ++i) EXPECT_EQ(engine_rng.Next64(), oracle_rng.Next64());
}

}  // namespace
}  // namespace lamo
