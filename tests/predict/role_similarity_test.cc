#include <gtest/gtest.h>

#include "parallel/parallel_for.h"
#include "predict/role_similarity.h"
#include "util/random.h"

namespace lamo {
namespace {

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

TEST(RoleVectorsTest, ShapeAndRange) {
  const Graph g = RandomGraph(30, 0.2, 3);
  const std::vector<double> vectors = ComputeRoleVectors(g);
  ASSERT_EQ(vectors.size(), 30 * kRoleIterations);
  for (const double v : vectors) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RoleVectorsTest, FirstFeatureOrdersByDegree) {
  // Star: the center has the largest degree, so its first (walk-length-1)
  // feature must be the column max.
  GraphBuilder builder(5);
  for (VertexId leaf = 1; leaf < 5; ++leaf) {
    ASSERT_TRUE(builder.AddEdge(0, leaf).ok());
  }
  const Graph g = builder.Build();
  const std::vector<double> vectors = ComputeRoleVectors(g);
  EXPECT_DOUBLE_EQ(vectors[0 * kRoleIterations], 1.0);
  for (VertexId leaf = 1; leaf < 5; ++leaf) {
    EXPECT_LT(vectors[leaf * kRoleIterations], 1.0);
  }
}

TEST(RoleVectorsTest, ThreadCountInvariantBits) {
  const Graph g = RandomGraph(200, 0.05, 17);
  SetThreadCount(1);
  const std::vector<double> serial = ComputeRoleVectors(g);
  SetThreadCount(4);
  const std::vector<double> parallel = ComputeRoleVectors(g);
  SetThreadCount(0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Bit-exact, not approximate: the serving byte-identity contract
    // depends on it.
    EXPECT_EQ(serial[i], parallel[i]) << i;
  }
}

TEST(RolePredictorTest, SymmetricVerticesAreMaximallySimilar) {
  // Two disjoint triangles: all six vertices play identical roles.
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

  const RolePredictor predictor(context);
  EXPECT_DOUBLE_EQ(predictor.Similarity(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(predictor.Similarity(2, 5), 1.0);
  EXPECT_DOUBLE_EQ(predictor.Similarity(0, 3), predictor.Similarity(3, 0));

  // Protein 5 (unannotated) sees votes 200:3 vs 100:2 at equal similarity.
  const auto predictions = predictor.Predict(5);
  EXPECT_EQ(predictions[0].category, 200u);
  EXPECT_DOUBLE_EQ(predictions[0].score, 1.0);
}

TEST(RolePredictorTest, LeaveOneOutExcludesSelf) {
  GraphBuilder builder(4);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2).ok());
  ASSERT_TRUE(builder.AddEdge(2, 3).ok());
  const Graph ppi = builder.Build();
  PredictionContext context;
  context.ppi = &ppi;
  context.categories = {7, 9};
  context.protein_categories = {{7}, {9}, {9}, {7}};
  const RolePredictor predictor(context);

  // Changing p's own annotation must not change its prediction.
  PredictionContext mutated = context;
  mutated.protein_categories[0] = {9};
  const RolePredictor mutated_predictor(mutated);
  const auto a = predictor.Predict(0);
  const auto b = mutated_predictor.Predict(0);
  ASSERT_EQ(a.size(), b.size());
  // The electorate for p=0 is unchanged, so the prediction is identical.
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST(RolePredictorTest, PrecomputedVectorsMatchComputed) {
  const Graph g = RandomGraph(50, 0.1, 23);
  PredictionContext context;
  context.ppi = &g;
  context.categories = {10, 20};
  context.protein_categories.assign(50, {});
  for (VertexId p = 0; p < 50; p += 4) {
    context.protein_categories[p] = {p % 8 == 0 ? TermId{10} : TermId{20}};
  }
  const RolePredictor computed(context);
  const RolePredictor precomputed(context, ComputeRoleVectors(g),
                                  kRoleIterations);
  for (VertexId p = 0; p < 50; ++p) {
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
