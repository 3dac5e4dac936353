#include "core/paper_example.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/automorphism.h"
#include "oracle/isomorphism.h"
#include "util/string_util.h"

namespace lamo {
namespace {

class PaperExampleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { example_ = new PaperExample(MakePaperExample()); }
  static void TearDownTestSuite() {
    delete example_;
    example_ = nullptr;
  }
  static PaperExample* example_;
};

PaperExample* PaperExampleTest::example_ = nullptr;

TEST_F(PaperExampleTest, Table1WeightsExact) {
  // The two-decimal weights of Table 1, in order G01..G11.
  const double expected[] = {1.00, 0.71, 0.81, 0.42, 0.48, 0.43,
                             0.17, 0.23, 0.17, 0.15, 0.03};
  for (int i = 1; i <= 11; ++i) {
    std::string name = i < 10 ? "G0" : "G";
    name += std::to_string(i);
    const TermId t = example_->term(name);
    const double w = example_->weights.Weight(t);
    EXPECT_NEAR(w, expected[i - 1], 0.005)
        << "weight of G" << i << " = " << w;
  }
}

TEST_F(PaperExampleTest, G04WeightStory) {
  // "the weight of G04 is 0.42 because 245 out of 585 proteins are
  // annotated with G04 or its descendants".
  EXPECT_NEAR(example_->weights.Weight(example_->term("G04")), 245.0 / 585.0,
              1e-12);
}

TEST_F(PaperExampleTest, InformativeClassesMatchPaper) {
  // "G04, G05, G06, G09, and G10 are informative FC."
  const char* informative[] = {"G04", "G05", "G06", "G09", "G10"};
  const char* not_informative[] = {"G01", "G02", "G03", "G07", "G08", "G11"};
  for (const char* name : informative) {
    EXPECT_TRUE(example_->informative.IsInformative(example_->term(name)))
        << name;
  }
  for (const char* name : not_informative) {
    EXPECT_FALSE(example_->informative.IsInformative(example_->term(name)))
        << name;
  }
}

TEST_F(PaperExampleTest, BorderInformativeExcludesG09G10) {
  // G09 and G10 have the informative ancestor G05, so the border is
  // {G04, G05, G06}.
  EXPECT_TRUE(example_->informative.IsBorderInformative(example_->term("G04")));
  EXPECT_TRUE(example_->informative.IsBorderInformative(example_->term("G05")));
  EXPECT_TRUE(example_->informative.IsBorderInformative(example_->term("G06")));
  EXPECT_FALSE(
      example_->informative.IsBorderInformative(example_->term("G09")));
  EXPECT_FALSE(
      example_->informative.IsBorderInformative(example_->term("G10")));
}

TEST_F(PaperExampleTest, HierarchyFactsFromSection2) {
  const Ontology& onto = example_->ontology;
  // "G04 is a child of G02 following the is-a relationship."
  EXPECT_TRUE(onto.IsAncestorOrEqual(example_->term("G02"),
                                     example_->term("G04")));
  // "G06 is a child of G03 following the part-of relationship."
  const TermId g06 = example_->term("G06");
  const auto parents = onto.Parents(g06);
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(parents[0], example_->term("G03"));
  EXPECT_EQ(onto.ParentRelations(g06)[0], RelationType::kPartOf);
  // "G05 has G02 and G03 as its parents."
  const auto g05_parents = onto.Parents(example_->term("G05"));
  ASSERT_EQ(g05_parents.size(), 2u);
  EXPECT_EQ(g05_parents[0], example_->term("G02"));
  EXPECT_EQ(g05_parents[1], example_->term("G03"));
  // "G10 is in fact a descendant of G08" (the o1 labeling discussion).
  EXPECT_TRUE(onto.IsAncestorOrEqual(example_->term("G08"),
                                     example_->term("G10")));
  // "p3's annotation of G08 is a descendant of G04".
  EXPECT_TRUE(onto.IsAncestorOrEqual(example_->term("G04"),
                                     example_->term("G08")));
  // "p4's annotation of G09 is a descendant of G05".
  EXPECT_TRUE(onto.IsAncestorOrEqual(example_->term("G05"),
                                     example_->term("G09")));
}

TEST_F(PaperExampleTest, MotifHasPaperSymmetricSets) {
  const auto sets = SymmetricVertexSets(example_->motif);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0], (std::vector<uint32_t>{0, 2}));  // {v1, v3}
  EXPECT_EQ(sets[1], (std::vector<uint32_t>{1, 3}));  // {v2, v4}
}

TEST_F(PaperExampleTest, PpiContainsExactlyTheFourOccurrences) {
  const auto occurrences = FindOccurrences(example_->motif, example_->ppi);
  EXPECT_EQ(occurrences.size(), 4u);
}

TEST_F(PaperExampleTest, ListedOccurrencesAreCycles) {
  for (const auto& occ : example_->occurrences) {
    ASSERT_EQ(occ.size(), 4u);
    EXPECT_TRUE(example_->ppi.HasEdge(occ[0], occ[1]));
    EXPECT_TRUE(example_->ppi.HasEdge(occ[1], occ[2]));
    EXPECT_TRUE(example_->ppi.HasEdge(occ[2], occ[3]));
    EXPECT_TRUE(example_->ppi.HasEdge(occ[3], occ[0]));
    EXPECT_FALSE(example_->ppi.HasEdge(occ[0], occ[2]));
    EXPECT_FALSE(example_->ppi.HasEdge(occ[1], occ[3]));
  }
}

TEST_F(PaperExampleTest, Table2Annotations) {
  // Spot-check Table 2 rows.
  const auto p1 = example_->protein_annotations.TermsOf(example_->protein(1));
  ASSERT_EQ(p1.size(), 3u);
  EXPECT_EQ(p1[0], example_->term("G04"));
  EXPECT_EQ(p1[1], example_->term("G09"));
  EXPECT_EQ(p1[2], example_->term("G10"));

  const auto p12 =
      example_->protein_annotations.TermsOf(example_->protein(12));
  ASSERT_EQ(p12.size(), 1u);
  EXPECT_EQ(p12[0], example_->term("G09"));

  EXPECT_FALSE(example_->protein_annotations.IsAnnotated(
      example_->protein(17)));
  EXPECT_FALSE(example_->protein_annotations.IsAnnotated(
      example_->protein(22)));
}

}  // namespace
}  // namespace lamo
