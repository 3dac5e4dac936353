#include "core/paper_example.h"

#include <cmath>

#include "util/logging.h"

namespace lamo {
namespace {

constexpr int kNumTerms = 11;

// Direct annotation counts of Table 1, indexed by term (G01..G11).
constexpr size_t kDirectCounts[kNumTerms] = {0,  0,  20, 100, 70, 150,
                                             10, 25, 100, 90, 20};

// Closure counts of Table 1 ("annotated with t and its descendants"),
// validated at fixture construction.
constexpr size_t kClosureCounts[kNumTerms] = {585, 415, 475, 245, 280, 250,
                                              100, 135, 100, 90,  20};

}  // namespace

TermId PaperExample::term(const std::string& name) const {
  const TermId t = ontology.FindTerm(name);
  LAMO_CHECK(t != kInvalidTerm) << "unknown example term " << name;
  return t;
}

ProteinId PaperExample::protein(int one_based) const {
  LAMO_CHECK_GE(one_based, 1);
  LAMO_CHECK_LE(one_based, 22);
  return static_cast<ProteinId>(one_based - 1);
}

PaperExample MakePaperExample() {
  PaperExample ex;

  // --- Ontology (Figure 1, reconstructed; see header comment). ---
  OntologyBuilder builder;
  std::vector<TermId> g(kNumTerms + 1);  // g[1] = G01 ... g[11] = G11
  for (int i = 1; i <= kNumTerms; ++i) {
    std::string name = i < 10 ? "G0" : "G";
    name += std::to_string(i);
    g[i] = builder.AddTerm(name);
  }
  auto rel = [&](int child, int parent, RelationType r) {
    LAMO_CHECK(builder.AddRelation(g[child], g[parent], r).ok());
  };
  rel(2, 1, RelationType::kIsA);
  rel(3, 1, RelationType::kIsA);
  rel(4, 2, RelationType::kIsA);
  rel(5, 2, RelationType::kIsA);
  rel(5, 3, RelationType::kIsA);
  rel(6, 3, RelationType::kPartOf);
  rel(8, 3, RelationType::kIsA);
  rel(7, 4, RelationType::kIsA);
  rel(8, 4, RelationType::kIsA);
  rel(9, 5, RelationType::kPartOf);
  rel(10, 5, RelationType::kIsA);
  rel(11, 5, RelationType::kIsA);
  rel(9, 6, RelationType::kPartOf);
  rel(10, 7, RelationType::kIsA);
  rel(10, 8, RelationType::kIsA);
  rel(11, 8, RelationType::kIsA);
  auto built = builder.Build();
  LAMO_CHECK(built.ok()) << built.status().ToString();
  ex.ontology = std::move(built).value();

  // --- Genome: 585 proteins, one direct term each (Table 1 counts). ---
  size_t total = 0;
  for (int i = 1; i <= kNumTerms; ++i) total += kDirectCounts[i - 1];
  LAMO_CHECK_EQ(total, 585u);
  ex.genome = AnnotationTable(total);
  {
    ProteinId next = 0;
    for (int i = 1; i <= kNumTerms; ++i) {
      for (size_t c = 0; c < kDirectCounts[i - 1]; ++c) {
        LAMO_CHECK(ex.genome.Annotate(next++, g[i]).ok());
      }
    }
  }
  // Validate the closure counts against Table 1.
  const std::vector<size_t> closure = ex.genome.ClosureCounts(ex.ontology);
  for (int i = 1; i <= kNumTerms; ++i) {
    LAMO_CHECK_EQ(closure[g[i]], kClosureCounts[i - 1])
        << "closure count mismatch for G" << i;
  }
  ex.weights = TermWeights::Compute(ex.ontology, ex.genome);
  ex.informative = InformativeClasses::Compute(ex.ontology, ex.genome);

  // --- Motif g (Figure 2): 4-cycle v1-v2-v3-v4. ---
  ex.motif = SmallGraph(4);
  ex.motif.AddEdge(0, 1);
  ex.motif.AddEdge(1, 2);
  ex.motif.AddEdge(2, 3);
  ex.motif.AddEdge(3, 0);

  // --- PPI network G (Figure 3): P1..P22 (vertices 0..21). ---
  GraphBuilder ppi(22);
  auto edge = [&](int a, int b) {
    LAMO_CHECK(ppi.AddEdge(static_cast<VertexId>(a - 1),
                           static_cast<VertexId>(b - 1))
                   .ok());
  };
  // Occurrence cycles (chordless 4-cycles).
  edge(1, 2), edge(2, 3), edge(3, 4), edge(4, 1);        // o1
  edge(12, 9), edge(9, 10), edge(10, 11), edge(11, 12);  // o2
  edge(5, 6), edge(6, 7), edge(7, 8), edge(8, 5);        // o3
  edge(13, 14), edge(14, 15), edge(15, 16), edge(16, 13);  // o4
  // Background proteins P17..P22, attached as bridges (no new cycles).
  edge(17, 1), edge(18, 17), edge(19, 18), edge(20, 19), edge(21, 20),
      edge(22, 21);
  edge(22, 9), edge(20, 5), edge(19, 13);
  ex.ppi = ppi.Build();

  // --- Occurrences in motif vertex order [v1, v2, v3, v4] (Figure 4). ---
  auto p = [](int one_based) { return static_cast<VertexId>(one_based - 1); };
  ex.occurrences = {
      {p(1), p(2), p(3), p(4)},
      {p(12), p(9), p(10), p(11)},
      {p(5), p(6), p(7), p(8)},
      {p(13), p(14), p(15), p(16)},
  };

  // --- Protein annotations (Table 2); P17..P22 unannotated. ---
  ex.protein_annotations = AnnotationTable(22);
  auto annotate = [&](int protein_1b, std::initializer_list<int> terms) {
    for (int t : terms) {
      LAMO_CHECK(ex.protein_annotations.Annotate(p(protein_1b), g[t]).ok());
    }
  };
  annotate(1, {4, 9, 10});
  annotate(2, {3, 10});
  annotate(3, {8});
  annotate(4, {7, 9});
  annotate(5, {3});
  annotate(6, {10});
  annotate(7, {3});
  annotate(8, {5});
  annotate(9, {10, 11});
  annotate(10, {3, 5, 7});
  annotate(11, {5});
  annotate(12, {9});
  annotate(13, {11});
  annotate(14, {4, 5});
  annotate(15, {4});
  annotate(16, {4, 9});
  return ex;
}

}  // namespace lamo
