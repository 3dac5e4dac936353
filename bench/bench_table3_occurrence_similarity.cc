// Regenerates Tables 2-4 and the Figure-4 labeling of the paper's worked
// example: the SV pairing table between occurrences o1 and o2 (Table 3),
// the pairwise least-general ("minimum common father") labels (Table 4),
// and the resulting least general labeling scheme.
//
// Values follow the closure-consistent reconstruction of the example DAG
// (the paper's own Figure 1 and Table 1 disagree in one spot); the pairing
// structure and the grouping decision are preserved.
#include <iostream>

#include "core/label_profile.h"
#include "core/occurrence_similarity.h"
#include "core/paper_example.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main() {
  using namespace lamo;
  const PaperExample example = MakePaperExample();
  TermSimilarity st(example.ontology, example.weights);
  OccurrenceSimilarity so(st, example.motif);

  auto profile = [&](size_t occurrence_index) {
    const auto& occ = example.occurrences[occurrence_index];
    LabelProfile result(occ.size());
    for (size_t pos = 0; pos < occ.size(); ++pos) {
      const auto terms = example.protein_annotations.TermsOf(occ[pos]);
      result[pos].assign(terms.begin(), terms.end());
    }
    return result;
  };
  auto protein_name = [&](size_t occurrence_index, uint32_t pos) {
    std::string name = "P";
    name += std::to_string(example.occurrences[occurrence_index][pos] + 1);
    return name;
  };

  const LabelProfile o1 = profile(0);
  const LabelProfile o2 = profile(1);

  // --- Table 2: the annotations involved. ---
  std::cout << "=== Table 2 (excerpt): annotations of o1 and o2 ===\n\n";
  TablePrinter annotations({"occurrence", "vertex", "protein", "annotations"});
  for (size_t oi = 0; oi < 2; ++oi) {
    const LabelProfile& prof = oi == 0 ? o1 : o2;
    for (uint32_t pos = 0; pos < 4; ++pos) {
      std::string vertex = "v";
      vertex += std::to_string(pos + 1);
      annotations.AddRow({oi == 0 ? "o1" : "o2", vertex,
                          protein_name(oi, pos),
                          LabelSetToString(example.ontology, prof[pos])});
    }
  }
  annotations.Print(std::cout);

  // --- Table 3: SV scores under the best symmetric pairing. ---
  std::vector<uint32_t> pairing;
  const double so_score = so.Score(o1, o2, &pairing);
  std::cout << "\n=== Table 3: similarity between occurrences o1 and o2 "
               "===\n\n";
  TablePrinter sv_table({"o1 vertex", "o2 vertex (best pairing)", "SV"});
  for (uint32_t pos = 0; pos < 4; ++pos) {
    sv_table.AddRow(
        {protein_name(0, pos) + " " +
             LabelSetToString(example.ontology, o1[pos]),
         protein_name(1, pairing[pos]) + " " +
             LabelSetToString(example.ontology, o2[pairing[pos]]),
         FormatDouble(VertexSimilarity(st, o1[pos], o2[pairing[pos]]), 2)});
  }
  sv_table.AddRow({"SO score", "", FormatDouble(so_score, 2)});
  sv_table.Print(std::cout);
  std::cout << "\nPaper reports SO(o1, o2) = 0.87 under its example DAG; "
               "the grouping decision (o1 with o2) is preserved:\n";
  const LabelProfile o3 = profile(2);
  std::cout << "  SO(o1, o2) = " << FormatDouble(so.Score(o1, o2), 2)
            << "  vs  SO(o1, o3) = " << FormatDouble(so.Score(o1, o3), 2)
            << "\n";

  // --- Table 4: pairwise least-general ("minimum common father") labels. ---
  std::cout << "\n=== Table 4: minimum common father labels of o1 and o2 "
               "===\n\n";
  TablePrinter lca_table({"o1 labels", "o2 labels", "common labels",
                          "label candidates only (Figure 4)"});
  std::vector<bool> candidate_filter(example.ontology.num_terms());
  for (TermId t = 0; t < example.ontology.num_terms(); ++t) {
    candidate_filter[t] = example.informative.IsLabelCandidate(t);
  }
  for (uint32_t pos = 0; pos < 4; ++pos) {
    const LabelSet& a = o1[pos];
    const LabelSet& b = o2[pairing[pos]];
    lca_table.AddRow(
        {LabelSetToString(example.ontology, a),
         LabelSetToString(example.ontology, b),
         LabelSetToString(example.ontology,
                          LeastGeneralLabels(st, a, b, nullptr)),
         LabelSetToString(example.ontology,
                          LeastGeneralLabels(st, a, b, &candidate_filter))});
  }
  lca_table.Print(std::cout);
  return 0;
}
