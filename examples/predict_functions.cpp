// Protein function prediction with labeled network motifs (Section 5 of the
// paper) against the four baselines, on a scaled-down MIPS-like dataset.
//
// Usage: predict_functions [--proteins N]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/lamofinder.h"
#include "motif/esu_finder.h"
#include "predict/chi_square.h"
#include "predict/dataset_context.h"
#include "predict/evaluation.h"
#include "predict/labeled_motif_predictor.h"
#include "predict/mrf.h"
#include "predict/neighbor_counting.h"
#include "predict/prodistin.h"
#include "synth/dataset.h"

int main(int argc, char** argv) {
  using namespace lamo;
  size_t num_proteins = 800;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--proteins") == 0) {
      num_proteins = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  SyntheticDatasetConfig config = MipsScaleConfig();
  config.num_proteins = num_proteins;
  config.copies_per_template = 40;
  config.template_min_size = 4;
  config.template_max_size = 5;
  config.role_annotation_probability = 0.9;
  config.complex_template_fraction = 0.0;
  config.informative_threshold = std::max<size_t>(5, num_proteins / 100);
  const SyntheticDataset dataset = BuildSyntheticDataset(config);
  std::printf("dataset: %s, %zu categories\n", dataset.ppi.ToString().c_str(),
              dataset.categories.size());

  // Mine and label motifs.
  MotifFindingConfig motif_config;
  motif_config.min_size = 4;
  motif_config.max_size = 5;
  motif_config.min_frequency = 30;
  motif_config.num_random_networks = 10;
  motif_config.uniqueness_threshold = 0.95;  // the paper's motif criterion
  const auto motifs = FindNetworkMotifs(dataset.ppi, motif_config);

  LaMoFinder finder(dataset.ontology, dataset.weights, dataset.informative,
                    dataset.annotations);
  LaMoFinderConfig label_config;
  label_config.sigma = 8;
  label_config.max_occurrences = 200;
  const auto labeled = finder.LabelAll(motifs, label_config);
  std::printf("labeled motifs: %zu\n", labeled.size());

  // Predictors.
  const PredictionContext context = BuildPredictionContext(dataset);
  LabeledMotifPredictor motif_predictor(context, dataset.ontology, labeled);
  NeighborCountingPredictor nc(context);
  ChiSquarePredictor chi2(context);
  MrfPredictor mrf(context);
  ProdistinConfig prodistin_config;
  prodistin_config.max_tree_proteins = 500;
  ProdistinPredictor prodistin(context, prodistin_config);
  std::printf("labeled-motif coverage of annotated proteins: %.1f%%\n",
              100.0 * motif_predictor.CoverageOfAnnotated());

  // Evaluate on motif-covered annotated proteins (reported restriction).
  EvaluationConfig eval;
  for (ProteinId p = 0; p < dataset.ppi.num_vertices(); ++p) {
    if (context.IsAnnotated(p) && motif_predictor.Covers(p)) {
      eval.evaluation_set.push_back(p);
    }
  }
  eval.max_k = 5;
  std::printf("evaluating on %zu motif-covered annotated proteins\n\n",
              eval.evaluation_set.size());

  const FunctionPredictor* predictors[] = {&motif_predictor, &mrf, &chi2,
                                           &nc, &prodistin};
  std::printf("%-14s", "method");
  for (size_t k = 1; k <= eval.max_k; ++k) {
    std::printf("  P@%zu/R@%zu     ", k, k);
  }
  std::printf("\n");
  for (const FunctionPredictor* predictor : predictors) {
    const PrCurve curve = EvaluateLeaveOneOut(*predictor, context, eval);
    std::printf("%-14s", curve.method.c_str());
    for (const PrPoint& point : curve.points) {
      std::printf("  %.3f/%.3f  ", point.precision, point.recall);
    }
    std::printf("\n");
  }

  // The Figure-8 story: one concrete prediction explained.
  for (ProteinId p = 0; p < dataset.ppi.num_vertices(); ++p) {
    if (!context.IsAnnotated(p) && motif_predictor.Covers(p)) {
      const auto predictions = motif_predictor.Predict(p);
      std::printf(
          "\nunannotated protein %u sits in a labeled motif; top prediction: "
          "category %s (score %.2f)\n",
          p, dataset.ontology.TermName(predictions[0].category).c_str(),
          predictions[0].score);
      break;
    }
  }
  return 0;
}
