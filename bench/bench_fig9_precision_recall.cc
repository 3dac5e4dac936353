// Regenerates Figure 9 of the paper: precision vs. recall of protein
// function prediction, leave-one-out over the top functional categories, on
// the MIPS-scale synthetic dataset:
//
//   LabeledMotif (this paper)  vs  MRF, Chi2, NC, PRODISTIN, plus the
//   alternative registered serving backends GDS (graphlet degree
//   signatures) and RoleSimilarity.
//
// Expected shape (paper): the labeled-motif method dominates the curve;
// MRF is the strongest baseline.
//
//   bench_fig9_precision_recall [--full] [--proteins N] [--csv PATH]
//                               [--json PATH]
//
// --json writes the registered-backend comparison (LabeledMotif vs GDS vs
// RoleSimilarity) as one JSON document; scripts/reproduce.sh archives it as
// BENCH_predictors.json.
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "core/lamofinder.h"
#include "motif/esu_finder.h"
#include "obs/json.h"
#include "predict/chi_square.h"
#include "predict/dataset_context.h"
#include "predict/evaluation.h"
#include "predict/gds.h"
#include "predict/labeled_motif_predictor.h"
#include "predict/mrf.h"
#include "predict/neighbor_counting.h"
#include "predict/prodistin.h"
#include "predict/role_similarity.h"
#include "synth/dataset.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace lamo;
  size_t num_proteins = 800;
  const char* csv_path = nullptr;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) num_proteins = 1877;
    if (std::strcmp(argv[i], "--proteins") == 0 && i + 1 < argc) {
      num_proteins = std::strtoull(argv[i + 1], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }

  std::cout << "=== Figure 9: precision vs recall, leave-one-out function "
               "prediction (" << num_proteins << " proteins; paper: 1877 "
               "proteins / 2448 interactions / 13 categories) ===\n\n";

  SyntheticDatasetConfig config = MipsScaleConfig();
  config.num_proteins = num_proteins;
  config.copies_per_template = 40;
  config.template_min_size = 4;
  config.template_max_size = 5;
  config.role_annotation_probability = 0.9;
  config.complex_template_fraction = 0.0;
  config.informative_threshold = std::max<size_t>(5, num_proteins / 100);
  Timer timer;
  const SyntheticDataset dataset = BuildSyntheticDataset(config);
  std::cout << "dataset: " << dataset.ppi.ToString() << ", "
            << dataset.categories.size() << " top categories\n";

  MotifFindingConfig motif_config;
  motif_config.min_size = 4;
  motif_config.max_size = 5;
  motif_config.min_frequency = 30;
  motif_config.num_random_networks = 10;
  motif_config.uniqueness_threshold = 0.95;
  const auto motifs = FindNetworkMotifs(dataset.ppi, motif_config);

  LaMoFinder finder(dataset.ontology, dataset.weights, dataset.informative,
                    dataset.annotations);
  LaMoFinderConfig label_config;
  label_config.sigma = 8;
  label_config.max_occurrences = 200;
  const auto labeled = finder.LabelAll(motifs, label_config);
  std::cout << motifs.size() << " network motifs -> " << labeled.size()
            << " labeled motifs   [" << timer.ElapsedSeconds() << "s]\n";

  const PredictionContext context = BuildPredictionContext(dataset);
  LabeledMotifPredictor motif_predictor(context, dataset.ontology, labeled);
  NeighborCountingPredictor nc(context);
  ChiSquarePredictor chi2(context);
  MrfPredictor mrf(context);
  ProdistinConfig prodistin_config;
  prodistin_config.max_tree_proteins = std::min<size_t>(600, num_proteins);
  ProdistinPredictor prodistin(context, prodistin_config);
  GdsPredictor gds(context);
  RolePredictor role(context);

  // Evaluation set: annotated proteins covered by at least one labeled
  // motif (restriction reported; all methods are compared on the same set).
  EvaluationConfig eval;
  for (ProteinId p = 0; p < dataset.ppi.num_vertices(); ++p) {
    if (context.IsAnnotated(p) && motif_predictor.Covers(p)) {
      eval.evaluation_set.push_back(p);
    }
  }
  std::cout << "evaluation set: " << eval.evaluation_set.size()
            << " motif-covered annotated proteins ("
            << FormatDouble(100.0 * motif_predictor.CoverageOfAnnotated(), 1)
            << "% coverage)\n\n";

  const FunctionPredictor* predictors[] = {&motif_predictor, &gds, &role,
                                           &mrf, &chi2, &nc, &prodistin};
  std::vector<PrCurve> curves;
  for (const FunctionPredictor* predictor : predictors) {
    curves.push_back(EvaluateLeaveOneOut(*predictor, context, eval));
  }

  TablePrinter table({"k", "LabeledMotif P/R", "GDS P/R", "Role P/R",
                      "MRF P/R", "Chi2 P/R", "NC P/R", "PRODISTIN P/R"});
  const size_t max_k = curves[0].points.size();
  for (size_t ki = 0; ki < max_k; ++ki) {
    std::vector<std::string> row{std::to_string(ki + 1)};
    for (const PrCurve& curve : curves) {
      row.push_back(FormatDouble(curve.points[ki].precision, 3) + "/" +
                    FormatDouble(curve.points[ki].recall, 3));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  std::cout << "\nAUC(recall, precision):\n";
  double labeled_auc = 0.0, best_baseline_auc = 0.0;
  std::string best_baseline;
  for (const PrCurve& curve : curves) {
    const double auc = AreaUnderPrCurve(curve);
    std::cout << "  " << curve.method << ": " << FormatDouble(auc, 3) << "\n";
    if (curve.method == "LabeledMotif") {
      labeled_auc = auc;
    } else if (auc > best_baseline_auc) {
      best_baseline_auc = auc;
      best_baseline = curve.method;
    }
  }
  std::cout << "\nExpected shape (paper): LabeledMotif dominates -> "
            << (labeled_auc > best_baseline_auc ? "OK ("
                                                : "UNEXPECTED (")
            << "best baseline " << best_baseline << ")\n";

  // Secondary readout: macro-averaged curves (per-protein weighting).
  std::cout << "\nmacro-averaged AUC:\n";
  for (const FunctionPredictor* predictor : predictors) {
    const PrCurve macro =
        EvaluateLeaveOneOutMacro(*predictor, context, eval);
    std::cout << "  " << macro.method << ": "
              << FormatDouble(AreaUnderPrCurve(macro), 3) << "\n";
  }

  if (csv_path != nullptr) {
    CsvWriter csv(csv_path);
    csv.WriteRow({"method", "k", "precision", "recall"});
    for (const PrCurve& curve : curves) {
      for (const PrPoint& point : curve.points) {
        csv.WriteRow({curve.method, std::to_string(point.k),
                      FormatDouble(point.precision, 5),
                      FormatDouble(point.recall, 5)});
      }
    }
    std::cout << "curve written to " << csv_path << "\n";
  }

  if (json_path != nullptr) {
    // The registered-backend comparison (what `lamo predict --predictor`
    // serves), archived by scripts/reproduce.sh as BENCH_predictors.json.
    JsonWriter json;
    json.BeginObject();
    json.Key("bench");
    json.String("predictors");
    json.Key("proteins");
    json.Int(num_proteins);
    json.Key("evaluation_set");
    json.Int(eval.evaluation_set.size());
    json.Key("methods");
    json.BeginArray();
    for (const PrCurve& curve : curves) {
      if (curve.method != "LabeledMotif" && curve.method != "GDS" &&
          curve.method != "RoleSimilarity") {
        continue;
      }
      json.BeginObject();
      json.Key("method");
      json.String(curve.method);
      json.Key("auc");
      json.Double(AreaUnderPrCurve(curve));
      json.Key("points");
      json.BeginArray();
      for (const PrPoint& point : curve.points) {
        json.BeginObject();
        json.Key("k");
        json.Int(point.k);
        json.Key("precision");
        json.Double(point.precision);
        json.Key("recall");
        json.Double(point.recall);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    std::ofstream out(json_path);
    out << json.str() << "\n";
    std::cout << "predictor comparison written to " << json_path << "\n";
  }
  return 0;
}
