#ifndef LAMO_PREDICT_REGISTRY_H_
#define LAMO_PREDICT_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/labeled_motif.h"
#include "ontology/ontology.h"
#include "predict/labeled_motif_predictor.h"
#include "predict/predictor.h"
#include "util/status.h"

namespace lamo {

/// Everything a backend factory may draw on. `context` is always required
/// and must outlive the predictor. The labeled-motif fields are required by
/// `lms`; the precomputed matrices are optional fast paths (populated from
/// a v3 snapshot) — when absent, `gds`/`role` recompute from context->ppi,
/// which is deterministic, so both paths yield byte-identical predictions.
struct PredictorInputs {
  const PredictionContext* context = nullptr;
  const Ontology* ontology = nullptr;                     // lms
  const std::vector<LabeledMotif>* motifs = nullptr;      // lms
  /// Optional for lms: a maintained site index over `motifs` to borrow
  /// (one row per protein) instead of building a private one.
  const SiteIndex* sites = nullptr;
  const std::vector<uint64_t>* gds_signatures = nullptr;  // n x kGdsOrbits
  const std::vector<double>* role_vectors = nullptr;      // n x role_dim
  size_t role_dim = 0;
};

/// Registered backend names in canonical order: {"lms", "gds", "role"}.
/// `lms` first — it is the paper's method and every default.
const std::vector<std::string>& RegisteredPredictorNames();

/// The names joined for usage text: "lms|gds|role". Generated from the
/// registry so CLI help cannot drift from the factories.
std::string PredictorNamesUsage();

/// True iff `name` is a registered backend name.
bool IsRegisteredPredictor(const std::string& name);

/// Constructs the backend registered under `name`. InvalidArgument for an
/// unknown name (listing the registered ones) or when `inputs` lacks a
/// field the backend requires.
StatusOr<std::unique_ptr<FunctionPredictor>> MakePredictor(
    const std::string& name, const PredictorInputs& inputs);

}  // namespace lamo

#endif  // LAMO_PREDICT_REGISTRY_H_
