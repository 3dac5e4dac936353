#include "predict/registry.h"

#include "predict/gds.h"
#include "predict/labeled_motif_predictor.h"
#include "predict/role_similarity.h"

namespace lamo {
namespace {

using Factory = StatusOr<std::unique_ptr<FunctionPredictor>> (*)(
    const PredictorInputs&);

StatusOr<std::unique_ptr<FunctionPredictor>> MakeLms(
    const PredictorInputs& inputs) {
  if (inputs.ontology == nullptr || inputs.motifs == nullptr) {
    return Status::InvalidArgument(
        "predictor 'lms' needs labeled motifs and their ontology");
  }
  if (inputs.sites != nullptr) {
    if (inputs.sites->size() != inputs.context->ppi->num_vertices()) {
      return Status::InvalidArgument("site index has the wrong shape");
    }
    return std::unique_ptr<FunctionPredictor>(new LabeledMotifPredictor(
        *inputs.context, *inputs.ontology, *inputs.motifs, *inputs.sites));
  }
  return std::unique_ptr<FunctionPredictor>(new LabeledMotifPredictor(
      *inputs.context, *inputs.ontology, *inputs.motifs));
}

StatusOr<std::unique_ptr<FunctionPredictor>> MakeGds(
    const PredictorInputs& inputs) {
  const size_t n = inputs.context->ppi->num_vertices();
  if (inputs.gds_signatures != nullptr && !inputs.gds_signatures->empty()) {
    if (inputs.gds_signatures->size() != n * kGdsOrbits) {
      return Status::InvalidArgument(
          "precomputed GDS signature matrix has the wrong shape");
    }
    return std::unique_ptr<FunctionPredictor>(
        new GdsPredictor(*inputs.context, *inputs.gds_signatures));
  }
  return std::unique_ptr<FunctionPredictor>(new GdsPredictor(*inputs.context));
}

StatusOr<std::unique_ptr<FunctionPredictor>> MakeRole(
    const PredictorInputs& inputs) {
  const size_t n = inputs.context->ppi->num_vertices();
  if (inputs.role_vectors != nullptr && !inputs.role_vectors->empty()) {
    if (inputs.role_dim == 0 ||
        inputs.role_vectors->size() != n * inputs.role_dim) {
      return Status::InvalidArgument(
          "precomputed role vector matrix has the wrong shape");
    }
    return std::unique_ptr<FunctionPredictor>(new RolePredictor(
        *inputs.context, *inputs.role_vectors, inputs.role_dim));
  }
  return std::unique_ptr<FunctionPredictor>(new RolePredictor(*inputs.context));
}

struct Entry {
  const char* name;
  Factory factory;
};

/// Canonical order: the paper's method first, then the alternatives.
constexpr Entry kRegistry[] = {
    {"lms", MakeLms},
    {"gds", MakeGds},
    {"role", MakeRole},
};

}  // namespace

const std::vector<std::string>& RegisteredPredictorNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>();
    for (const Entry& entry : kRegistry) v->push_back(entry.name);
    return v;
  }();
  return *names;
}

std::string PredictorNamesUsage() {
  std::string usage;
  for (const std::string& name : RegisteredPredictorNames()) {
    if (!usage.empty()) usage += "|";
    usage += name;
  }
  return usage;
}

bool IsRegisteredPredictor(const std::string& name) {
  for (const Entry& entry : kRegistry) {
    if (name == entry.name) return true;
  }
  return false;
}

StatusOr<std::unique_ptr<FunctionPredictor>> MakePredictor(
    const std::string& name, const PredictorInputs& inputs) {
  if (inputs.context == nullptr || inputs.context->ppi == nullptr) {
    return Status::InvalidArgument("predictor factory needs a context");
  }
  for (const Entry& entry : kRegistry) {
    if (name == entry.name) return entry.factory(inputs);
  }
  return Status::InvalidArgument("unknown predictor '" + name +
                                 "' (registered: " + PredictorNamesUsage() +
                                 ")");
}

}  // namespace lamo
