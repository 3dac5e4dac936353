#ifndef LAMO_PREDICT_LABELED_MOTIF_PREDICTOR_H_
#define LAMO_PREDICT_LABELED_MOTIF_PREDICTOR_H_

#include <cstdint>
#include <vector>

#include "core/labeled_motif.h"
#include "predict/predictor.h"

namespace lamo {

/// One motif site a protein appears at: `motifs[motif]`'s canonical vertex
/// `vertex`.
struct MotifSite {
  uint32_t motif = 0;
  uint32_t vertex = 0;

  friend bool operator==(const MotifSite& a, const MotifSite& b) {
    return a.motif == b.motif && a.vertex == b.vertex;
  }
};

/// Per-protein motif-site index: row p lists the sites protein p plays,
/// deduplicated, in first-seen order — motif index ascending, then
/// occurrence order, then vertex position. Rows are therefore grouped into
/// one contiguous segment per motif.
using SiteIndex = std::vector<std::vector<MotifSite>>;

/// The first-seen site loop every site index is built with. For each
/// occurrence of `motif` (index `mi`) in order and each vertex position,
/// appends MotifSite{mi, pos} to `*row_for(protein)` unless that row's
/// segment for `mi` (its tail) already holds it; a null row skips the
/// protein. Call in ascending motif order for whole rows (BuildSiteIndex),
/// or on empty scratch rows to recompute one motif's segments (the
/// serve-path update engine).
template <typename RowFor>
void AppendMotifSites(const LabeledMotif& motif, uint32_t mi,
                      RowFor&& row_for) {
  for (const MotifOccurrence& occ : motif.occurrences) {
    for (uint32_t pos = 0; pos < occ.proteins.size(); ++pos) {
      std::vector<MotifSite>* row = row_for(occ.proteins[pos]);
      if (row == nullptr) continue;
      bool seen = false;
      for (auto it = row->rbegin(); it != row->rend() && it->motif == mi;
           ++it) {
        if (it->vertex == pos) {
          seen = true;
          break;
        }
      }
      if (!seen) row->push_back(MotifSite{mi, pos});
    }
  }
}

/// The site index of `motifs` over `num_proteins` proteins.
SiteIndex BuildSiteIndex(const std::vector<LabeledMotif>& motifs,
                         size_t num_proteins);

/// The paper's proposed method (Section 5): predict the functions of a
/// protein from the labeled network motifs it occurs in.
///
/// For protein p and labeled motif g with occurrence set D_g, let v be a
/// vertex of g at which p appears in some occurrence. The likelihood that p
/// has function x is
///
///   f_x(p) = (1/z) * sum over g in LG_p of delta_g(v, x) * LMS(g)   (Eq. 5)
///
/// where delta_g(v, x) is the frequency of function x among the proteins
/// that play vertex v across g's occurrences (p's own occurrences excluded —
/// leave-one-out), LMS is the labeled-motif strength of Eq. 4, and z
/// normalizes the scores into [0, 1].
///
/// Unlike the four baselines, this exploits *remote but topologically
/// similar* proteins: the proteins at p's vertex in other occurrences need
/// not be anywhere near p in the network.
class LabeledMotifPredictor : public FunctionPredictor {
 public:
  /// How delta_g(v, x) is computed.
  enum class DeltaMode {
    /// From the labeling scheme (default, the paper's Eq. 5 reading): v's
    /// functions x1..xk are its scheme labels generalized to the top
    /// categories; a label votes for every category above it. Labels too
    /// general to fall under any category vote for nothing, so vague
    /// schemes are self-muting.
    kSchemeLabels,
    /// From the conforming occurrences: count the categories of the
    /// proteins playing v (kept as an ablation of the dictionary idea).
    kOccurrenceProteins,
  };

  /// Builds the per-protein motif-vertex index (BuildSiteIndex). All
  /// references must outlive the predictor. Motifs must already carry their
  /// LMS strengths (ComputeMotifStrengths). `ontology` is the branch the
  /// schemes were labeled in (used to generalize scheme labels to
  /// categories).
  LabeledMotifPredictor(const PredictionContext& context,
                        const Ontology& ontology,
                        const std::vector<LabeledMotif>& motifs,
                        DeltaMode mode = DeltaMode::kSchemeLabels);

  /// Borrows `sites` (one row per protein of context.ppi) instead of
  /// building an index, so a caller that maintains the index — a served
  /// snapshot under live updates — is read in place. A protein whose row is
  /// empty (a shard's non-owned proteins) is not covered.
  LabeledMotifPredictor(const PredictionContext& context,
                        const Ontology& ontology,
                        const std::vector<LabeledMotif>& motifs,
                        const SiteIndex& sites,
                        DeltaMode mode = DeltaMode::kSchemeLabels);

  /// Not copyable: index_ may point into this object.
  LabeledMotifPredictor(const LabeledMotifPredictor&) = delete;
  LabeledMotifPredictor& operator=(const LabeledMotifPredictor&) = delete;

  std::string name() const override { return "LabeledMotif"; }
  std::vector<Prediction> Predict(ProteinId p) const override;

  /// True iff p occurs in at least one labeled motif (the method has
  /// signal for p).
  bool Covers(ProteinId p) const override { return !(*index_)[p].empty(); }

  /// Fraction of annotated proteins covered by at least one labeled motif.
  double CoverageOfAnnotated() const;

 private:
  const PredictionContext& context_;
  const Ontology& ontology_;
  const std::vector<LabeledMotif>& motifs_;
  DeltaMode mode_;
  SiteIndex owned_index_;    // empty when the index is borrowed
  const SiteIndex* index_;   // owned_index_ or the borrowed one
  std::vector<double> priors_;  // per category: tie-break for unvoted ones
};

}  // namespace lamo

#endif  // LAMO_PREDICT_LABELED_MOTIF_PREDICTOR_H_
