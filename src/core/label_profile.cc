#include "core/label_profile.h"

#include <algorithm>

namespace lamo {

void InsertLabel(LabelSet* set, TermId t) {
  auto it = std::lower_bound(set->begin(), set->end(), t);
  if (it == set->end() || *it != t) set->insert(it, t);
}

double VertexSimilarity(const TermSimilarity& st, const LabelSet& a,
                        const LabelSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.5;
  double product = 1.0;
  for (TermId ta : a) {
    for (TermId tb : b) {
      product *= 1.0 - st.Similarity(ta, tb);
      if (product == 0.0) return 1.0;
    }
  }
  return 1.0 - product;
}

LabelSet LeastGeneralLabels(const TermSimilarity& st, const LabelSet& a,
                            const LabelSet& b,
                            const std::vector<bool>* candidate_filter) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  LabelSet all;
  for (TermId ta : a) {
    for (TermId tb : b) {
      const TermId lcp = st.LowestCommonParent(ta, tb);
      if (lcp != kInvalidTerm) InsertLabel(&all, lcp);
    }
  }
  if (candidate_filter == nullptr) return all;
  LabelSet filtered;
  for (TermId t : all) {
    if ((*candidate_filter)[t]) filtered.push_back(t);
  }
  return filtered.empty() ? all : filtered;
}

bool LabelsConform(const Ontology& ontology, const LabelSet& scheme_labels,
                   std::span<const TermId> protein_terms) {
  if (scheme_labels.empty() || protein_terms.empty()) return true;
  for (TermId label : scheme_labels) {
    bool generalizes_some = false;
    for (TermId t : protein_terms) {
      if (ontology.IsAncestorOrEqual(label, t)) {
        generalizes_some = true;
        break;
      }
    }
    if (!generalizes_some) return false;
  }
  return true;
}

std::string LabelSetToString(const Ontology& ontology, const LabelSet& set) {
  if (set.empty()) return "{unknown}";
  std::string out = "{";
  for (size_t i = 0; i < set.size(); ++i) {
    if (i > 0) out += ", ";
    out += ontology.TermName(set[i]);
  }
  out += "}";
  return out;
}

}  // namespace lamo
