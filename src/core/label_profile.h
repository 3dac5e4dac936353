#ifndef LAMO_CORE_LABEL_PROFILE_H_
#define LAMO_CORE_LABEL_PROFILE_H_

#include <span>
#include <string>
#include <vector>

#include "ontology/ontology.h"
#include "ontology/similarity.h"

namespace lamo {

/// A set of GO terms attached to one motif vertex (sorted ascending,
/// duplicate-free). Empty means "unknown": no annotation evidence at all.
using LabelSet = std::vector<TermId>;

/// Per-vertex label sets for a motif: profile[i] labels canonical motif
/// vertex i. Both raw occurrence annotations and generalized cluster labels
/// take this shape.
using LabelProfile = std::vector<LabelSet>;

/// Inserts `t` keeping the set sorted and duplicate-free.
void InsertLabel(LabelSet* set, TermId t);

/// Vertex similarity SV (Eq. 2 of the paper):
///
///   SV(vi, vj) = 1 - prod over (ta in Tvi, tb in Tvj) of (1 - ST(ta, tb))
///
/// Close to 1 as soon as one label pair matches well: two vertices are
/// similar if they share at least one biological feature. By convention two
/// "unknown" vertices score 1 (no evidence of difference) and an unknown
/// versus an annotated vertex scores 0.5 (uninformative prior); tests pin
/// this behavior.
double VertexSimilarity(const TermSimilarity& st, const LabelSet& a,
                        const LabelSet& b);

/// The pairwise least-general labels of two label sets (the paper's "minimum
/// common father" of Table 4): { LowestCommonParent(ta, tb) } over all label
/// pairs, deduplicated. If `candidate_filter` is non-null, the result keeps
/// only terms for which the filter returns true (the paper keeps label
/// candidates: border informative FCs and their descendants); when the
/// filtered set would be empty the unfiltered set is returned so evidence is
/// never silently dropped.
///
/// An empty (unknown) side yields the other side unchanged: the paper
/// determines labels of unannotated proteins from the corresponding proteins
/// of the other occurrences.
LabelSet LeastGeneralLabels(const TermSimilarity& st, const LabelSet& a,
                            const LabelSet& b,
                            const std::vector<bool>* candidate_filter);

/// True iff every label in `scheme_labels` is the same as or more general
/// than some direct annotation in `protein_terms` (the paper's conformance
/// test). An empty scheme label set ("unknown") conforms to anything; an
/// unannotated protein conforms to anything.
bool LabelsConform(const Ontology& ontology, const LabelSet& scheme_labels,
                   std::span<const TermId> protein_terms);

/// Renders "{G04, G09}" using ontology term names; "{unknown}" when empty.
std::string LabelSetToString(const Ontology& ontology, const LabelSet& set);

}  // namespace lamo

#endif  // LAMO_CORE_LABEL_PROFILE_H_
