#include "core/lamofinder.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <set>

#include "core/assignment.h"
#include "core/occurrence_similarity.h"
#include "motif/stage_checkpoint.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/fault.h"
#include "util/logging.h"

namespace lamo {
namespace {

/// SO-matrix cells filled (initial pairwise stage plus row refreshes).
const size_t kObsSoCells = ObsCounterId("lamofinder.so_cells");
/// Agglomerative merges performed across all motifs.
const size_t kObsClusterMerges = ObsCounterId("lamofinder.cluster_merges");
/// Labeling schemes surviving dedup + conformance + subsumption.
const size_t kObsSchemesEmitted = ObsCounterId("lamofinder.schemes_emitted");
/// Motifs that produced at least one labeled variant.
const size_t kObsMotifsLabeled = ObsCounterId("lamofinder.motifs_labeled");
/// Per-SO-cell latency (initial matrix fill + row refreshes). Histogram
/// only: one cell is far below useful trace-event resolution.
const size_t kHistSoCellUs = ObsHistogramId("lamofinder.so_cell_us");
/// Per-merge latency: label generalization + member realignment + the row
/// refresh that follows. args = (surviving cluster, absorbed cluster).
const size_t kHistClusterMergeUs = ObsHistogramId("lamofinder.cluster_merge_us");
const size_t kSpanClusterMerge = ObsSpanId("lamofinder.cluster_merge");
/// One span per motif labeled in LabelAll; arg = motif index.
const size_t kSpanLabelMotif = ObsSpanId("lamofinder.label_motif");

/// Crash point, hit once per motif group in LabelAll (fault.h).
const size_t kFpLabelMotif = FaultPointId("label.motif");

// One cluster of occurrences during agglomeration.
struct Cluster {
  LabelProfile profile;                    // generalized labels per vertex
  std::vector<MotifOccurrence> members;    // aligned occurrences
  bool saturated = false;
  bool alive = true;
};

// Fraction of vertices with at least one border-informative label.
double BorderFraction(const InformativeClasses& informative,
                      const LabelProfile& profile) {
  if (profile.empty()) return 0.0;
  size_t border_vertices = 0;
  for (const LabelSet& labels : profile) {
    for (TermId t : labels) {
      if (informative.IsBorderInformative(t)) {
        ++border_vertices;
        break;
      }
    }
  }
  return static_cast<double>(border_vertices) /
         static_cast<double>(profile.size());
}

// Keeps the `cap` most informative (lowest-weight) labels.
void CapLabels(const TermWeights& weights, size_t cap, LabelSet* labels) {
  if (cap == 0 || labels->size() <= cap) return;
  std::sort(labels->begin(), labels->end(), [&](TermId a, TermId b) {
    if (weights.Weight(a) != weights.Weight(b)) {
      return weights.Weight(a) < weights.Weight(b);
    }
    return a < b;
  });
  labels->resize(cap);
  std::sort(labels->begin(), labels->end());
}

// Serialized identity of a labeling scheme, used to deduplicate emissions.
std::vector<TermId> SchemeKey(const LabelProfile& scheme) {
  std::vector<TermId> key;
  for (const LabelSet& labels : scheme) {
    key.insert(key.end(), labels.begin(), labels.end());
    key.push_back(kInvalidTerm);  // separator
  }
  return key;
}

}  // namespace

LaMoFinder::LaMoFinder(const Ontology& ontology, const TermWeights& weights,
                       const InformativeClasses& informative,
                       const AnnotationTable& annotations)
    : ontology_(ontology),
      weights_(weights),
      informative_(informative),
      annotations_(annotations),
      st_(ontology, weights) {
  candidate_filter_.resize(ontology.num_terms());
  for (TermId t = 0; t < ontology.num_terms(); ++t) {
    candidate_filter_[t] = informative.IsLabelCandidate(t);
  }
}

OccurrenceSimilarity LaMoFinder::SymmetricSets(const Motif& motif) const {
  if (motif.symmetric_sets_override.empty()) {
    return OccurrenceSimilarity(st_, motif.pattern);
  }
  return OccurrenceSimilarity(st_, motif.pattern.num_vertices(),
                              motif.symmetric_sets_override);
}

bool LaMoFinder::AlignConforming(const OccurrenceSimilarity& so,
                                 const LabelProfile& scheme,
                                 const MotifOccurrence& occ,
                                 MotifOccurrence* aligned) const {
  // Per symmetric set, find a pairing in which every scheme position's
  // labels conform to the annotations of the protein assigned to it.
  // Feasibility per orbit is a perfect matching on the boolean conformance
  // matrix, found via max-sum assignment.
  const size_t k = occ.proteins.size();
  std::vector<uint32_t> alignment(k);
  std::iota(alignment.begin(), alignment.end(), 0);
  for (const auto& orbit : so.orbits()) {
    if (orbit.size() == 1) {
      const VertexId protein = occ.proteins[orbit[0]];
      if (!LabelsConform(ontology_, scheme[orbit[0]],
                         annotations_.TermsOf(protein))) {
        return false;
      }
      continue;
    }
    std::vector<std::vector<double>> score(
        orbit.size(), std::vector<double>(orbit.size(), 0.0));
    for (size_t i = 0; i < orbit.size(); ++i) {
      for (size_t j = 0; j < orbit.size(); ++j) {
        const VertexId protein = occ.proteins[orbit[j]];
        score[i][j] = LabelsConform(ontology_, scheme[orbit[i]],
                                    annotations_.TermsOf(protein))
                          ? 1.0
                          : 0.0;
      }
    }
    std::vector<int> matching;
    const double total = MaxSumAssignment(score, &matching);
    if (total + 0.5 < static_cast<double>(orbit.size())) return false;
    for (size_t i = 0; i < orbit.size(); ++i) {
      alignment[orbit[i]] = orbit[matching[i]];
    }
  }
  aligned->proteins.resize(k);
  for (size_t pos = 0; pos < k; ++pos) {
    aligned->proteins[pos] = occ.proteins[alignment[pos]];
  }
  return true;
}

std::vector<MotifOccurrence> LaMoFinder::ConformingOccurrences(
    const Motif& motif, const LabelProfile& scheme) const {
  std::vector<MotifOccurrence> conforming;
  const OccurrenceSimilarity so = SymmetricSets(motif);
  MotifOccurrence aligned;
  for (const MotifOccurrence& occ : motif.occurrences) {
    if (AlignConforming(so, scheme, occ, &aligned)) {
      conforming.push_back(aligned);
    }
  }
  return conforming;
}

std::vector<LabeledMotif> LaMoFinder::LabelMotif(
    const Motif& motif, const LaMoFinderConfig& config) const {
  std::vector<LabeledMotif> results;
  const size_t k = motif.pattern.num_vertices();
  if (k == 0 || motif.occurrences.empty()) return results;

  // Deterministic strided sample of the occurrence set (caps the O(|D|^2)
  // pairwise-similarity stage).
  std::vector<const MotifOccurrence*> sample;
  if (config.max_occurrences != 0 &&
      motif.occurrences.size() > config.max_occurrences) {
    const double stride = static_cast<double>(motif.occurrences.size()) /
                          static_cast<double>(config.max_occurrences);
    for (size_t i = 0; i < config.max_occurrences; ++i) {
      sample.push_back(
          &motif.occurrences[static_cast<size_t>(i * stride)]);
    }
  } else {
    for (const auto& occ : motif.occurrences) sample.push_back(&occ);
  }

  // Initial clusters: one per occurrence, labeled with the proteins' direct
  // annotations (line 4 of Algorithm 1: C <- D).
  std::vector<Cluster> clusters;
  clusters.reserve(sample.size());
  for (const MotifOccurrence* occ : sample) {
    Cluster c;
    c.profile.resize(k);
    c.members.push_back(*occ);
    for (size_t pos = 0; pos < k; ++pos) {
      const auto terms = annotations_.TermsOf(occ->proteins[pos]);
      c.profile[pos].assign(terms.begin(), terms.end());
    }
    c.saturated =
        BorderFraction(informative_, c.profile) > config.border_fraction;
    clusters.push_back(std::move(c));
  }

  const OccurrenceSimilarity so = SymmetricSets(motif);

  // Pairwise similarity matrix over live clusters: the O(|D|^2) stage of
  // Eq. 3. Rows are distributed over the parallel runtime; every (i, j)
  // entry is written exactly once (row i owns the cells (i, j) and (j, i)
  // for j > i), and SO is a pure function of the two profiles, so the
  // matrix is identical for any thread count. Row costs shrink with i,
  // hence the small grain for dynamic balance.
  const size_t n = clusters.size();
  std::vector<std::vector<double>> sim(n, std::vector<double>(n, 0.0));
  // Scores one SO cell, feeding the per-cell latency histogram when a sink
  // is installed (a cell is too fine-grained to trace as a span).
  const auto score_cell = [&](const LabelProfile& a, const LabelProfile& b) {
    if ((ObsActiveMask() & kObsSinkBit) == 0) return so.Score(a, b);
    const auto t0 = std::chrono::steady_clock::now();
    const double s = so.Score(a, b);
    ObsObserve(kHistSoCellUs,
               static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count()));
    return s;
  };
  ParallelFor(0, n, 4, [&](size_t i) {
    if (n > i + 1) ObsAdd(kObsSoCells, n - i - 1);
    for (size_t j = i + 1; j < n; ++j) {
      sim[i][j] = sim[j][i] =
          score_cell(clusters[i].profile, clusters[j].profile);
    }
  });

  std::set<std::vector<TermId>> emitted;
  auto try_emit = [&](const Cluster& c) {
    if (c.members.size() < config.sigma) return;
    // The problem definition restricts labels to border informative FCs and
    // their descendants: labels that had to fall back to more general terms
    // during merging are dropped at emission, leaving "unknown" vertices.
    LabelProfile scheme(k);
    size_t labeled_vertices = 0;
    for (size_t pos = 0; pos < k; ++pos) {
      for (TermId t : c.profile[pos]) {
        if (candidate_filter_[t]) scheme[pos].push_back(t);
      }
      if (!scheme[pos].empty()) ++labeled_vertices;
    }
    // A scheme that labels under half of its vertices is uninformative: it
    // conforms to nearly everything and predicts nothing.
    if (2 * labeled_vertices < k || labeled_vertices == 0) return;
    const std::vector<TermId> key = SchemeKey(scheme);
    if (!emitted.insert(key).second) return;
    // The labeled motif's frequency is the number of occurrences of g in G
    // that conform to the scheme (Section 5.1), counted over the *full*
    // occurrence set.
    std::vector<MotifOccurrence> conforming =
        ConformingOccurrences(motif, scheme);
    if (conforming.size() < config.sigma) return;
    LabeledMotif labeled;
    labeled.pattern = motif.pattern;
    labeled.code = motif.code;
    labeled.scheme = std::move(scheme);
    labeled.frequency = conforming.size();
    labeled.occurrences = std::move(conforming);
    labeled.uniqueness = motif.uniqueness >= 0.0 ? motif.uniqueness : 1.0;
    results.push_back(std::move(labeled));
  };

  // Agglomeration: repeatedly merge the most similar pair in which at least
  // one side is unsaturated (saturated clusters no longer seek merges,
  // Algorithm 2 line 5).
  while (true) {
    double best_sim = -1.0;
    int best_i = -1;
    int best_j = -1;
    for (size_t i = 0; i < n; ++i) {
      if (!clusters[i].alive) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (!clusters[j].alive) continue;
        if (clusters[i].saturated && clusters[j].saturated) continue;
        if (sim[i][j] > best_sim) {
          best_sim = sim[i][j];
          best_i = static_cast<int>(i);
          best_j = static_cast<int>(j);
        }
      }
    }
    if (best_i < 0 || best_sim < config.min_similarity) break;

    // Covers generalization, realignment, and the row refresh below (the
    // timer closes at the end of this loop iteration).
    const ScopedItemTimer merge_timer(kSpanClusterMerge, kHistClusterMergeUs,
                                      static_cast<uint64_t>(best_i),
                                      static_cast<uint64_t>(best_j), 2);
    ObsIncrement(kObsClusterMerges);
    Cluster& a = clusters[best_i];
    Cluster& b = clusters[best_j];
    std::vector<uint32_t> pairing;
    so.Score(a.profile, b.profile, &pairing);

    // Merge b into a under the best symmetric-vertex pairing: position pos
    // of a corresponds to position pairing[pos] of b.
    LabelProfile merged(k);
    for (size_t pos = 0; pos < k; ++pos) {
      merged[pos] = LeastGeneralLabels(st_, a.profile[pos],
                                       b.profile[pairing[pos]],
                                       &candidate_filter_);
      CapLabels(weights_, config.max_labels_per_vertex, &merged[pos]);
    }
    a.profile = std::move(merged);
    for (const MotifOccurrence& occ : b.members) {
      MotifOccurrence realigned;
      realigned.proteins.resize(k);
      for (size_t pos = 0; pos < k; ++pos) {
        realigned.proteins[pos] = occ.proteins[pairing[pos]];
      }
      a.members.push_back(std::move(realigned));
    }
    b.alive = false;
    a.saturated =
        BorderFraction(informative_, a.profile) > config.border_fraction;

    // The merged cluster's labeling scheme becomes a candidate once
    // saturated (its labels are as general as allowed).
    if (config.emit_intermediate && a.saturated) try_emit(a);

    // Refresh similarities of the merged cluster.
    for (size_t j = 0; j < n; ++j) {
      if (!clusters[j].alive || j == static_cast<size_t>(best_i)) continue;
      ObsIncrement(kObsSoCells);
      sim[best_i][j] = sim[j][best_i] =
          score_cell(a.profile, clusters[j].profile);
    }
  }

  // Final partition: every remaining cluster with >= sigma occurrences
  // contributes its scheme (Algorithm 1 lines 14-18).
  for (const Cluster& c : clusters) {
    if (c.alive) try_emit(c);
  }

  // Subsumption pruning: intermediate emissions can produce nested variants
  // of one scheme (per-vertex label subsets) that conform to exactly the
  // same occurrences. Keep only the most specific representative of each
  // such chain — the least general description, in the paper's sense.
  auto subsumes = [](const LabelProfile& specific,
                     const LabelProfile& general) {
    for (size_t pos = 0; pos < specific.size(); ++pos) {
      if (!std::includes(specific[pos].begin(), specific[pos].end(),
                         general[pos].begin(), general[pos].end())) {
        return false;
      }
    }
    return true;
  };
  std::vector<bool> dropped(results.size(), false);
  for (size_t i = 0; i < results.size(); ++i) {
    for (size_t j = 0; j < results.size(); ++j) {
      if (i == j || dropped[i] || dropped[j]) continue;
      if (results[i].frequency != results[j].frequency) continue;
      // j's scheme is a per-vertex subset of i's: same conforming set,
      // strictly less information -> drop j.
      if (subsumes(results[i].scheme, results[j].scheme)) dropped[j] = true;
    }
  }
  std::vector<LabeledMotif> pruned;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!dropped[i]) pruned.push_back(std::move(results[i]));
  }
  ObsAdd(kObsSchemesEmitted, pruned.size());
  if (!pruned.empty()) ObsIncrement(kObsMotifsLabeled);
  return pruned;
}

namespace {

uint64_t LabelFingerprint(const std::vector<Motif>& motifs,
                          const LaMoFinderConfig& config) {
  ByteWriter w;
  w.PutU64(config.sigma);
  w.PutDouble(config.border_fraction);
  w.PutDouble(config.min_similarity);
  w.PutU64(config.max_occurrences);
  w.PutU64(config.max_labels_per_vertex);
  w.PutU8(config.emit_intermediate ? 1 : 0);
  // The checkpoint stores progress keyed by motif index, so it is only
  // valid for this exact motif list.
  w.PutU64(motifs.size());
  for (const Motif& m : motifs) {
    w.PutString(std::string_view(reinterpret_cast<const char*>(m.code.data()),
                                 m.code.size()));
    w.PutU64(m.frequency);
    w.PutU64(m.occurrences.size());
    w.PutDouble(m.uniqueness);
  }
  return Fnv1a64(w.bytes());
}

std::string EncodeLabelState(size_t next_motif,
                             const std::vector<LabeledMotif>& labeled) {
  ByteWriter w;
  w.PutU64(next_motif);
  w.PutU64(labeled.size());
  for (const LabeledMotif& lm : labeled) EncodeLabeledMotif(lm, &w);
  return w.TakeBytes();
}

Status DecodeLabelState(std::string_view payload, size_t* next_motif,
                        std::vector<LabeledMotif>* labeled) {
  ByteReader r(payload);
  uint64_t next = 0;
  LAMO_RETURN_IF_ERROR(r.GetU64(&next));
  *next_motif = static_cast<size_t>(next);
  uint64_t count = 0;
  LAMO_RETURN_IF_ERROR(r.GetU64(&count));
  labeled->clear();
  for (uint64_t i = 0; i < count; ++i) {
    LabeledMotif lm;
    LAMO_RETURN_IF_ERROR(DecodeLabeledMotif(&r, &lm));
    labeled->push_back(std::move(lm));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in label state");
  return Status::OK();
}

}  // namespace

std::vector<LabeledMotif> LaMoFinder::LabelAll(
    const std::vector<Motif>& motifs, const LaMoFinderConfig& config) const {
  // One task per motif, results concatenated in motif order — identical to
  // the serial loop. The shared TermSimilarity memo is sharded-lock safe;
  // everything else LabelMotif touches is per-call. When only one motif is
  // in flight the inner similarity-matrix loop parallelizes instead (the
  // runtime rejects nested fan-out, so the two levels never compete).
  //
  // With checkpointing on, motifs are labeled in index-ordered groups of
  // `every`; a resumed run appends where the checkpoint left off, and LMS
  // strengths are computed once at the end over the full result, so resumed
  // output is byte-identical to an uninterrupted run.
  const StageCheckpointer ckpt(config.checkpoint, "label",
                               LabelFingerprint(motifs, config));
  std::vector<LabeledMotif> all;
  size_t next_motif = 0;
  std::string payload;
  if (ckpt.TryLoad(&payload)) {
    size_t restored_motif = 0;
    std::vector<LabeledMotif> restored;
    const Status status =
        DecodeLabelState(payload, &restored_motif, &restored);
    if (status.ok() && restored_motif <= motifs.size()) {
      all = std::move(restored);
      next_motif = restored_motif;
    } else {
      ckpt.RecordDecodeFailure();
    }
  }
  ckpt.RecordChunks(motifs.size(), next_motif);
  const size_t motifs_per_group =
      ckpt.enabled() ? std::max<size_t>(1, config.checkpoint.every)
                     : std::max<size_t>(1, motifs.size());
  for (size_t mlo = next_motif; mlo < motifs.size();
       mlo += motifs_per_group) {
    FaultHit(kFpLabelMotif);
    const size_t mhi = std::min(motifs.size(), mlo + motifs_per_group);
    std::vector<std::vector<LabeledMotif>> per_motif =
        ParallelMap(mhi - mlo, 1, [&](size_t i) {
          const ScopedSpan span(kSpanLabelMotif, mlo + i);
          return LabelMotif(motifs[mlo + i], config);
        });
    for (auto& labeled : per_motif) {
      for (auto& lm : labeled) all.push_back(std::move(lm));
    }
    if (ckpt.enabled()) ckpt.Save(EncodeLabelState(mhi, all));
  }
  ComputeMotifStrengths(&all);
  return all;
}

}  // namespace lamo
