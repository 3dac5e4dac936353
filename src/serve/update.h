#ifndef LAMO_SERVE_UPDATE_H_
#define LAMO_SERVE_UPDATE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/lamofinder.h"
#include "graph/mutable_index.h"
#include "motif/canon_cache.h"
#include "motif/delta_esu.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace lamo {

/// What one applied edge mutation changed — the service uses this to tick
/// update.* counters and to invalidate exactly the affected response-cache
/// entries.
struct UpdateResult {
  bool add = true;
  VertexId u = 0;
  VertexId v = 0;
  /// Connected k-sets re-enumerated around the edge (all sizes).
  size_t resubgraphs = 0;
  /// Conforming occurrences appended to / erased from stored motifs.
  size_t occ_added = 0;
  size_t occ_removed = 0;
  /// Proteins whose MOTIFS/PREDICT answers can differ after the update:
  /// the endpoints, every protein of an added/removed occurrence, every
  /// protein siting a motif whose frequency or strength moved, and every
  /// protein whose site-index row changed. Sorted, deduplicated.
  std::vector<VertexId> affected;
  /// True when the GDS signature matrix changed (gds predictions are
  /// global — similarity ranks against every annotated protein — so any
  /// change invalidates all gds answers).
  bool signatures_changed = false;
  /// True when the role-vector matrix changed (role vectors are column-
  /// normalized, so one edge can perturb every row).
  bool roles_changed = false;
};

/// One candidate interaction scored by motif completion.
struct EdgeScore {
  /// Sum over labeled motifs of (conforming instances the edge would
  /// complete) x (motif strength) — Albert & Albert's motif-completion
  /// count, weighted by the paper's LMS.
  double score = 0.0;
  /// Total conforming instances the edge would complete.
  size_t completions = 0;
  /// (motif index, completions) for every motif with a nonzero count,
  /// ascending by motif index.
  std::vector<std::pair<uint32_t, size_t>> per_motif;
};

/// ---- Incremental snapshot maintenance -------------------------------------
///
/// Owns the dynamic-interactome math over a live Snapshot: applies one edge
/// mutation by re-enumerating only the connected k-sets containing both
/// endpoints (EnumeratePairSubgraphs) and diffing each set's induced pattern
/// with and without the edge through the SharedCanonCache. From the deltas
/// it patches, in place, at a cost proportional to what the edge changes:
///
///   * the snapshot's graph itself (MutableGraphIndex: sorted insert/erase
///     in the CSR arrays, a bit flip in the dense rows — no copy, no
///     rebuild);
///   * motif occurrence lists (conforming occurrences only — each candidate
///     is conformance-checked against the motif's labeling scheme, exactly
///     the check `lamo label` ran at pack time; schemes themselves are
///     pinned at pack time and never relearned online);
///   * motif frequencies (counted globally, even on shards that do not
///     store the occurrence) and, through them, every LMS strength in the
///     affected size classes;
///   * the per-protein site index: only the segments of (motif, protein)
///     pairs whose occurrences were added or removed are recomputed, with
///     the same first-seen loop BuildSnapshot runs (AppendMotifSites), so
///     an equal-state repack is byte-identical; shards keep owned rows
///     only;
///   * the GDS signature matrix (per-set orbit count deltas, k = 2..5);
///   * the role-vector matrix (full recompute — column normalization makes
///     every row depend on every edge).
///
/// The engine and `lamo pack --apply-deltas` share this exact code path,
/// which is what makes a live-updated server byte-identical to one started
/// from a freshly repacked snapshot — the serving stack's core contract,
/// extended to updates.
///
/// Every phase is a trace span under the caller's update span:
/// update.index_edit, update.enumerate.k<k> (arg: k), update.classify
/// (arg: k), update.sites and update.roles.
///
/// Not thread-safe: the service serializes Apply/ScoreEdge behind its
/// snapshot lock (LaMoFinder's memoizing term similarity is not safe for
/// concurrent use either, and both calls edit the snapshot's graph).
class UpdateEngine {
 public:
  /// `snapshot` must outlive the engine and not be modified externally
  /// while the engine lives (a snapshot swap requires a new engine).
  explicit UpdateEngine(Snapshot* snapshot);

  UpdateEngine(const UpdateEngine&) = delete;
  UpdateEngine& operator=(const UpdateEngine&) = delete;

  /// Validates a mutation without applying it: endpoints in range and
  /// distinct, edge absent (add) / present (delete).
  Status Check(bool add, VertexId u, VertexId v) const;

  /// Applies one mutation to the snapshot. On error the snapshot is
  /// unchanged (all validation happens before the first write).
  Status Apply(bool add, VertexId u, VertexId v, UpdateResult* result);

  /// Scores the candidate interaction {u, v} by motif completion. The edge
  /// must be absent. The snapshot ends unchanged: the edge is inserted into
  /// its graph for the enumeration and erased again.
  Status ScoreEdge(VertexId u, VertexId v, EdgeScore* out);

 private:
  SharedCanonCache& CacheFor(size_t k);
  /// Conformance of motif `mi` on the ascending vertex set `verts` aligned
  /// by `canon`: true iff it conforms, with `conforming_` the occurrence
  /// re-aligned to the motif's scheme.
  bool Conforms(uint32_t mi, const VertexId* verts,
                const CanonicalResult& canon);
  /// Patches the GDS signature rows of the current enumeration (subs_).
  void PatchSignatures(bool add, size_t k);
  /// Moves the conforming occurrences of the current enumeration (subs_)
  /// between motifs; fills freq_delta_, touched_ and affected_.
  void PatchOccurrences(bool add, size_t k, UpdateResult* result);
  /// Strengths, the site-index segments in touched_, and the rows siting a
  /// changed motif (marked in affected_).
  void PatchSites();

  Snapshot* snap_;
  MutableGraphIndex graph_;  // edits snap_->graph in place
  LaMoFinder finder_;
  /// Motif sizes plus the graphlet sizes 2..5 when GDS is maintained.
  std::vector<size_t> sizes_;
  /// Span id of update.enumerate.k<k>, by k.
  std::vector<size_t> enumerate_spans_;
  std::map<size_t, std::unique_ptr<SharedCanonCache>> caches_;
  /// size -> canonical code -> indices of labeled motifs with that pattern
  /// (several labeling schemes can share one pattern).
  std::map<size_t, std::map<std::vector<uint8_t>, std::vector<uint32_t>>>
      motifs_by_code_;

  // Scratch reused across updates, so the steady state does not allocate.
  std::vector<PackedPairSubgraph> subs_;
  std::vector<int64_t> freq_delta_;                     // per motif
  std::vector<std::pair<uint32_t, VertexId>> touched_;  // (motif, protein)
  std::vector<uint8_t> affected_;                       // per protein
  std::vector<uint8_t> motif_changed_;                  // per motif
  std::vector<double> old_strengths_;                   // per motif
  std::vector<uint32_t> slot_of_;       // per protein: segments_ slot
  std::vector<VertexId> slot_protein_;  // per slot
  SiteIndex segments_;                  // recomputed segment per slot
  /// Per motif: the symmetric sets its conformance is checked within.
  std::vector<std::unique_ptr<OccurrenceSimilarity>> symmetric_sets_;
  MotifOccurrence candidate_;   // canonically aligned candidate
  MotifOccurrence conforming_;  // candidate_ aligned to the scheme
};

}  // namespace lamo

#endif  // LAMO_SERVE_UPDATE_H_
