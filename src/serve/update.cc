#include "serve/update.h"

#include <algorithm>
#include <set>

#include "motif/delta_esu.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "predict/gds.h"
#include "predict/role_similarity.h"

namespace lamo {
namespace {

// Same id as the miner's counter on purpose: re-enumerated delta sets are
// ESU subgraph visits, so serve-side reports satisfy
// update.resubgraphs <= esu.subgraphs without a parallel counter family.
const size_t kObsEsuSubgraphs = ObsCounterId("esu.subgraphs");

// The phases of one apply (or edge score), nested under the service's
// update.apply / update.score_edge span.
const size_t kSpanIndexEdit = ObsSpanId("update.index_edit");
const size_t kSpanClassify = ObsSpanId("update.classify");
const size_t kSpanSites = ObsSpanId("update.sites");
const size_t kSpanRoles = ObsSpanId("update.roles");

constexpr uint32_t kNoSlot = ~uint32_t{0};

// Writes the occurrence aligned the way the mining pipeline aligns
// emissions: canonical position i holds the canonical_to_original[i]-th
// smallest vertex of the set.
void AlignOccurrence(const VertexId* sorted_verts, size_t k,
                     const CanonicalResult& canon, MotifOccurrence* occ) {
  occ->proteins.resize(k);
  for (size_t i = 0; i < k; ++i) {
    occ->proteins[i] = sorted_verts[canon.canonical_to_original[i]];
  }
}

// True iff `proteins` is a permutation of the k distinct vertices in
// `sorted_verts`.
bool SameVertexSet(const VertexId* sorted_verts, size_t k,
                   const std::vector<VertexId>& proteins) {
  if (proteins.size() != k) return false;
  for (const VertexId p : proteins) {
    if (!std::binary_search(sorted_verts, sorted_verts + k, p)) return false;
  }
  return true;
}

}  // namespace

UpdateEngine::UpdateEngine(Snapshot* snapshot)
    : snap_(snapshot),
      graph_(&snapshot->graph),
      finder_(snapshot->ontology, snapshot->weights, snapshot->informative,
              snapshot->annotations) {
  std::set<size_t> sizes;
  for (uint32_t mi = 0; mi < snap_->motifs.size(); ++mi) {
    const LabeledMotif& m = snap_->motifs[mi];
    motifs_by_code_[m.size()][m.code].push_back(mi);
    sizes.insert(m.size());
    const Motif motif{m.pattern, m.code, {}, 0, -1.0, {}};
    symmetric_sets_.emplace_back(
        new OccurrenceSimilarity(finder_.SymmetricSets(motif)));
  }
  if (!snap_->gds_signatures.empty()) {
    for (size_t k = 2; k <= 5; ++k) sizes.insert(k);
  }
  enumerate_spans_.assign(GraphIndex::kMaxInducedBitsVertices + 1, 0);
  for (const size_t k : sizes) {
    if (k >= 2 && k <= GraphIndex::kMaxInducedBitsVertices &&
        k <= graph_.num_vertices()) {
      sizes_.push_back(k);
      enumerate_spans_[k] = ObsSpanId("update.enumerate.k" + std::to_string(k));
    }
  }
  const size_t n = graph_.num_vertices();
  affected_.assign(n, 0);
  slot_of_.assign(n, kNoSlot);
}

SharedCanonCache& UpdateEngine::CacheFor(size_t k) {
  auto it = caches_.find(k);
  if (it == caches_.end()) {
    it = caches_.emplace(k, std::make_unique<SharedCanonCache>(k)).first;
  }
  return *it->second;
}

Status UpdateEngine::Check(bool add, VertexId u, VertexId v) const {
  const size_t n = graph_.num_vertices();
  if (u >= n || v >= n) {
    return Status::InvalidArgument(
        "edge endpoint out of range: {" + std::to_string(u) + ", " +
        std::to_string(v) + "} on " + std::to_string(n) + " proteins");
  }
  if (u == v) {
    return Status::InvalidArgument("self-interaction {" + std::to_string(u) +
                                   ", " + std::to_string(u) + "} rejected");
  }
  if (add && graph_.HasEdge(u, v)) {
    return Status::AlreadyExists("edge {" + std::to_string(u) + ", " +
                                 std::to_string(v) + "} already present");
  }
  if (!add && !graph_.HasEdge(u, v)) {
    return Status::NotFound("edge {" + std::to_string(u) + ", " +
                            std::to_string(v) + "} does not exist");
  }
  return Status::OK();
}

bool UpdateEngine::Conforms(uint32_t mi, const VertexId* verts,
                            const CanonicalResult& canon) {
  // Conformance is label-only, so the verdict is the one the labeling stage
  // reached at pack time: conforming implies the occurrence counts in the
  // (global) frequency.
  const LabeledMotif& motif = snap_->motifs[mi];
  AlignOccurrence(verts, motif.size(), canon, &candidate_);
  return finder_.AlignConforming(*symmetric_sets_[mi], motif.scheme,
                                 candidate_, &conforming_);
}

Status UpdateEngine::Apply(bool add, VertexId u, VertexId v,
                           UpdateResult* result) {
  Status check = Check(add, u, v);
  if (!check.ok()) return check;
  *result = UpdateResult{};
  result->add = add;
  result->u = u;
  result->v = v;

  // Enumerate on the graph WITH the edge: for additions insert it first,
  // for deletions keep it until after the enumeration. One pass classifies
  // both directions — every delta set's pattern with the edge (bits_with)
  // and without it (bits_without, valid when still connected).
  if (add) {
    const ScopedSpan span(kSpanIndexEdit);
    Status st = graph_.AddEdge(u, v);
    if (!st.ok()) return st;
  }

  freq_delta_.assign(snap_->motifs.size(), 0);
  touched_.clear();
  affected_[u] = 1;
  affected_[v] = 1;
  for (const size_t k : sizes_) {
    {
      const ScopedSpan span(enumerate_spans_[k], k);
      EnumeratePairSubgraphs(graph_.index(), u, v, k, &subs_);
    }
    result->resubgraphs += subs_.size();
    ObsAdd(kObsEsuSubgraphs, subs_.size());
    const ScopedSpan span(kSpanClassify, k);
    if (!snap_->gds_signatures.empty() && k <= 5) {
      PatchSignatures(add, k);
      if (!subs_.empty()) result->signatures_changed = true;
    }
    PatchOccurrences(add, k, result);
  }

  if (!add) {
    const ScopedSpan span(kSpanIndexEdit);
    Status st = graph_.RemoveEdge(u, v);
    if (!st.ok()) return st;
  }

  {
    const ScopedSpan span(kSpanSites);
    PatchSites();
    for (VertexId p = 0; p < affected_.size(); ++p) {
      if (affected_[p]) {
        result->affected.push_back(p);
        affected_[p] = 0;
      }
    }
  }

  // Role vectors: the iteration column-normalizes over all proteins, so one
  // edge perturbs every row — recompute and report whether anything moved.
  if (!snap_->role_vectors.empty()) {
    const ScopedSpan span(kSpanRoles);
    std::vector<double> roles = ComputeRoleVectors(snap_->graph,
                                                   snap_->role_dim);
    result->roles_changed = roles != snap_->role_vectors;
    snap_->role_vectors = std::move(roles);
  }
  return Status::OK();
}

void UpdateEngine::PatchSignatures(bool add, size_t k) {
  // Each delta set gains/loses its with-edge orbit contribution and
  // loses/gains its without-edge one — sets not containing both endpoints
  // keep their induced adjacency, so this patch is exact.
  const GdsOrbitTable& orbits = GdsOrbitTable::Get();
  const uint64_t sign = add ? uint64_t{1} : ~uint64_t{0};  // +1 / -1
  std::vector<uint64_t>& signatures = snap_->gds_signatures;
  for (const PackedPairSubgraph& ps : subs_) {
    const uint8_t* with =
        orbits.OrbitsOfMask(k, static_cast<uint32_t>(ps.bits_with));
    for (size_t i = 0; i < k; ++i) {
      signatures[ps.verts[i] * kGdsOrbits + with[i]] += sign;
    }
    if (ps.connected_without) {
      const uint8_t* without =
          orbits.OrbitsOfMask(k, static_cast<uint32_t>(ps.bits_without));
      for (size_t i = 0; i < k; ++i) {
        signatures[ps.verts[i] * kGdsOrbits + without[i]] -= sign;
      }
    }
  }
}

void UpdateEngine::PatchOccurrences(bool add, size_t k, UpdateResult* result) {
  const auto by_code = motifs_by_code_.find(k);
  if (by_code == motifs_by_code_.end()) return;
  SharedCanonCache& cache = CacheFor(k);
  const auto motifs_of =
      [&](const CanonicalResult* canon) -> const std::vector<uint32_t>* {
    if (canon == nullptr) return nullptr;
    const auto it = by_code->second.find(canon->code);
    return it == by_code->second.end() ? nullptr : &it->second;
  };
  for (const PackedPairSubgraph& ps : subs_) {
    // Pattern transition of this vertex set. The edge changes the edge
    // count, so before != after always; "none" marks a disconnected side.
    const CanonicalResult* canon_with = &cache.Lookup(ps.bits_with);
    const CanonicalResult* canon_without =
        ps.connected_without ? &cache.Lookup(ps.bits_without) : nullptr;
    const CanonicalResult* before = add ? canon_without : canon_with;
    const CanonicalResult* after = add ? canon_with : canon_without;

    if (const std::vector<uint32_t>* mis = motifs_of(before)) {
      for (const uint32_t mi : *mis) {
        if (!Conforms(mi, ps.verts, *before)) continue;
        --freq_delta_[mi];
        // The stored list holds it only if this shard owns a member.
        std::vector<MotifOccurrence>& stored = snap_->motifs[mi].occurrences;
        for (auto it = stored.begin(); it != stored.end(); ++it) {
          if (SameVertexSet(ps.verts, k, it->proteins)) {
            for (const VertexId p : it->proteins) {
              affected_[p] = 1;
              // Only owned rows are kept (all of them unsharded).
              if (snap_->OwnsProtein(p)) touched_.emplace_back(mi, p);
            }
            stored.erase(it);
            ++result->occ_removed;
            break;
          }
        }
      }
    }
    if (const std::vector<uint32_t>* mis = motifs_of(after)) {
      bool owned = snap_->num_shards == 1;
      for (size_t i = 0; i < k; ++i) {
        owned = owned || snap_->OwnsProtein(ps.verts[i]);
      }
      for (const uint32_t mi : *mis) {
        if (!Conforms(mi, ps.verts, *after)) continue;
        ++freq_delta_[mi];
        if (!owned) continue;
        // conforming_ carries the scheme alignment LabelAll would have
        // stored — the repack byte-identity depends on it.
        for (const VertexId p : conforming_.proteins) {
          affected_[p] = 1;
          if (snap_->OwnsProtein(p)) touched_.emplace_back(mi, p);
        }
        snap_->motifs[mi].occurrences.push_back(conforming_);
        ++result->occ_added;
      }
    }
  }
}

void UpdateEngine::PatchSites() {
  // Frequencies moved; recompute every LMS strength (normalization is per
  // size class, so one frequency change can shift a whole class). Any motif
  // whose frequency or strength moved changes the MOTIFS/PREDICT answers of
  // every protein siting it.
  std::vector<LabeledMotif>& motifs = snap_->motifs;
  old_strengths_.resize(motifs.size());
  motif_changed_.assign(motifs.size(), 0);
  for (size_t mi = 0; mi < motifs.size(); ++mi) {
    old_strengths_[mi] = motifs[mi].strength;
    if (freq_delta_[mi] == 0) continue;
    motif_changed_[mi] = 1;
    const int64_t next =
        static_cast<int64_t>(motifs[mi].frequency) + freq_delta_[mi];
    motifs[mi].frequency = next < 0 ? 0 : static_cast<size_t>(next);
  }
  ComputeMotifStrengths(&motifs);
  bool any_changed = false;
  for (size_t mi = 0; mi < motifs.size(); ++mi) {
    if (motifs[mi].strength != old_strengths_[mi]) motif_changed_[mi] = 1;
    any_changed = any_changed || motif_changed_[mi];
  }

  // Site index: a row's segment for motif mi depends only on mi's
  // occurrences containing that protein, so only the (motif, protein)
  // pairs of added/removed occurrences can differ. Recompute each such
  // segment with the builder's first-seen loop and splice it in place.
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (size_t group = 0; group < touched_.size();) {
    const uint32_t mi = touched_[group].first;
    size_t end = group;
    slot_protein_.clear();
    for (; end < touched_.size() && touched_[end].first == mi; ++end) {
      const VertexId p = touched_[end].second;
      slot_of_[p] = static_cast<uint32_t>(slot_protein_.size());
      slot_protein_.push_back(p);
    }
    if (segments_.size() < slot_protein_.size()) {
      segments_.resize(slot_protein_.size());
    }
    for (size_t slot = 0; slot < slot_protein_.size(); ++slot) {
      segments_[slot].clear();
    }
    AppendMotifSites(motifs[mi], mi, [this](VertexId p) {
      return slot_of_[p] == kNoSlot ? nullptr : &segments_[slot_of_[p]];
    });
    for (size_t slot = 0; slot < slot_protein_.size(); ++slot) {
      const VertexId p = slot_protein_[slot];
      slot_of_[p] = kNoSlot;
      std::vector<MotifSite>& row = snap_->sites[p];
      const auto by_motif = [](const MotifSite& a, const MotifSite& b) {
        return a.motif < b.motif;
      };
      const auto [first, last] = std::equal_range(
          row.begin(), row.end(), MotifSite{mi, 0}, by_motif);
      const auto at = row.erase(first, last);
      row.insert(at, segments_[slot].begin(), segments_[slot].end());
    }
    group = end;
  }

  // Fold every row siting a changed motif into the affected set (touched
  // rows already are).
  if (!any_changed) return;
  for (VertexId p = 0; p < snap_->sites.size(); ++p) {
    if (affected_[p]) continue;
    for (const MotifSite& site : snap_->sites[p]) {
      if (motif_changed_[site.motif]) {
        affected_[p] = 1;
        break;
      }
    }
  }
}

Status UpdateEngine::ScoreEdge(VertexId u, VertexId v, EdgeScore* out) {
  Status check = Check(/*add=*/true, u, v);
  if (!check.ok()) return check;
  *out = EdgeScore{};

  // Insert the candidate edge, count the conforming motif instances it
  // completes, take it back out. The edge changes every delta set's edge
  // count, so each conforming with-edge instance is genuinely new —
  // completed by this candidate.
  {
    const ScopedSpan span(kSpanIndexEdit);
    Status st = graph_.AddEdge(u, v);
    if (!st.ok()) return st;
  }
  std::map<uint32_t, size_t> completions;
  for (const auto& [k, by_code] : motifs_by_code_) {
    if (k < 2 || k > GraphIndex::kMaxInducedBitsVertices ||
        k > graph_.num_vertices()) {
      continue;
    }
    {
      const ScopedSpan span(enumerate_spans_[k], k);
      EnumeratePairSubgraphs(graph_.index(), u, v, k, &subs_);
    }
    ObsAdd(kObsEsuSubgraphs, subs_.size());
    const ScopedSpan span(kSpanClassify, k);
    SharedCanonCache& cache = CacheFor(k);
    for (const PackedPairSubgraph& ps : subs_) {
      const CanonicalResult& canon = cache.Lookup(ps.bits_with);
      const auto mis = by_code.find(canon.code);
      if (mis == by_code.end()) continue;
      for (const uint32_t mi : mis->second) {
        if (Conforms(mi, ps.verts, canon)) ++completions[mi];
      }
    }
  }
  {
    const ScopedSpan span(kSpanIndexEdit);
    Status st = graph_.RemoveEdge(u, v);
    if (!st.ok()) return st;
  }

  for (const auto& [mi, count] : completions) {
    out->completions += count;
    out->score += static_cast<double>(count) * snap_->motifs[mi].strength;
    out->per_motif.emplace_back(mi, count);
  }
  return Status::OK();
}

}  // namespace lamo
