#ifndef LAMO_MOTIF_ESU_ENGINE_H_
#define LAMO_MOTIF_ESU_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph_index.h"
#include "util/logging.h"

namespace lamo {
namespace esu_internal {

/// Exhaustive exploration policy: every branch of the ESU tree is walked.
/// Engines instantiated with it carry no sampling code at all (the policy
/// is tested with `if constexpr`).
struct ExploreAll {
  static constexpr bool kExhaustive = true;
  static constexpr bool Explore(size_t /*depth*/) { return true; }
};

/// Leaf emission policy: only the size-k sets (the ESU tree's leaves) are
/// emitted. Engines instantiated with it carry no prefix-emission code.
struct EmitLeaves {
  static constexpr bool kPrefixes = false;
};

/// Prefix emission policy: every tree node of size >= 2 is emitted on entry,
/// inner nodes included. In Wernicke's ESU tree every node is a distinct
/// connected set, so one depth-k walk yields every connected 2..k-set once,
/// in pre-order: the size-s subsequence is exactly the emission sequence of
/// a depth-s walk (graphlet degree signatures, predict/gds.cc).
struct EmitPrefixes {
  static constexpr bool kPrefixes = true;
};

/// Allocation-free ESU walk over a GraphIndex — the index-centric successor
/// of the pointer-chasing recursive walk (tests/oracle/legacy_esu.cc keeps
/// it as the reference the differential battery diffs against). Same
/// recursion tree, same emission order, zero heap traffic per tree node:
///
///  * the per-node `next_extension` vector copies become appends to one
///    flat extension stack addressed by (begin, end) index frames;
///  * the exclusive-neighborhood test "u is in, or adjacent to, the current
///    subgraph" becomes a single bit probe into a per-depth *forbidden*
///    bitset (subgraph ∪ N(subgraph)), maintained incrementally with one
///    word-parallel row OR per tree node when the index is dense;
///  * without the dense bitset (n > GraphIndex::kDenseVertexLimit) the
///    forbidden set is kept as a per-depth sorted vertex list instead, and
///    exclusive neighbors fall out of one sorted-neighbor difference walk
///    of N(w) against it (same merge kernel family as
///    GraphIndex::IntersectSorted);
///  * the deepest recursion level — the overwhelming majority of tree
///    nodes — emits candidates directly without building their extension
///    or forbidden state at all.
///
/// Equivalence to the legacy walk: candidates inherited from the parent
/// frame are, by the ESU invariant, adjacent to the current subgraph, so
/// the legacy `u not already in next_extension` membership scan can never
/// fire once "not in forbidden" holds; everything else is a 1:1
/// transliteration. The 100-graph differential test pins this.
///
/// Two seeding policies share the walk:
///
///  * RunRoots — classic ESU: every connected k-set once, rooted at its
///    minimum vertex (candidates must exceed the root).
///  * RunPair — pair-anchored ESU for incremental updates: every connected
///    k-set containing both endpoints of an edge once. The seed is the
///    two-vertex set, no root filter applies, and frames are consumed from
///    the back with the *preceding* siblings inherited — the emission order
///    of the copying recursive walk that tests/motif/pair_kernel_test.cc
///    keeps as the oracle and diffs sequences against.
///
/// `Explore` is the branch policy of RunRoots. ExploreAll walks the whole
/// tree; a sampling policy (RAND-ESU, Wernicke 2006) has kExhaustive false
/// and Explore(depth) decides per branch: once per root at depth 0, then
/// once per extension candidate of a size-d subgraph at depth d — the coin
/// order of the recursive walk, so equal Rng seeds sample equal sets.
///
/// `Emission` picks the emitted tree nodes: EmitLeaves (the size-k sets)
/// or EmitPrefixes (every node of size 2..k).
///
/// `Emit` is invoked as emit(const VertexId* set, size_t size) with the
/// vertex set in ascending order; returning false aborts the whole
/// enumeration (matching the public callback contract).
template <typename Emit, typename Explore = ExploreAll,
          typename Emission = EmitLeaves>
class Engine {
 public:
  Engine(const GraphIndex& index, size_t k, Emit emit, Explore explore = {})
      : index_(index),
        k_(k),
        words_(index.words_per_row()),
        emit_(std::move(emit)),
        explore_(std::move(explore)),
        subgraph_(k == 0 ? 0 : k),
        sorted_(k == 0 ? 0 : k) {
    if (k_ > 2) {
      // Depth d < k-2 needs a forbidden set for its children; the last two
      // levels never probe one.
      if (index_.dense()) {
        forbidden_.assign((k_ - 2) * words_, 0);
      } else {
        forbidden_lists_.resize(k_ - 2);
      }
    }
  }

  /// Enumerates all connected size-k sets rooted (at their minimum vertex)
  /// in [root_begin, root_end). Returns false iff emit aborted.
  bool RunRoots(VertexId root_begin, VertexId root_end) {
    const size_t n = index_.num_vertices();
    if (k_ == 0 || k_ > n) return true;
    root_end = std::min<VertexId>(root_end, static_cast<VertexId>(n));
    for (VertexId v = root_begin; v < root_end; ++v) {
      if constexpr (!Explore::kExhaustive) {
        if (!explore_.Explore(0)) continue;
      }
      subgraph_[0] = v;
      if (k_ == 1) {
        if (!EmitSet()) return false;
        continue;
      }
      // Neighbors are sorted, so the upward half (u > v) is a suffix.
      const auto nbrs = index_.Neighbors(v);
      extension_.assign(std::upper_bound(nbrs.begin(), nbrs.end(), v),
                        nbrs.end());
      if (k_ > 2) {
        if (index_.dense()) {
          // forbidden({v}) = {v} ∪ N(v).
          uint64_t* row = ForbiddenRow(0);
          const uint64_t* adj = index_.Row(v);
          for (size_t w = 0; w < words_; ++w) row[w] = adj[w];
          row[v >> 6] |= uint64_t{1} << (v & 63);
        } else {
          // Only vertices > root can ever be candidates, so the sorted
          // forbidden list keeps just that suffix (v itself is <= root).
          std::vector<VertexId>& list = forbidden_lists_[0];
          list.assign(extension_.begin(), extension_.end());
        }
      }
      if (!Extend<false>(1, 0, extension_.size(), v)) return false;
    }
    return true;
  }

  /// Enumerates all connected size-k sets containing both `u` and `v`,
  /// which must be adjacent and distinct (k >= 2). Wernicke's
  /// exclusive-neighborhood invariant carries over to any connected seed,
  /// so each set is emitted exactly once. Returns false iff emit aborted.
  bool RunPair(VertexId u, VertexId v) {
    if (k_ < 2 || k_ > index_.num_vertices()) return true;
    subgraph_[0] = u;
    subgraph_[1] = v;
    if (k_ == 2) return EmitSet();
    // Seed frame: N(u) then N(v), each ascending, minus {u, v} and repeats.
    extension_.clear();
    for (const VertexId x : index_.Neighbors(u)) {
      if (x != v) extension_.push_back(x);
    }
    const size_t from_u = extension_.size();
    for (const VertexId x : index_.Neighbors(v)) {
      if (x != u && !std::binary_search(extension_.begin(),
                                        extension_.begin() + from_u, x)) {
        extension_.push_back(x);
      }
    }
    if (k_ > 3) {
      // forbidden({u, v}) = {u, v} ∪ N(u) ∪ N(v); read from depth 2 on.
      if (index_.dense()) {
        uint64_t* row = ForbiddenRow(1);
        const uint64_t* adj_u = index_.Row(u);
        const uint64_t* adj_v = index_.Row(v);
        for (size_t w = 0; w < words_; ++w) row[w] = adj_u[w] | adj_v[w];
      } else {
        std::vector<VertexId>& list = forbidden_lists_[1];
        list.assign(extension_.begin(), extension_.end());
        list.push_back(u);
        list.push_back(v);
        std::sort(list.begin(), list.end());
      }
    }
    return Extend<true>(2, 0, extension_.size(), 0);
  }

 private:
  uint64_t* ForbiddenRow(size_t depth) {
    return forbidden_.data() + depth * words_;
  }

  static bool TestBit(const uint64_t* row, VertexId u) {
    return (row[u >> 6] >> (u & 63)) & 1;
  }

  /// Sorts the k subgraph vertices into sorted_ and emits.
  bool EmitSet() {
    for (size_t i = 0; i < k_; ++i) {
      const VertexId v = subgraph_[i];
      size_t j = i;
      for (; j > 0 && sorted_[j - 1] > v; --j) sorted_[j] = sorted_[j - 1];
      sorted_[j] = v;
    }
    return emit_(sorted_.data(), k_);
  }

  /// EmitSet for an inner node of `size` vertices (EmitPrefixes only). A
  /// separate copy of the loop, so that leaf-emitting engines compile to
  /// the same code as without the prefix policy.
  bool EmitPrefix(size_t size) {
    for (size_t i = 0; i < size; ++i) {
      const VertexId v = subgraph_[i];
      size_t j = i;
      for (; j > 0 && sorted_[j - 1] > v; --j) sorted_[j] = sorted_[j - 1];
      sorted_[j] = v;
    }
    return emit_(sorted_.data(), size);
  }

  /// Extends a subgraph of `size` vertices with candidates
  /// extension_[ext_begin, ext_end). Frames are index-based: the flat
  /// extension stack may reallocate while children append to it.
  /// kPair selects the RunPair policy: no root filter, frames consumed from
  /// the back, preceding siblings inherited.
  template <bool kPair>
  bool Extend(size_t size, size_t ext_begin, size_t ext_end, VertexId root) {
    if constexpr (Emission::kPrefixes) {
      if (size >= 2 && !EmitPrefix(size)) return false;
    }
    const size_t count = ext_end - ext_begin;
    if (size + 1 == k_) {
      // Leaf level: each candidate completes a size-k set; no child state.
      for (size_t step = 0; step < count; ++step) {
        if constexpr (!Explore::kExhaustive) {
          if (!explore_.Explore(size)) continue;
        }
        subgraph_[size] =
            extension_[kPair ? ext_end - 1 - step : ext_begin + step];
        if (!EmitSet()) return false;
      }
      return true;
    }
    const bool build_forbidden = size + 2 < k_;
    for (size_t step = 0; step < count; ++step) {
      if constexpr (!Explore::kExhaustive) {
        if (!explore_.Explore(size)) continue;
      }
      const size_t i = kPair ? ext_end - 1 - step : ext_begin + step;
      const VertexId w = extension_[i];
      subgraph_[size] = w;
      const size_t child_begin = extension_.size();
      // Not-yet-consumed siblings stay candidates for the child (ESU).
      const size_t sib_begin = kPair ? ext_begin : i + 1;
      const size_t sib_end = kPair ? i : ext_end;
      for (size_t j = sib_begin; j < sib_end; ++j) {
        extension_.push_back(extension_[j]);
      }
      // Exclusive neighbors of w: outside subgraph ∪ N(subgraph) (and
      // > root unless pair-anchored).
      const auto nbrs = index_.Neighbors(w);
      if (index_.dense()) {
        const uint64_t* forb = ForbiddenRow(size - 1);
        for (const VertexId u : nbrs) {
          if ((kPair || u > root) && !TestBit(forb, u)) {
            extension_.push_back(u);
          }
        }
        if (build_forbidden) {
          uint64_t* child = ForbiddenRow(size);
          const uint64_t* adj = index_.Row(w);
          for (size_t t = 0; t < words_; ++t) child[t] = forb[t] | adj[t];
          child[w >> 6] |= uint64_t{1} << (w & 63);
        }
      } else {
        // Sorted difference walk: N(w) (ascending) against the ascending
        // forbidden list — both cursors only move forward.
        const std::vector<VertexId>& forb = forbidden_lists_[size - 1];
        size_t cursor = 0;
        for (const VertexId u : nbrs) {
          if (!kPair && u <= root) continue;
          while (cursor < forb.size() && forb[cursor] < u) ++cursor;
          if (cursor < forb.size() && forb[cursor] == u) continue;
          extension_.push_back(u);
        }
        if (build_forbidden) {
          // child forbidden = forb ∪ {w} ∪ {u ∈ N(w) : u > root} (all of
          // N(w) when pair-anchored), merged in one ascending pass (w
          // itself is already in forb: it was an extension candidate, hence
          // adjacent to the subgraph).
          std::vector<VertexId>& child = forbidden_lists_[size];
          child.clear();
          size_t fi = 0;
          size_t ni = 0;
          while (!kPair && ni < nbrs.size() && nbrs[ni] <= root) ++ni;
          while (fi < forb.size() || ni < nbrs.size()) {
            VertexId next;
            if (ni == nbrs.size() ||
                (fi < forb.size() && forb[fi] <= nbrs[ni])) {
              next = forb[fi++];
              if (ni < nbrs.size() && nbrs[ni] == next) ++ni;  // dedup
            } else {
              next = nbrs[ni++];
            }
            child.push_back(next);
          }
        }
      }
      const bool keep_going =
          Extend<kPair>(size + 1, child_begin, extension_.size(), root);
      extension_.resize(child_begin);
      if (!keep_going) return false;
    }
    return true;
  }

  const GraphIndex& index_;
  const size_t k_;
  const size_t words_;
  Emit emit_;
  [[no_unique_address]] Explore explore_;
  std::vector<VertexId> subgraph_;  // DFS order, size k
  std::vector<VertexId> sorted_;    // ascending copy for emission
  std::vector<VertexId> extension_;  // flat stack of per-depth frames
  std::vector<uint64_t> forbidden_;  // dense: (k-2) rows of n bits
  std::vector<std::vector<VertexId>> forbidden_lists_;  // sparse fallback
};

/// Deduces Emit so call sites read naturally.
template <typename Emit>
bool RunEsu(const GraphIndex& index, size_t k, VertexId root_begin,
            VertexId root_end, Emit&& emit) {
  Engine<std::decay_t<Emit>> engine(index, k, std::forward<Emit>(emit));
  return engine.RunRoots(root_begin, root_end);
}

/// RunEsu under a branch policy (see Engine): RAND-ESU sampling.
template <typename Explore, typename Emit>
bool RunSampledEsu(const GraphIndex& index, size_t k, VertexId root_begin,
                   VertexId root_end, Explore explore, Emit&& emit) {
  Engine<std::decay_t<Emit>, Explore> engine(index, k, std::forward<Emit>(emit),
                                             std::move(explore));
  return engine.RunRoots(root_begin, root_end);
}

/// RunEsu under EmitPrefixes: every connected 2..k-set rooted in the range
/// (and, for k = 1, the singletons).
template <typename Emit>
bool RunPrefixEsu(const GraphIndex& index, size_t k, VertexId root_begin,
                  VertexId root_end, Emit&& emit) {
  Engine<std::decay_t<Emit>, ExploreAll, EmitPrefixes> engine(
      index, k, std::forward<Emit>(emit));
  return engine.RunRoots(root_begin, root_end);
}

/// Pair-anchored counterpart of RunEsu (see Engine::RunPair).
template <typename Emit>
bool RunPairEsu(const GraphIndex& index, size_t k, VertexId u, VertexId v,
                Emit&& emit) {
  Engine<std::decay_t<Emit>> engine(index, k, std::forward<Emit>(emit));
  return engine.RunPair(u, v);
}

}  // namespace esu_internal
}  // namespace lamo

#endif  // LAMO_MOTIF_ESU_ENGINE_H_
