#ifndef LAMO_MOTIF_CANON_CACHE_H_
#define LAMO_MOTIF_CANON_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/canonical.h"
#include "graph/small_graph.h"

namespace lamo {

/// Cross-chunk, cross-replicate canonicalization memo shared by every worker
/// of a mining run. Induced size-k subgraphs repeat the same few adjacency
/// patterns millions of times; the per-chunk caches of PR 2 already ran at
/// ~98% hit rate but still paid one Canonicalize per pattern *per chunk*
/// (and per uniqueness replicate). This table pays it once per run.
///
/// Keys are the 64-bit upper-triangle adjacency packings produced by
/// GraphIndex::InducedBits — a pure function of the induced adjacency
/// pattern, independent of which host graph the pattern was found in, so one
/// table serves the real network and every randomized replicate. Values are
/// full CanonicalResults (code + canonical graph + permutation) with stable
/// addresses; Canonicalize is deterministic, so which thread computes an
/// entry can never change what any reader observes and pipeline output stays
/// byte-identical.
///
/// Two internal layouts, both safe for concurrent mixed lookup/insert:
///  * k <= 6 (<= 15 pair bits): a direct-mapped array of atomic pointers,
///    one slot per possible adjacency pattern — hits are a single acquire
///    load, no locks anywhere; racing inserts resolve by CAS (the loser
///    discards its copy of the identical value).
///  * 6 < k <= kMaxK: a hash table sharded 16 ways by key, one mutex per
///    shard; misses compute under the shard lock so each pattern is
///    canonicalized exactly once.
///
/// Obs counters (reported as esu.canon_shared_{lookups,hits,misses}) tick
/// once per Lookup, so lookups == hits + misses always — lamo_report_check
/// enforces this invariant on every run report.
class SharedCanonCache {
 public:
  /// Largest supported subgraph size: k * (k-1) / 2 must fit the 64-bit
  /// key with headroom (10 * 9 / 2 = 45 bits). Larger sizes fall back to
  /// the chunk-local byte-string caches.
  static constexpr size_t kMaxK = 10;

  /// A cache for size-`k` subgraphs (2 <= meaningful k <= kMaxK).
  explicit SharedCanonCache(size_t k);
  ~SharedCanonCache();

  SharedCanonCache(const SharedCanonCache&) = delete;
  SharedCanonCache& operator=(const SharedCanonCache&) = delete;

  size_t k() const { return k_; }

  /// The canonicalization of the k-vertex graph whose packed upper-triangle
  /// adjacency is `bits` (GraphIndex::InducedBits packing). The reference is
  /// stable for the lifetime of the cache.
  const CanonicalResult& Lookup(uint64_t bits);

  /// Rebuilds the SmallGraph encoded by `bits` (the inverse of
  /// GraphIndex::InducedBits for a vertex set mapped to 0..k-1).
  static SmallGraph UnpackBits(uint64_t bits, size_t k);

  /// Packs a SmallGraph back into the InducedBits key layout (test helper;
  /// requires g.num_vertices() <= kMaxK + 1).
  static uint64_t PackBits(const SmallGraph& g);

 private:
  static constexpr size_t kNumShards = 16;

  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, std::unique_ptr<CanonicalResult>> entries;
  };

  const CanonicalResult& LookupDense(uint64_t bits);
  const CanonicalResult& LookupSharded(uint64_t bits);

  size_t k_ = 0;
  // Direct-mapped path (k <= 6): slot index == key.
  std::vector<std::atomic<const CanonicalResult*>> dense_;
  // Sharded path (k > 6).
  std::unique_ptr<Shard[]> shards_;
};

/// Chunk-local memo from the raw adjacency bytes of an induced subgraph to
/// its full canonicalization (code, canonical graph, permutation): the
/// fallback for sizes past SharedCanonCache::kMaxK, whose patterns outgrow
/// the 64-bit key. Chunk-local by design — no sharing, no locks — and
/// Canonicalize is pure, so results are bit-identical with or without it.
/// Obs counters: esu.canon_cache_{hits,misses}.
class ChunkCanonCache {
 public:
  const CanonicalResult& Lookup(const SmallGraph& sub);

 private:
  std::map<std::vector<uint8_t>, CanonicalResult> memo_;
};

}  // namespace lamo

#endif  // LAMO_MOTIF_CANON_CACHE_H_
