#include "motif/canon_cache.h"

#include "obs/obs.h"
#include "util/logging.h"

namespace lamo {
namespace {

/// Shared-table outcomes; lookups == hits + misses by construction (one
/// pair of ticks per Lookup), enforced by lamo_report_check.
const size_t kObsLookups = ObsCounterId("esu.canon_shared_lookups");
const size_t kObsHits = ObsCounterId("esu.canon_shared_hits");
const size_t kObsMisses = ObsCounterId("esu.canon_shared_misses");
/// Chunk-local memo outcomes (ChunkCanonCache).
const size_t kObsChunkHits = ObsCounterId("esu.canon_cache_hits");
const size_t kObsChunkMisses = ObsCounterId("esu.canon_cache_misses");

/// Finalizer for splitmix64 — spreads the low-entropy adjacency keys across
/// shards far better than taking the raw low bits.
uint64_t MixKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

size_t PairBits(size_t k) { return k * (k - 1) / 2; }

}  // namespace

SharedCanonCache::SharedCanonCache(size_t k) : k_(k) {
  LAMO_CHECK_LE(k_, kMaxK);
  if (k_ <= 6) {
    dense_ = std::vector<std::atomic<const CanonicalResult*>>(
        size_t{1} << PairBits(k_));
    for (auto& slot : dense_) slot.store(nullptr, std::memory_order_relaxed);
  } else {
    shards_ = std::make_unique<Shard[]>(kNumShards);
  }
}

SharedCanonCache::~SharedCanonCache() {
  for (auto& slot : dense_) {
    delete slot.load(std::memory_order_acquire);
  }
}

SmallGraph SharedCanonCache::UnpackBits(uint64_t bits, size_t k) {
  SmallGraph g(k);
  size_t pair = 0;
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t j = i + 1; j < k; ++j, ++pair) {
      if ((bits >> pair) & 1) g.AddEdge(i, j);
    }
  }
  return g;
}

uint64_t SharedCanonCache::PackBits(const SmallGraph& g) {
  const size_t k = g.num_vertices();
  LAMO_CHECK_LE(k, kMaxK + 1);
  uint64_t bits = 0;
  size_t pair = 0;
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t j = i + 1; j < k; ++j, ++pair) {
      if (g.HasEdge(i, j)) bits |= uint64_t{1} << pair;
    }
  }
  return bits;
}

const CanonicalResult& SharedCanonCache::Lookup(uint64_t bits) {
  ObsIncrement(kObsLookups);
  return dense_.empty() ? LookupSharded(bits) : LookupDense(bits);
}

const CanonicalResult& SharedCanonCache::LookupDense(uint64_t bits) {
  std::atomic<const CanonicalResult*>& slot = dense_[bits];
  const CanonicalResult* found = slot.load(std::memory_order_acquire);
  if (found != nullptr) {
    ObsIncrement(kObsHits);
    return *found;
  }
  ObsIncrement(kObsMisses);
  const CanonicalResult* computed =
      new CanonicalResult(Canonicalize(UnpackBits(bits, k_)));
  const CanonicalResult* expected = nullptr;
  if (!slot.compare_exchange_strong(expected, computed,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    // Another worker canonicalized the same pattern first; both results are
    // identical (Canonicalize is pure), keep theirs.
    delete computed;
    return *expected;
  }
  return *computed;
}

const CanonicalResult& SharedCanonCache::LookupSharded(uint64_t bits) {
  Shard& shard = shards_[MixKey(bits) % kNumShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(bits);
  if (it != shard.entries.end()) {
    ObsIncrement(kObsHits);
    return *it->second;
  }
  ObsIncrement(kObsMisses);
  auto result =
      std::make_unique<CanonicalResult>(Canonicalize(UnpackBits(bits, k_)));
  return *shard.entries.emplace(bits, std::move(result)).first->second;
}

const CanonicalResult& ChunkCanonCache::Lookup(const SmallGraph& sub) {
  std::vector<uint8_t> key = sub.AdjacencyCode();
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    ObsIncrement(kObsChunkHits);
    return it->second;
  }
  ObsIncrement(kObsChunkMisses);
  return memo_.emplace(std::move(key), Canonicalize(sub)).first->second;
}

}  // namespace lamo
