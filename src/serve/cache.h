#ifndef LAMO_SERVE_CACHE_H_
#define LAMO_SERVE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace lamo {

/// A sharded LRU map from request line to rendered response, memoizing the
/// serve daemon's pure queries (PREDICT / MOTIFS / TERMINFO). Sharding by
/// key hash keeps lock hold times short under concurrent connections: each
/// shard has its own mutex, recency list and capacity slice.
///
/// Responses are deterministic functions of the snapshot, so cache hits are
/// byte-identical to recomputation — turning the cache off (capacity 0)
/// never changes any response, only its latency.
class ResponseCache {
 public:
  /// A cache holding at most `capacity` entries spread over `num_shards`
  /// shards (each shard gets ceil(capacity / num_shards) slots). Capacity 0
  /// disables the cache: Get always misses and Put is a no-op.
  explicit ResponseCache(size_t capacity, size_t num_shards = 16);

  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// Looks up `key`, refreshing its recency on a hit.
  bool Get(const std::string& key, std::string* value);

  /// Inserts or refreshes `key`, evicting the shard's least-recently-used
  /// entry when its slice is full. `tag` is an opaque label for
  /// EraseTagged (the server tags an answer with the protein it is about);
  /// a key keeps the tag it was first inserted with.
  void Put(const std::string& key, std::string value, uint64_t tag = 0);

  /// Removes every entry whose tag satisfies `pred`; returns how many were
  /// dropped. Live updates use this to invalidate exactly the responses an
  /// edge mutation can change. Each shard keeps its tags in one flat array
  /// beside the recency list, so the scan reads a few contiguous KiB and
  /// touches the (cold, scattered) entries only to erase them.
  size_t EraseTagged(const std::function<bool(uint64_t)>& pred);

  /// Entries currently held, summed over shards.
  size_t size() const;

  /// Total entry capacity (0 = disabled).
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    std::string value;
    size_t slot = 0;  // position in Shard::tags / Shard::slots
  };
  struct Shard {
    mutable std::mutex mu;
    // Most-recently-used at the front.
    std::list<Entry> entries;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    // One slot per entry, in no particular order: tags[i] labels slots[i].
    std::vector<uint64_t> tags;
    std::vector<std::list<Entry>::iterator> slots;
  };

  Shard& ShardFor(const std::string& key);
  /// Drops `it` from all of the shard's structures (swap-removing its slot).
  static void Remove(Shard* shard, std::list<Entry>::iterator it);

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace lamo

#endif  // LAMO_SERVE_CACHE_H_
