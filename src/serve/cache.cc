#include "serve/cache.h"

#include <functional>
#include <iterator>

namespace lamo {

ResponseCache::ResponseCache(size_t capacity, size_t num_shards)
    : capacity_(capacity) {
  if (num_shards == 0) num_shards = 1;
  if (num_shards > capacity && capacity > 0) num_shards = capacity;
  per_shard_capacity_ =
      capacity == 0 ? 0 : (capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResponseCache::Shard& ResponseCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool ResponseCache::Get(const std::string& key, std::string* value) {
  if (capacity_ == 0) return false;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
  *value = it->second->value;
  return true;
}

void ResponseCache::Put(const std::string& key, std::string value,
                        uint64_t tag) {
  if (capacity_ == 0) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    shard.entries.splice(shard.entries.begin(), shard.entries, it->second);
    return;
  }
  shard.entries.push_front(Entry{key, std::move(value), shard.slots.size()});
  shard.index[key] = shard.entries.begin();
  shard.tags.push_back(tag);
  shard.slots.push_back(shard.entries.begin());
  if (shard.entries.size() > per_shard_capacity_) {
    Remove(&shard, std::prev(shard.entries.end()));
  }
}

void ResponseCache::Remove(Shard* shard, std::list<Entry>::iterator it) {
  const size_t slot = it->slot;
  const size_t last = shard->slots.size() - 1;
  if (slot != last) {
    shard->tags[slot] = shard->tags[last];
    shard->slots[slot] = shard->slots[last];
    shard->slots[slot]->slot = slot;
  }
  shard->tags.pop_back();
  shard->slots.pop_back();
  shard->index.erase(it->key);
  shard->entries.erase(it);
}

size_t ResponseCache::EraseTagged(const std::function<bool(uint64_t)>& pred) {
  if (capacity_ == 0) return 0;
  size_t erased = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Removing slot i moves the last slot into i, so i is re-examined.
    for (size_t i = 0; i < shard->tags.size();) {
      if (pred(shard->tags[i])) {
        Remove(shard.get(), shard->slots[i]);
        ++erased;
      } else {
        ++i;
      }
    }
  }
  return erased;
}

size_t ResponseCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

}  // namespace lamo
