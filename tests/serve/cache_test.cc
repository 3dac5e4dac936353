// ResponseCache tests: hit/miss behavior, LRU eviction order, recency
// refresh on Get and Put, the capacity-0 kill switch, tag-driven erasure,
// and thread safety under concurrent mixed traffic (meaningful under TSan
// via reproduce.sh).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/cache.h"

namespace lamo {
namespace {

TEST(ResponseCacheTest, MissThenHit) {
  ResponseCache cache(/*capacity=*/8, /*num_shards=*/1);
  std::string value;
  EXPECT_FALSE(cache.Get("a", &value));
  cache.Put("a", "alpha");
  ASSERT_TRUE(cache.Get("a", &value));
  EXPECT_EQ(value, "alpha");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResponseCacheTest, PutRefreshesExistingKey) {
  ResponseCache cache(/*capacity=*/8, /*num_shards=*/1);
  cache.Put("a", "old");
  cache.Put("a", "new");
  EXPECT_EQ(cache.size(), 1u);
  std::string value;
  ASSERT_TRUE(cache.Get("a", &value));
  EXPECT_EQ(value, "new");
}

TEST(ResponseCacheTest, EvictsLeastRecentlyUsed) {
  // One shard, two slots: "a" then "b"; touching "a" makes "b" the LRU
  // victim when "c" arrives.
  ResponseCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", "1");
  cache.Put("b", "2");
  std::string value;
  ASSERT_TRUE(cache.Get("a", &value));  // refresh "a"
  cache.Put("c", "3");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Get("a", &value));
  EXPECT_FALSE(cache.Get("b", &value));
  EXPECT_TRUE(cache.Get("c", &value));
}

TEST(ResponseCacheTest, CapacityZeroDisables) {
  ResponseCache cache(/*capacity=*/0);
  cache.Put("a", "alpha");
  std::string value;
  EXPECT_FALSE(cache.Get("a", &value));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 0u);
}

TEST(ResponseCacheTest, ShardedCapacityIsRespected) {
  ResponseCache cache(/*capacity=*/16, /*num_shards=*/4);
  for (int i = 0; i < 200; ++i) {
    cache.Put("key" + std::to_string(i), "value");
  }
  // ceil(16/4) = 4 slots per shard; total never exceeds shards * slice.
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(cache.size(), 0u);
}

TEST(ResponseCacheTest, EraseTaggedDropsExactlyTheMatchingEntries) {
  // LRU evictions and tag erasures both swap-remove slots; interleave them
  // and check every round against the keys actually present.
  ResponseCache cache(/*capacity=*/48, /*num_shards=*/4);
  const auto tag_of = [](int key) { return static_cast<uint64_t>(key % 7); };
  int next = 0;
  for (uint64_t round = 0; round < 7; ++round) {
    for (int i = 0; i < 90; ++i, ++next) {
      cache.Put("key" + std::to_string(next), "v", tag_of(next));
    }
    std::vector<int> present;
    std::string value;
    for (int key = 0; key < next; ++key) {
      if (cache.Get("key" + std::to_string(key), &value)) {
        present.push_back(key);
      }
    }
    ASSERT_EQ(present.size(), cache.size());
    size_t matching = 0;
    for (const int key : present) matching += tag_of(key) == round;
    EXPECT_EQ(cache.EraseTagged([round](uint64_t tag) { return tag == round; }),
              matching);
    EXPECT_EQ(cache.size(), present.size() - matching);
    for (const int key : present) {
      EXPECT_EQ(cache.Get("key" + std::to_string(key), &value),
                tag_of(key) != round)
          << "key" << key;
    }
  }
  const size_t left = cache.size();
  EXPECT_EQ(cache.EraseTagged([](uint64_t) { return true; }), left);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResponseCacheTest, ConcurrentMixedTrafficIsSafe) {
  ResponseCache cache(/*capacity=*/64, /*num_shards=*/8);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&cache, w] {
      std::string value;
      for (int i = 0; i < 2000; ++i) {
        const std::string key = "key" + std::to_string((w * 37 + i) % 100);
        if (i % 3 == 0) {
          cache.Put(key, "value" + std::to_string(i));
        } else {
          cache.Get(key, &value);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_LE(cache.size(), 64u);
}

}  // namespace
}  // namespace lamo
