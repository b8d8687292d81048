// Differential tests of BlockHashTable against std::unordered_map: seeded operation mixes
// with growth, probe clusters that wrap the table end (the backward-shift deletion's hard
// case), the extreme keys, and conditional erase.

#include "src/core/block_hash_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <unordered_map>
#include <vector>

namespace jenga {
namespace {

using Table = BlockHashTable<SmallPageId>;
using Reference = std::unordered_map<BlockHash, SmallPageId>;

// Full-content comparison: every reference entry is found with its value, and iteration
// yields exactly the reference's entries.
void ExpectSameContents(const Table& table, const Reference& reference) {
  ASSERT_EQ(table.size(), reference.size());
  for (const auto& [key, value] : reference) {
    const SmallPageId* found = table.Find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value) << "key " << key;
  }
  size_t walked = 0;
  for (const auto& [key, value] : table) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << "iteration yielded absent key " << key;
    EXPECT_EQ(it->second, value);
    ++walked;
  }
  EXPECT_EQ(walked, reference.size());
}

// Random keys whose probe starts at `home` in `table`'s current capacity.
std::vector<BlockHash> KeysHomedAt(const Table& table, size_t home, int count,
                                   std::mt19937_64& rng) {
  std::vector<BlockHash> keys;
  while (static_cast<int>(keys.size()) < count) {
    const BlockHash key = rng();
    if (table.HomeSlot(key) == home) {
      keys.push_back(key);
    }
  }
  return keys;
}

TEST(BlockHashTable, AllocatesNothingUntilFirstInsert) {
  Table table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_FALSE(table.Erase(7));
  EXPECT_FALSE(table.EraseIfMappedTo(7, 1));
  EXPECT_EQ(table.begin(), table.end());
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_TRUE(table.TryInsert(7, 1).second);
  EXPECT_GT(table.capacity(), 0u);
  table.Clear();
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find(7), nullptr);
}

TEST(BlockHashTable, ExtremeKeysAreOrdinaryKeys) {
  constexpr BlockHash kMax = std::numeric_limits<BlockHash>::max();
  Table table;
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_TRUE(table.TryInsert(0, 10).second);
  EXPECT_EQ(table.Find(kMax), nullptr);
  EXPECT_TRUE(table.TryInsert(kMax, 20).second);
  ASSERT_NE(table.Find(0), nullptr);
  EXPECT_EQ(*table.Find(0), 10);
  ASSERT_NE(table.Find(kMax), nullptr);
  EXPECT_EQ(*table.Find(kMax), 20);
  // A second insert keeps the first value.
  const auto [value, inserted] = table.TryInsert(0, 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*value, 10);
  EXPECT_TRUE(table.Erase(0));
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(*table.Find(kMax), 20);
  EXPECT_TRUE(table.Erase(kMax));
  EXPECT_TRUE(table.empty());
}

TEST(BlockHashTable, ConditionalEraseKeepsKeyMappedElsewhere) {
  Table table;
  table.TryInsert(42, 5);
  EXPECT_FALSE(table.EraseIfMappedTo(42, 6));
  ASSERT_NE(table.Find(42), nullptr);
  EXPECT_EQ(*table.Find(42), 5);
  EXPECT_FALSE(table.EraseIfMappedTo(43, 5));
  EXPECT_TRUE(table.EraseIfMappedTo(42, 5));
  EXPECT_EQ(table.Find(42), nullptr);
}

TEST(BlockHashTable, ClusterWrappingTableEndSurvivesEveryEraseOrder) {
  // Cluster layout at capacity 16: four keys homed at the last slot fill slots 15, 0, 1, 2;
  // two keys homed at slot 0 land in 3 and 4; one homed at slot 1 lands in 5. Erasing any
  // member must shift the rest back so each stays reachable from its home.
  std::mt19937_64 rng(11);
  for (int victim = 0; victim < 7; ++victim) {
    Table table;
    table.TryInsert(rng(), 0);
    const size_t capacity = table.capacity();
    table.Clear();
    table.TryInsert(0, 0);  // Re-allocate at the same capacity; erased below.
    ASSERT_EQ(table.capacity(), capacity);
    std::vector<BlockHash> keys = KeysHomedAt(table, capacity - 1, 4, rng);
    for (const BlockHash key : KeysHomedAt(table, 0, 2, rng)) {
      keys.push_back(key);
    }
    keys.push_back(KeysHomedAt(table, 1, 1, rng)[0]);
    ASSERT_TRUE(table.Erase(0));
    Reference reference;
    for (size_t i = 0; i < keys.size(); ++i) {
      table.TryInsert(keys[i], static_cast<SmallPageId>(i));
      reference.emplace(keys[i], static_cast<SmallPageId>(i));
    }
    ASSERT_EQ(table.capacity(), capacity) << "cluster must not trigger growth";
    ExpectSameContents(table, reference);
    // Erase `victim` first, then the rest in rotating order.
    for (size_t k = 0; k < keys.size(); ++k) {
      const BlockHash key = keys[(static_cast<size_t>(victim) + k) % keys.size()];
      ASSERT_TRUE(table.Erase(key));
      reference.erase(key);
      ExpectSameContents(table, reference);
    }
    EXPECT_TRUE(table.empty());
  }
}

TEST(BlockHashTable, SeededOperationsMatchUnorderedMap) {
  constexpr BlockHash kMax = std::numeric_limits<BlockHash>::max();
  for (const uint64_t seed : {1u, 2u, 3u, 97u}) {
    std::mt19937_64 rng(seed);
    // A small key universe makes re-inserts, duplicate inserts and erases of present keys
    // common; the extreme keys ride along. The universe grows with the phase so the table
    // grows through several capacities and then shrinks back through erases.
    std::vector<BlockHash> universe = {0, kMax, 1, kMax - 1};
    Table table;
    Reference reference;
    for (int phase = 0; phase < 6; ++phase) {
      while (universe.size() < (size_t{64} << phase)) {
        universe.push_back(rng());
      }
      const int insert_bias = phase < 4 ? 60 : 25;  // Percent; late phases mostly erase.
      for (int op = 0; op < 4000; ++op) {
        const BlockHash key = universe[rng() % universe.size()];
        const auto value = static_cast<SmallPageId>(rng() % 8);
        const int roll = static_cast<int>(rng() % 100);
        if (roll < insert_bias) {
          const auto [stored, inserted] = table.TryInsert(key, value);
          const auto [it, ref_inserted] = reference.try_emplace(key, value);
          ASSERT_EQ(inserted, ref_inserted);
          ASSERT_EQ(*stored, it->second);
        } else if (roll < insert_bias + 15) {
          ASSERT_EQ(table.Erase(key), reference.erase(key) == 1);
        } else if (roll < insert_bias + 30) {
          const auto it = reference.find(key);
          const bool ref_erased = it != reference.end() && it->second == value;
          if (ref_erased) {
            reference.erase(it);
          }
          ASSERT_EQ(table.EraseIfMappedTo(key, value), ref_erased);
        } else {
          const SmallPageId* found = table.Find(key);
          const auto it = reference.find(key);
          ASSERT_EQ(found != nullptr, it != reference.end());
          if (found != nullptr) {
            ASSERT_EQ(*found, it->second);
          }
        }
      }
      ExpectSameContents(table, reference);
    }
  }
}

TEST(BlockHashTable, SetUse) {
  BlockHashTable<NoValue> set;
  EXPECT_TRUE(set.TryInsert(3, {}).second);
  EXPECT_FALSE(set.TryInsert(3, {}).second);
  EXPECT_TRUE(set.Contains(3));
  EXPECT_FALSE(set.Contains(4));
  EXPECT_TRUE(set.Erase(3));
  EXPECT_FALSE(set.Contains(3));
}

}  // namespace
}  // namespace jenga
