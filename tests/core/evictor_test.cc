#include "src/core/evictor.h"

#include <gtest/gtest.h>

#include "tests/core/evictor_owner.h"

namespace jenga {
namespace {

TEST(Evictor, LruOrder) {
  EvictorOwner evictor;
  evictor.Insert(/*page=*/1, /*last_access=*/30, /*prefix_length=*/0);
  evictor.Insert(2, 10, 0);
  evictor.Insert(3, 20, 0);
  EXPECT_EQ(*evictor.PopVictim(), 2);
  EXPECT_EQ(*evictor.PopVictim(), 3);
  EXPECT_EQ(*evictor.PopVictim(), 1);
  EXPECT_FALSE(evictor.PopVictim().has_value());
}

TEST(Evictor, PrefixLengthBreaksTies) {
  // §5.1: among pages with the same last-access time, the deepest token (largest prefix
  // length) is evicted first — alignment across layer types.
  EvictorOwner evictor;
  evictor.Insert(1, 5, 100);
  evictor.Insert(2, 5, 300);
  evictor.Insert(3, 5, 200);
  EXPECT_EQ(*evictor.PopVictim(), 2);
  EXPECT_EQ(*evictor.PopVictim(), 3);
  EXPECT_EQ(*evictor.PopVictim(), 1);
}

TEST(Evictor, LastAccessDominatesPrefixLength) {
  EvictorOwner evictor;
  evictor.Insert(1, 5, 1);     // Older access, short prefix.
  evictor.Insert(2, 9, 1000);  // Newer access, long prefix.
  EXPECT_EQ(*evictor.PopVictim(), 1);
}

TEST(Evictor, UpdateLastAccessReorders) {
  EvictorOwner evictor;
  evictor.Insert(1, 10, 0);
  evictor.Insert(2, 20, 0);
  evictor.UpdateLastAccess(1, 30);
  EXPECT_EQ(*evictor.PopVictim(), 2);
  EXPECT_EQ(*evictor.PopVictim(), 1);
}

TEST(Evictor, SetPrefixLengthReorders) {
  EvictorOwner evictor;
  evictor.Insert(1, 5, 10);
  evictor.Insert(2, 5, 20);
  evictor.SetPrefixLength(1, 99);
  EXPECT_EQ(*evictor.PopVictim(), 1);
}

TEST(Evictor, UpdateOnAbsentPageIsNoOp) {
  // Rekeying a page that is not evictable queues nothing.
  EvictorOwner evictor;
  evictor.UpdateLastAccess(42, 1);
  evictor.SetPrefixLength(42, 1);
  EXPECT_EQ(evictor.heap_entries(), 0u);
  EXPECT_FALSE(evictor.PopVictim().has_value());
}

TEST(Evictor, RemoveExcludesFromVictims) {
  // Leaving the evictable state does no queue work: the entry stays in the heap, stale.
  EvictorOwner evictor;
  evictor.Insert(1, 10, 0);
  evictor.Insert(2, 20, 0);
  evictor.Remove(1);
  EXPECT_FALSE(evictor.Contains(1));
  EXPECT_EQ(evictor.size(), 1);
  EXPECT_EQ(evictor.heap_entries(), 2u);
  EXPECT_EQ(evictor.LiveEntries(1), 0);
  EXPECT_EQ(*evictor.PopVictim(), 2);
  EXPECT_FALSE(evictor.PopVictim().has_value());
}

TEST(Evictor, DeterministicTieBreakOnPageId) {
  EvictorOwner evictor;
  evictor.Insert(7, 5, 50);
  evictor.Insert(3, 5, 50);
  EXPECT_EQ(*evictor.PopVictim(), 3);
}

TEST(Evictor, ReviveThenReleaseWithUnchangedKeyKeepsOneLiveEntry) {
  EvictorOwner evictor;
  evictor.Insert(1, 10, 4);
  evictor.Insert(2, 20, 0);
  evictor.Remove(1);  // Revived by a prefix hit...
  evictor.Insert(1, 10, 4);  // ...and released again with the same key.
  EXPECT_EQ(evictor.heap_entries(), 3u);
  EXPECT_EQ(evictor.LiveEntries(1), 1);
  EXPECT_EQ(*evictor.PopVictim(), 1);
  EXPECT_EQ(*evictor.PopVictim(), 2);
  EXPECT_FALSE(evictor.PopVictim().has_value());
}

TEST(Evictor, RekeyToSameValuePushesNothing) {
  EvictorOwner evictor;
  evictor.Insert(1, 10, 4);
  const size_t entries = evictor.heap_entries();
  evictor.UpdateLastAccess(1, 10);
  evictor.SetPrefixLength(1, 4);
  EXPECT_EQ(evictor.heap_entries(), entries);
  evictor.UpdateLastAccess(1, 11);
  EXPECT_EQ(evictor.heap_entries(), entries + 1);
  EXPECT_EQ(evictor.LiveEntries(1), 1);
}

TEST(Evictor, StaleEntryWithEqualKeyNeverPops) {
  // Two evictable spells of page 1 under the same key leave two heap entries that compare
  // equal; only the epoch tells the earlier spell's entry apart, and it must never pop.
  EvictorOwner evictor;
  evictor.Insert(1, 5, 0);
  evictor.Remove(1);
  evictor.Insert(1, 5, 0);
  evictor.Insert(2, 6, 0);
  EXPECT_EQ(evictor.LiveEntries(1), 1);
  EXPECT_EQ(*evictor.PopVictim(), 1);
  // A third spell, again under the same key: whichever earlier entry is still queued is stale.
  evictor.Insert(1, 5, 0);
  EXPECT_EQ(evictor.LiveEntries(1), 1);
  EXPECT_EQ(*evictor.PopVictim(), 1);
  EXPECT_EQ(*evictor.PopVictim(), 2);
  EXPECT_FALSE(evictor.PopVictim().has_value());
}

TEST(Evictor, CompactionDropsStaleEntries) {
  EvictorOwner evictor;
  for (SmallPageId page = 0; page < 100; ++page) {
    evictor.Insert(page, page, 0);
  }
  for (SmallPageId page = 0; page < 90; ++page) {
    evictor.Remove(page);
  }
  // 10 evictable pages: the sweep ran once the 100 entries exceeded max(64, 2 * live).
  EXPECT_LE(evictor.heap_entries(), 64u);
  EXPECT_GE(evictor.heap_entries(), 10u);
  for (SmallPageId page = 90; page < 100; ++page) {
    EXPECT_EQ(*evictor.PopVictim(), page);
  }
  EXPECT_FALSE(evictor.PopVictim().has_value());
}

}  // namespace
}  // namespace jenga
