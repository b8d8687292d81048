// Seeded op fuzz over one JengaAllocator with the AllocatorAuditor attached: random
// Allocate / AddRef / Release / SetContentHash and rekeys of *evictable* pages
// (UpdateLastAccess, SetPrefixLength), audited after every single op. The engine-level fuzz
// rarely rekeys an evictable page before an audit point, so this is the test that sees a rekey
// that skips the eviction queue (the page would be left without a live evictor entry).
// Content is handled the way KvManager handles it with prefix caching on: only a freshly
// allocated page gets a hash, and a page with content is released to the cache — except a
// reference revived from the evictable state, which is sometimes released uncached. That
// leaves a stale, newer reclaim-heap entry behind whenever the large page becomes a
// candidate again with an older timestamp, which the allocator (and so the audit) tolerates.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/allocator_auditor.h"
#include "src/common/random.h"
#include "src/core/jenga_allocator.h"
#include "src/model/kv_spec.h"

namespace jenga {
namespace {

// Two groups sharing a 768 B LCM page (Figure 6's shape), small enough that eviction and
// whole-large-page reclaim run often.
KvSpec TwoGroupSpec() {
  KvSpec spec;
  KvGroupSpec small;
  small.name = "small";
  small.kind = GroupKind::kCrossAttention;
  small.num_layers = 2;
  small.bytes_per_token_per_layer = 128;
  small.tokens_per_page = 1;
  small.page_bytes = 256;
  KvGroupSpec big;
  big.name = "big";
  big.kind = GroupKind::kFullAttention;
  big.num_layers = 3;
  big.bytes_per_token_per_layer = 128;
  big.tokens_per_page = 1;
  big.page_bytes = 384;
  spec.groups = {small, big};
  return spec;
}

struct HeldRef {
  int group;
  SmallPageId page;
  bool revived = false;  // Taken by AddRef on an evictable page.
};

class AllocatorOpFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorOpFuzz, AuditGreenAfterEveryOp) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  JengaAllocator alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 12);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);

  std::vector<HeldRef> held;  // One entry per reference taken.
  std::set<std::pair<int, SmallPageId>> has_content;
  std::vector<BlockHash> hashes[2];  // Content set in each group, oldest first.
  BlockHash next_hash = 1;
  Tick now = 0;
  int64_t evictable_rekeys = 0;
  int64_t uncached_revived_releases = 0;
  // Content recently set in `group`: the most likely to still be resident.
  const auto recent_hash = [&](int group) {
    const std::vector<BlockHash>& set = hashes[group];
    const int64_t n = static_cast<int64_t>(set.size());
    return set[static_cast<size_t>(rng.UniformInt(std::max<int64_t>(0, n - 24), n - 1))];
  };

  for (int step = 0; step < 3000; ++step) {
    ++now;
    const int group = static_cast<int>(rng.UniformInt(0, 1));
    SmallPageAllocator& g = alloc.group(group);
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    std::string what;
    if (op < 22) {
      what = "Allocate";
      if (const auto page = g.Allocate(rng.UniformInt(0, 5), now)) {
        held.push_back({group, *page});
        has_content.erase({group, *page});
      }
    } else if (op < 50 && !held.empty()) {
      what = "Release";
      const size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1));
      const bool keep_cached =
          held[i].revived ? rng.Bernoulli(0.5)
                          : has_content.contains({held[i].group, held[i].page}) ||
                                rng.Bernoulli(0.5);
      uncached_revived_releases += held[i].revived && !keep_cached ? 1 : 0;
      alloc.group(held[i].group).Release(held[i].page, keep_cached);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 64 && !held.empty()) {
      what = "SetContentHash";
      const HeldRef h = held[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(held.size()) - 1))];
      if (has_content.insert({h.group, h.page}).second) {
        // Mostly new content; sometimes content another page already holds.
        const bool reuse = !hashes[h.group].empty() && rng.Bernoulli(0.2);
        const BlockHash hash = reuse ? recent_hash(h.group) : next_hash++;
        hashes[h.group].push_back(hash);
        alloc.group(h.group).SetContentHash(h.page, hash);
      }
    } else if (op < 92 && !hashes[group].empty()) {
      what = "rekey";
      const auto page = g.LookupCached(recent_hash(group));
      if (page.has_value()) {
        if (g.state(*page) == PageState::kEvictable) {
          ++evictable_rekeys;
        }
        if (rng.Bernoulli(0.5)) {
          g.UpdateLastAccess(*page, now - rng.UniformInt(0, 2));
        } else {
          g.SetPrefixLength(*page, rng.UniformInt(0, 64));
        }
      }
    } else if (!hashes[group].empty()) {
      what = "AddRef";
      if (const auto page = g.LookupCached(recent_hash(group))) {
        const bool revived = g.state(*page) == PageState::kEvictable;
        g.AddRef(*page);
        held.push_back({group, *page, revived});
        has_content.insert({group, *page});
      }
    }
    const std::vector<std::string> violations = auditor.Audit();
    ASSERT_TRUE(violations.empty()) << "seed " << seed << ", step " << step << " (" << what
                                    << " on group " << group << "): " << violations.front();
  }
  // The rekey arm must actually reach evictable pages, or the fuzz checks nothing new.
  EXPECT_GT(evictable_rekeys, 100) << "seed " << seed;
  EXPECT_GT(uncached_revived_releases, 10) << "seed " << seed;

  for (const HeldRef& h : held) {
    alloc.group(h.group).Release(h.page, /*keep_cached=*/false);
  }
  const std::vector<std::string> violations = auditor.Audit();
  EXPECT_TRUE(violations.empty()) << violations.front();
  alloc.CheckConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorOpFuzz, ::testing::Values(1, 2, 3, 42, 97, 1234));

}  // namespace
}  // namespace jenga
