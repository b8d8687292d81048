#include "src/audit/allocator_auditor.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/jenga_allocator.h"
#include "src/model/kv_spec.h"

namespace jenga {
namespace {

// Same two-group shape as the allocator unit tests (Figure 6): 256 B image pages and 384 B
// text pages under a 768 B LCM page.
KvSpec TwoGroupSpec() {
  KvSpec spec;
  KvGroupSpec image;
  image.name = "image";
  image.kind = GroupKind::kCrossAttention;
  image.scope = GroupScope::kImageTokens;
  image.num_layers = 2;
  image.bytes_per_token_per_layer = 128;
  image.tokens_per_page = 1;
  image.page_bytes = 256;
  KvGroupSpec text;
  text.name = "text";
  text.kind = GroupKind::kFullAttention;
  text.num_layers = 3;
  text.bytes_per_token_per_layer = 128;
  text.tokens_per_page = 1;
  text.page_bytes = 384;
  spec.groups = {image, text};
  return spec;
}

void ExpectGreen(const AllocatorAuditor& auditor) {
  const auto violations = auditor.Audit();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(AllocatorAuditor, GreenAcrossAllocateCacheEvictCycle) {
  JengaAllocator alloc(TwoGroupSpec(), /*pool_bytes=*/768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  ExpectGreen(auditor);

  std::vector<SmallPageId> pages;
  for (int i = 0; i < 6; ++i) {
    const SmallPageId p = *alloc.group(0).Allocate(1, /*now=*/i);
    alloc.group(0).SetContentHash(p, 0x100 + static_cast<BlockHash>(i));
    pages.push_back(p);
    ExpectGreen(auditor);
  }
  for (const SmallPageId p : pages) {
    alloc.group(0).Release(p, /*keep_cached=*/true);
    ExpectGreen(auditor);
  }
  // Cross-group reclaim: group 1 steals a large page, evicting cached image pages.
  ASSERT_TRUE(alloc.group(1).Allocate(2, /*now=*/10).has_value());
  ExpectGreen(auditor);
  // Cache revival through the prefix index.
  const auto revived = alloc.group(0).LookupCached(0x103);
  if (revived.has_value()) {
    alloc.group(0).AddRef(*revived);
    ExpectGreen(auditor);
    alloc.group(0).Release(*revived, true);
    ExpectGreen(auditor);
  }
  EXPECT_GT(auditor.events_observed(), 0);
}

// A revived page released uncached leaves a stale, newer reclaim entry behind when its large
// page becomes a candidate again with an older timestamp. AcquireLargePage pops the older
// entry first, so the page is still evicted in LRU order, and the audit must agree.
TEST(AllocatorAuditor, GreenAfterRevivedPageReleasedUncached) {
  JengaAllocator alloc(TwoGroupSpec(), /*pool_bytes=*/768);  // One large page.
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  SmallPageAllocator& image = alloc.group(0);
  const SmallPageId older = *image.Allocate(1, /*now=*/1);
  const SmallPageId newer = *image.Allocate(1, /*now=*/2);
  image.SetContentHash(older, 0x10);
  image.SetContentHash(newer, 0x20);
  image.Release(older, /*keep_cached=*/true);
  image.Release(newer, /*keep_cached=*/true);  // Whole-evictable: reclaim entry at 2.
  ExpectGreen(auditor);
  image.AddRef(newer);  // Revived: the large page holds a used slot again.
  ExpectGreen(auditor);
  image.Release(newer, /*keep_cached=*/false);  // A candidate again, now at timestamp 1.
  EXPECT_EQ(image.state(newer), PageState::kEmpty);
  ExpectGreen(auditor);
  // The text group's allocation reclaims the large page through the older entry.
  ASSERT_TRUE(alloc.group(1).Allocate(2, /*now=*/3).has_value());
  EXPECT_FALSE(image.LookupCached(0x10).has_value());
  ExpectGreen(auditor);
}

TEST(AllocatorAuditor, AttachSeedsFromMidLifeState) {
  JengaAllocator alloc(TwoGroupSpec(), 768 * 4);
  // Mutate before attaching: the auditor must seed its shadow from live state, not replay.
  std::vector<SmallPageId> pages;
  for (int i = 0; i < 5; ++i) {
    const SmallPageId p = *alloc.group(1).Allocate(7, i);
    alloc.group(1).SetContentHash(p, 0x900 + static_cast<BlockHash>(i));
    pages.push_back(p);
  }
  alloc.group(1).Release(pages[0], true);

  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  ExpectGreen(auditor);
  // And it keeps tracking transitions from that seeded state.
  alloc.group(1).Release(pages[1], false);
  ExpectGreen(auditor);
  EXPECT_GT(auditor.events_observed(), 0);
}

TEST(AllocatorAuditor, DetachStopsObservationAndClearsState) {
  JengaAllocator alloc(TwoGroupSpec(), 768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  (void)*alloc.group(0).Allocate(1, 0);
  const int64_t seen = auditor.events_observed();
  EXPECT_GT(seen, 0);
  auditor.DetachAll();
  EXPECT_EQ(auditor.num_attached_allocators(), 0);
  (void)*alloc.group(0).Allocate(1, 1);
  EXPECT_EQ(auditor.events_observed(), seen);
  ExpectGreen(auditor);  // Nothing attached: trivially green.
}

TEST(AllocatorAuditor, InjectedShadowFaultIsDetected) {
  JengaAllocator alloc(TwoGroupSpec(), 768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&alloc);
  (void)*alloc.group(0).Allocate(1, 0);
  ExpectGreen(auditor);
  auditor.InjectShadowFaultForTest();
  EXPECT_FALSE(auditor.Audit().empty());
  EXPECT_TRUE(auditor.FirstViolation().has_value());
}

TEST(AllocatorAuditor, TracksTwoAllocatorsIndependently) {
  JengaAllocator a(TwoGroupSpec(), 768 * 2);
  JengaAllocator b(TwoGroupSpec(), 768 * 2);
  AllocatorAuditor auditor;
  auditor.AttachAllocator(&a);
  auditor.AttachAllocator(&b);
  EXPECT_EQ(auditor.num_attached_allocators(), 2);
  (void)*a.group(0).Allocate(1, 0);
  (void)*b.group(1).Allocate(2, 0);
  ExpectGreen(auditor);
}

}  // namespace
}  // namespace jenga
