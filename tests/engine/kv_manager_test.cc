#include "src/engine/kv_manager.h"

#include <gtest/gtest.h>

#include "src/common/math_util.h"
#include "src/model/model_zoo.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

constexpr int kBs = 16;

KvManager::Options JengaOptions(bool caching = true, int tokens_per_image = 0) {
  KvManager::Options options;
  options.tokens_per_page = kBs;
  options.enable_prefix_caching = caching;
  options.jenga = true;
  options.tokens_per_image = tokens_per_image;
  return options;
}

KvManager::Options BaselineOptions(bool caching = true) {
  KvManager::Options options = JengaOptions(caching);
  options.jenga = false;
  return options;
}

std::unique_ptr<KvManager> MakeJengaManager(const ModelConfig& model, int64_t pool,
                                            bool caching = true) {
  const KvSpec spec = MakeJengaSpec(model, kBs, model.vision.present);
  return std::make_unique<KvManager>(spec, spec, pool,
                                     JengaOptions(caching, model.vision.tokens_per_image));
}

std::unique_ptr<KvManager> MakeBaselineManager(const ModelConfig& model, int64_t pool,
                                               bool caching = true) {
  return std::make_unique<KvManager>(MakeHomogeneousSpec(model, kBs),
                                     MakeJengaSpec(model, kBs, /*vision_cache=*/false), pool,
                                     BaselineOptions(caching));
}

// Drives a request through the manager as the engine would: allocate, advance, notify.
void ComputeTokens(KvManager& kv, Request& r, int64_t n, Tick now) {
  ASSERT_TRUE(kv.AllocateForTokens(r, n, now));
  r.num_computed_tokens += n;
  kv.OnStepComputed(r, now);
}

TEST(KvManagerSpecBuilders, HomogeneousSumsLayers) {
  const KvSpec spec = MakeHomogeneousSpec(TinyFullModel(), kBs);
  ASSERT_EQ(spec.groups.size(), 1u);
  EXPECT_EQ(spec.groups[0].BytesPerToken(), 4 * 256);
  EXPECT_EQ(spec.groups[0].page_bytes, kBs * 1024);
}

TEST(KvManagerSpecBuilders, HomogeneousOverride) {
  const KvSpec spec = MakeHomogeneousSpec(TinyFullModel(), kBs, /*bytes_per_token_override=*/4096);
  EXPECT_EQ(spec.groups[0].BytesPerToken(), 4096);
}

TEST(KvManagerSpecBuilders, MambaReservation) {
  EXPECT_EQ(StaticMambaReservationBytes(TinyMambaModel(), 10), 3 * 8192 * 10);
}

TEST(KvManager, AllocatesBlocksForPromptProgress) {
  const ModelConfig model = TinyFullModel();
  auto kv = MakeJengaManager(model, 1 << 22);
  Request r = MakeRequest(1, TextPrompt(100), 10, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 100, 1);
  // 100 tokens → 7 blocks of 16 in the single full-attention group.
  EXPECT_EQ(kv->allocator().group(0).GetStats().used_pages, 7);
  kv->Release(r, 2);
  EXPECT_EQ(kv->allocator().group(0).GetStats().used_pages, 0);
  kv->CheckConsistency();
}

TEST(KvManager, PrefixHitOnIdenticalPrompt) {
  const ModelConfig model = TinyFullModel();
  auto kv = MakeJengaManager(model, 1 << 22);
  Request a = MakeRequest(1, TextPrompt(100), 4, 0.0);
  kv->OnAdmit(a, 1);
  EXPECT_EQ(a.cached_prefix_tokens, 0);
  ComputeTokens(*kv, a, 100, 1);
  kv->Release(a, 2);

  Request b = MakeRequest(2, TextPrompt(100), 4, 0.0);
  kv->OnAdmit(b, 3);
  // 100 tokens → 6 full blocks cacheable (the 7th is partial); hit = 96 tokens.
  EXPECT_EQ(b.cached_prefix_tokens, 96);
  EXPECT_EQ(b.num_computed_tokens, 96);
  EXPECT_EQ(kv->total_cache_hit_tokens(), 96);
  kv->CheckConsistency();
}

TEST(KvManager, FullBlockAlignedPromptHitsAllButOneBlock) {
  const ModelConfig model = TinyFullModel();
  auto kv = MakeJengaManager(model, 1 << 22);
  Request a = MakeRequest(1, TextPrompt(64), 4, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 64, 1);
  kv->Release(a, 2);
  Request b = MakeRequest(2, TextPrompt(64), 4, 0.0);
  kv->OnAdmit(b, 3);
  // A full hit would leave nothing to compute; the manager caps at 48 of 64.
  EXPECT_EQ(b.cached_prefix_tokens, 48);
}

TEST(KvManager, NoHitWhenCachingDisabled) {
  const ModelConfig model = TinyFullModel();
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/false);
  Request a = MakeRequest(1, TextPrompt(100), 4, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 100, 1);
  kv->Release(a, 2);
  // With caching off, releasing returns all memory to the pool.
  EXPECT_EQ(kv->allocator().lcm().num_allocated(), 0);
  Request b = MakeRequest(2, TextPrompt(100), 4, 0.0);
  kv->OnAdmit(b, 3);
  EXPECT_EQ(b.cached_prefix_tokens, 0);
}

TEST(KvManager, SlidingWindowDropsOutOfWindowPages) {
  const ModelConfig model = TinySlidingModel(/*window=*/64);
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/false);
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 320, 1);
  // Full group: 20 blocks; sliding group: only the last 4 blocks (64 tokens) remain used.
  const KvSpec& spec = kv->alloc_spec();
  int full = -1;
  int sliding = -1;
  for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
    if (spec.groups[g].kind == GroupKind::kFullAttention) {
      full = g;
    }
    if (spec.groups[g].kind == GroupKind::kSlidingWindow) {
      sliding = g;
    }
  }
  ASSERT_GE(full, 0);
  ASSERT_GE(sliding, 0);
  EXPECT_EQ(kv->allocator().group(full).GetStats().used_pages, 20);
  EXPECT_EQ(kv->allocator().group(sliding).GetStats().used_pages, 4);
  kv->CheckConsistency();
}

TEST(KvManager, BaselineKeepsEverything) {
  const ModelConfig model = TinySlidingModel(64);
  auto kv = MakeBaselineManager(model, 1 << 22, /*caching=*/false);
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 320, 1);
  EXPECT_EQ(kv->allocator().group(0).GetStats().used_pages, 20);
  // Fig. 16 accounting: the baseline wastes the out-of-window sliding KV.
  const auto stats = kv->GetMemoryStats();
  EXPECT_GT(stats.wasted_bytes, 0);
  // Needed = full layers × 320 + sliding layers × 64 tokens.
  EXPECT_EQ(stats.needed_bytes, 2LL * 256 * 320 + 2LL * 256 * 64);
  kv->CheckConsistency();
}

TEST(KvManager, JengaWasteIsNearZero) {
  const ModelConfig model = TinySlidingModel(64);
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/false);
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 320, 1);
  const auto stats = kv->GetMemoryStats();
  // Waste is bounded by partial blocks + unused smalls inside the requests' large pages.
  EXPECT_LT(static_cast<double>(stats.wasted_bytes),
            0.1 * static_cast<double>(stats.used_bytes));
  kv->CheckConsistency();
}

TEST(KvManager, SlidingWindowPrefixHitSurvivesPartialEviction) {
  // After the donor request, evict nothing: the successor must hit. The sliding group's
  // out-of-window pages were dropped (holes), yet the window blocks are cached, so the
  // sliding policy accepts the prefix and the full-attention group gates the hit.
  const ModelConfig model = TinySlidingModel(64);
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/true);
  Request a = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 320, 1);
  kv->Release(a, 2);
  Request b = MakeRequest(2, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(b, 3);
  EXPECT_EQ(b.cached_prefix_tokens, 304);  // 19 of 20 blocks (cap leaves one to compute).
  kv->CheckConsistency();
}

TEST(KvManager, HitAdmissionReferencesExactlyTheIndexedPages) {
  // The donor leaves every block cached: full-attention blocks on release, out-of-window
  // sliding blocks as they drop. The successor's admission must pin, in every group, exactly
  // the page the cache index maps each needed block to, and leave the cached out-of-window
  // sliding blocks (the holes) evictable.
  const ModelConfig model = TinySlidingModel(/*window=*/64);
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/true);
  Request a = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 320, 1);
  kv->Release(a, 2);
  Request b = MakeRequest(2, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(b, 3);
  ASSERT_EQ(b.cached_prefix_tokens, 304);
  const int64_t hit_blocks = b.cached_prefix_tokens / kBs;

  const KvSpec& spec = kv->alloc_spec();
  int holes = 0;
  for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
    const SmallPageAllocator& alloc = kv->allocator().group(g);
    const std::vector<BlockHash> hashes =
        ChainBlockHashes(b.prompt.tokens, kBs, GroupChainSalt(g));
    const bool sliding = spec.groups[static_cast<size_t>(g)].kind == GroupKind::kSlidingWindow;
    int64_t pinned = 0;
    for (int64_t j = 0; j < static_cast<int64_t>(hashes.size()); ++j) {
      const auto page = alloc.LookupCached(hashes[static_cast<size_t>(j)]);
      ASSERT_TRUE(page.has_value()) << "group " << g << " block " << j << " not cached";
      // Needed: a full-attention block of the hit, or a sliding block inside the window
      // that ends at the hit boundary.
      const bool needed =
          j < hit_blocks && (!sliding || (j + 1) * kBs > hit_blocks * kBs - /*window=*/64);
      if (needed) {
        EXPECT_EQ(alloc.state(*page), PageState::kUsed) << "group " << g << " block " << j;
        EXPECT_EQ(alloc.ref_count(*page), 1) << "group " << g << " block " << j;
        ++pinned;
      } else {
        EXPECT_EQ(alloc.state(*page), PageState::kEvictable) << "group " << g << " block " << j;
        holes += j < hit_blocks ? 1 : 0;
      }
    }
    // Nothing beyond the indexed pages is referenced.
    EXPECT_EQ(alloc.GetStats().used_pages, pinned) << "group " << g;
  }
  EXPECT_GT(holes, 0) << "the scenario must exercise sliding-window holes";
  kv->CheckConsistency();
}

TEST(KvManager, MambaStateAndCheckpoints) {
  const ModelConfig model = TinyMambaModel();
  auto kv = MakeJengaManager(model, 1 << 24, /*caching=*/true);
  Request r = MakeRequest(1, TextPrompt(1200), 4, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 1200, 1);
  const KvSpec& spec = kv->alloc_spec();
  int mamba = -1;
  for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
    if (spec.groups[g].kind == GroupKind::kMamba) {
      mamba = g;
    }
  }
  ASSERT_GE(mamba, 0);
  // One live state page + two checkpoint snapshots (512, 1024) already evictable.
  EXPECT_EQ(kv->allocator().group(mamba).GetStats().used_pages, 1);
  EXPECT_EQ(kv->allocator().group(mamba).GetStats().evictable_pages, 2);
  kv->Release(r, 2);

  // A successor with the same prompt restores from the 1024-token checkpoint; the hit must be
  // a multiple of the checkpoint interval (gated by the Mamba group).
  Request b = MakeRequest(2, TextPrompt(1200), 4, 0.0);
  kv->OnAdmit(b, 3);
  EXPECT_EQ(b.cached_prefix_tokens, 1024);
  kv->CheckConsistency();
}

TEST(KvManager, VisionPagesFreedAsConsumed) {
  const ModelConfig model = TinyVisionModel();
  auto kv = MakeJengaManager(model, 1 << 22, /*caching=*/false);
  // 16 text, 4 images × 8 tokens = 32 image tokens, then 16 text.
  Request r = MakeRequest(1, MixedPrompt(16, 4, 8, 16), 4, 0.0);
  kv->OnAdmit(r, 1);
  const KvSpec& spec = kv->alloc_spec();
  int vision = -1;
  int cross = -1;
  for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
    if (spec.groups[g].kind == GroupKind::kVisionEmbed) {
      vision = g;
    }
    if (spec.groups[g].kind == GroupKind::kCrossAttention) {
      cross = g;
    }
  }
  ASSERT_GE(vision, 0);
  ASSERT_GE(cross, 0);
  // First chunk covers the leading text only; all vision pages (2 blocks of 16) allocated.
  ComputeTokens(*kv, r, 16, 1);
  EXPECT_EQ(kv->allocator().group(vision).GetStats().used_pages, 2);
  // Consume all image tokens: vision embeddings are freed (§6.2 allocate-on-demand mode).
  ComputeTokens(*kv, r, 32, 2);
  EXPECT_EQ(kv->allocator().group(vision).GetStats().used_pages, 0);
  // Cross-attention KV for the 32 image tokens stays: 2 blocks.
  EXPECT_EQ(kv->allocator().group(cross).GetStats().used_pages, 2);
  ComputeTokens(*kv, r, 16, 3);
  kv->CheckConsistency();
}

TEST(KvManager, RollbackOnOutOfMemory) {
  const ModelConfig model = TinyFullModel();
  // Pool of exactly 4 large pages (page = 16 KiB here): 64 blocks... make it tiny: 2 pages.
  const KvSpec spec = MakeJengaSpec(model, kBs, false);
  auto kv = std::make_unique<KvManager>(spec, spec, spec.LcmPageBytes() * 2, JengaOptions(false));
  Request r = MakeRequest(1, TextPrompt(16 * 3), 4, 0.0);
  kv->OnAdmit(r, 1);
  // Only 2 blocks fit; allocation of 3 must fail and roll back cleanly.
  EXPECT_FALSE(kv->AllocateForTokens(r, 48, 1));
  EXPECT_EQ(kv->allocator().lcm().num_allocated(), 0);
  EXPECT_TRUE(kv->AllocateForTokens(r, 32, 1));
  kv->CheckConsistency();
}

TEST(KvManager, CanAllocateReflectsCapacity) {
  const ModelConfig model = TinyFullModel();
  const KvSpec spec = MakeJengaSpec(model, kBs, false);
  auto kv = std::make_unique<KvManager>(spec, spec, spec.LcmPageBytes() * 64, JengaOptions(false));
  Request r = MakeRequest(1, TextPrompt(512), 4, 0.0);
  EXPECT_TRUE(kv->CanAllocate(r, 512));
  Request big = MakeRequest(2, TextPrompt(16 * 65), 4, 0.0);
  EXPECT_FALSE(kv->CanAllocate(big, 16 * 65));
}

TEST(KvManager, DecodeKvReadBytesFollowsDependencies) {
  const ModelConfig model = TinySlidingModel(64);
  auto kv = MakeJengaManager(model, 1 << 22, false);
  Request r = MakeRequest(1, TextPrompt(320), 4, 0.0);
  kv->OnAdmit(r, 1);
  ComputeTokens(*kv, r, 320, 1);
  // 2 full layers read 320 tokens, 2 sliding layers read 64.
  EXPECT_EQ(kv->DecodeKvReadBytes(r), 2LL * 256 * 320 + 2LL * 256 * 64);
}

TEST(KvManager, DecodeKvReadBytesIsCurrentAtEveryCommit) {
  // DecodeKvReadBytes returns the value cached by the last OnAdmit/OnStepComputed; it must
  // equal a fresh NeededBytesFor after every kind of commit, for every policy family.
  int hit_admissions = 0;
  for (const ModelConfig& model : {TinyFullModel(), TinySlidingModel(), TinyPyramidModel(),
                                   TinyMambaModel(), TinyVisionModel()}) {
    SCOPED_TRACE(model.name);
    auto kv = MakeJengaManager(model, 1 << 24);
    const Prompt prompt = model.vision.present ? MixedPrompt(40, 3, 8, 120) : TextPrompt(160);
    const auto expect_current = [&](const Request& r, const char* after) {
      EXPECT_EQ(kv->DecodeKvReadBytes(r), kv->NeededBytesFor(r)) << "after " << after;
    };
    // Chunked prefill, then decode steps with generated tokens.
    Tick now = 1;
    const auto run = [&](Request& r, int decode_steps) {
      while (r.InPrefill()) {
        ComputeTokens(*kv, r, std::min<int64_t>(48, r.prompt_len() - r.num_computed_tokens),
                      ++now);
        expect_current(r, "a prefill step");
      }
      for (int i = 0; i < decode_steps; ++i) {
        r.AppendGenerated(7 + i);
        ComputeTokens(*kv, r, 1, ++now);
        expect_current(r, "a decode step");
      }
    };

    Request a = MakeRequest(1, prompt, 8, 0.0);
    kv->OnAdmit(a, ++now);
    EXPECT_EQ(a.num_computed_tokens, 0);
    expect_current(a, "miss admission");
    run(a, 3);
    kv->Release(a, ++now, /*finished=*/true);

    Request b = MakeRequest(2, prompt, 8, 0.0);
    kv->OnAdmit(b, ++now);
    hit_admissions += b.num_computed_tokens > 0 ? 1 : 0;
    expect_current(b, "hit admission");
    run(b, 2);

    kv->Release(b, ++now);  // Preempt and re-admit.
    kv->OnAdmit(b, ++now);
    expect_current(b, "re-admission");
    run(b, 1);

    const KvSwapFootprint footprint = kv->GetSwapFootprint(b);
    const int64_t tokens = b.num_computed_tokens;
    kv->Release(b, ++now);  // Swap out and restore.
    ASSERT_TRUE(kv->RestoreFromSwap(b, tokens, footprint.fingerprint, ++now));
    expect_current(b, "swap restore");
    run(b, 1);
    kv->CheckConsistency();
  }
  EXPECT_GE(hit_admissions, 3);  // The hit path ran, not only cold admissions.
}

TEST(KvManager, SharedPrefixAcrossConcurrentRequests) {
  const ModelConfig model = TinyFullModel();
  auto kv = MakeJengaManager(model, 1 << 22);
  Request a = MakeRequest(1, TextPrompt(160), 8, 0.0);
  kv->OnAdmit(a, 1);
  ComputeTokens(*kv, a, 160, 1);
  // b admits while a still runs: shares a's used pages via ref counting.
  Request b = MakeRequest(2, TextPrompt(160), 8, 0.0);
  kv->OnAdmit(b, 2);
  EXPECT_EQ(b.cached_prefix_tokens, 144);
  const auto stats = kv->allocator().group(0).GetStats();
  EXPECT_EQ(stats.used_pages, 10);  // No duplicate pages for the shared blocks.
  kv->Release(a, 3);
  kv->Release(b, 3);
  kv->CheckConsistency();
}

TEST(KvManager, FinishedReleaseDropsRequestAffinityState) {
  // Finishing a request must not leak per-request free-ref map entries in any group; a
  // preempting release keeps them (the id re-admits and §4.3 placement wants its affinity).
  const ModelConfig model = TinySlidingModel(64);
  auto kv = MakeJengaManager(model, 1 << 22);
  for (RequestId id = 1; id <= 20; ++id) {
    Request r = MakeRequest(id, TextPrompt(100), 4, 0.0);
    kv->OnAdmit(r, id);
    // Later iterations admit with a cached prefix; only the remainder gets computed.
    ComputeTokens(*kv, r, 100 - r.num_computed_tokens, id);
    kv->Release(r, id + 1, /*finished=*/true);
  }
  for (int g = 0; g < kv->allocator().num_groups(); ++g) {
    EXPECT_EQ(kv->allocator().group(g).GetFreeListStats().tracked_requests, 0)
        << "group " << g << " leaked affinity entries for finished requests";
  }
  kv->CheckConsistency();

  // Preemption-style release (finished=false) keeps the affinity entry alive.
  Request r = MakeRequest(99, TextPrompt(100), 4, 0.0);
  kv->OnAdmit(r, 50);
  ComputeTokens(*kv, r, 100 - r.num_computed_tokens, 50);
  kv->Release(r, 51);
  int64_t tracked = 0;
  for (int g = 0; g < kv->allocator().num_groups(); ++g) {
    tracked += kv->allocator().group(g).GetFreeListStats().tracked_requests;
  }
  EXPECT_GT(tracked, 0);
  kv->CheckConsistency();
}

}  // namespace
}  // namespace jenga
