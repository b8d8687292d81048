// Microbenchmarks (google-benchmark) for the allocator hot paths: small-page allocate/release,
// the five-step algorithm under eviction pressure, prefix-cache lookups, block hashing, and a
// full engine decode step.

#include <benchmark/benchmark.h>

#include "src/core/jenga_allocator.h"
#include "src/engine/engine.h"
#include "src/model/kv_spec.h"
#include "src/model/model_zoo.h"

namespace jenga {
namespace {

KvSpec TwoGroupSpec() {
  KvSpec spec;
  KvGroupSpec a;
  a.name = "a";
  a.kind = GroupKind::kFullAttention;
  a.num_layers = 2;
  a.bytes_per_token_per_layer = 128;
  a.tokens_per_page = 16;
  a.page_bytes = 4096;
  KvGroupSpec b = a;
  b.name = "b";
  b.num_layers = 3;
  b.page_bytes = 6144;
  spec.groups = {a, b};
  return spec;
}

void BM_AllocateRelease(benchmark::State& state) {
  JengaAllocator alloc(TwoGroupSpec(), 64LL << 20);
  Tick now = 0;
  for (auto _ : state) {
    ++now;
    const auto page = alloc.group(0).Allocate(now % 8, now);
    alloc.group(0).Release(*page, false);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocateRelease);

void BM_AllocateBurstThenFree(benchmark::State& state) {
  const int kBurst = static_cast<int>(state.range(0));
  JengaAllocator alloc(TwoGroupSpec(), 256LL << 20);
  std::vector<SmallPageId> pages;
  pages.reserve(static_cast<size_t>(kBurst));
  Tick now = 0;
  for (auto _ : state) {
    ++now;
    for (int i = 0; i < kBurst; ++i) {
      pages.push_back(*alloc.group(0).Allocate(now % 4, now));
    }
    for (const SmallPageId p : pages) {
      alloc.group(0).Release(p, false);
    }
    pages.clear();
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_AllocateBurstThenFree)->Arg(64)->Arg(1024);

void BM_AllocateUnderEviction(benchmark::State& state) {
  // Pool sized so every allocation beyond the warm-up evicts a cached page (step 5 / step 3).
  JengaAllocator alloc(TwoGroupSpec(), 4LL << 20);
  Tick now = 0;
  BlockHash hash = 1;
  // Fill the pool with evictable cached pages (bounded: with cached content resident, the
  // five-step algorithm always succeeds by evicting, so "allocate until failure" never ends).
  const int64_t capacity = (4LL << 20) / 4096;
  for (int64_t i = 0; i < capacity; ++i) {
    const auto page = alloc.group(0).Allocate(0, now);
    if (!page.has_value()) {
      break;
    }
    alloc.group(0).SetContentHash(*page, hash++);
    alloc.group(0).Release(*page, true);
  }
  for (auto _ : state) {
    ++now;
    const auto page = alloc.group(1).Allocate(1, now);  // Cross-group: whole-page eviction.
    alloc.group(1).SetContentHash(*page, hash++);
    alloc.group(1).Release(*page, true);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocateUnderEviction);

void BM_PrefixLookup(benchmark::State& state) {
  JengaAllocator alloc(TwoGroupSpec(), 64LL << 20);
  Tick now = 0;
  for (BlockHash h = 1; h <= 4096; ++h) {
    const auto page = alloc.group(0).Allocate(0, ++now);
    alloc.group(0).SetContentHash(*page, h);
    alloc.group(0).Release(*page, true);
  }
  BlockHash query = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.group(0).LookupCached(query));
    query = query % 4096 + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixLookup);

void BM_EngineDecodeStep(benchmark::State& state) {
  EngineConfig config;
  config.model = Gemma2_9B();
  config.gpu = H100();
  config.jenga = true;
  config.memory_sample_every = 0;
  Engine engine(std::move(config));
  for (int i = 0; i < 32; ++i) {
    Prompt prompt;
    for (int t = 0; t < 512; ++t) {
      prompt.tokens.push_back((i * 1000 + t) % 50000);
    }
    engine.Submit(MakeRequest(i, std::move(prompt), 1000000, 0.0));
  }
  // Drain prefill so the measured loop is pure decode.
  for (int i = 0; i < 8; ++i) {
    engine.StepOnce();
  }
  for (auto _ : state) {
    engine.StepOnce();
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_EngineDecodeStep);

}  // namespace
}  // namespace jenga

BENCHMARK_MAIN();
