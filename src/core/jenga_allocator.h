// The two-level memory manager facade (Figure 5): an LCM allocator at the bottom, one
// customized small-page allocator per KV group on top, and the global coordination between
// them — in particular step 3 of §5.4, evicting the globally least-recently-used *evictable
// large page* (from any group) when the free list runs dry, which is what lets memory flow
// between layer types under shifting workloads.

#ifndef JENGA_SRC_CORE_JENGA_ALLOCATOR_H_
#define JENGA_SRC_CORE_JENGA_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/audit_events.h"
#include "src/core/lcm_allocator.h"
#include "src/core/small_page_allocator.h"
#include "src/model/kv_spec.h"

namespace jenga {

class JengaAllocator final : public LargePageProvider {
 public:
  // Creates the two-level allocator over a `pool_bytes` KV pool; the large-page size is the
  // LCM of the group page sizes (overridable for ablations, must be a common multiple).
  JengaAllocator(KvSpec spec, int64_t pool_bytes, int64_t large_page_bytes_override = 0);

  JengaAllocator(const JengaAllocator&) = delete;
  JengaAllocator& operator=(const JengaAllocator&) = delete;

  [[nodiscard]] int num_groups() const { return static_cast<int>(groups_.size()); }
  [[nodiscard]] SmallPageAllocator& group(int index) { return *groups_[static_cast<size_t>(index)]; }
  [[nodiscard]] const SmallPageAllocator& group(int index) const {
    return *groups_[static_cast<size_t>(index)];
  }
  [[nodiscard]] const KvSpec& spec() const { return spec_; }
  [[nodiscard]] const LcmAllocator& lcm() const { return lcm_; }

  // LargePageProvider: serves group allocators. Tries the free list, then evicts the
  // globally-LRU evictable large page.
  [[nodiscard]] std::optional<LargePageId> AcquireLargePage(int group_index) override;
  void OnReclaimCandidate(int group_index, LargePageId large, Tick timestamp) override;

  // --- Elastic resize (governor-driven) ---

  // Appends `pages` free large pages to the pool. Always succeeds; the governor owns the
  // decision of whether the bytes exist to back them.
  void GrowPool(int32_t pages);

  // Opportunistically removes up to `pages` trailing large pages: free pages are dropped
  // directly and whole-evictable trailing pages are drained through ReclaimLargePage first
  // (their cached content parks in the host tier via the eviction sink, same path as step-3
  // reclaims). Stops at the first trailing page with used slots — the id space must stay
  // dense — and returns the number of pages actually removed (possibly 0).
  [[nodiscard]] int32_t ShrinkPool(int32_t pages);

  // Trailing pages removable right now without touching a used slot (what ShrinkPool would
  // return, without doing it).
  [[nodiscard]] int32_t ShrinkablePages(int32_t pages) const;

  // Drops every group's affinity free list for a retired request id (see
  // SmallPageAllocator::ForgetRequest).
  void ForgetRequest(RequestId request);

  // Installs a cache-eviction observer on every group allocator (host offload tier).
  void SetEvictionSink(CacheEvictionSink* sink);

  // Installs a prefix-cache residency observer on every group allocator (cluster routing
  // summaries); nullptr detaches. Pure observation — never changes allocation behavior.
  void SetResidencySink(CacheResidencySink* sink);

  // Installs an audit observer on this allocator and every group (nullptr detaches).
  void SetAuditSink(AuditSink* sink);

  // Total small pages (across groups) that could still be produced without evicting anything
  // cached: free large pages × pages-per-large for `group_index`, plus its empty smalls.
  [[nodiscard]] int64_t FreeSmallPages(int group_index) const;
  // As above but also counting evictable capacity (what allocation can obtain at the cost of
  // cache evictions).
  [[nodiscard]] int64_t AvailableSmallPages(int group_index) const;

  struct MemoryBreakdown {
    int64_t pool_bytes = 0;
    int64_t allocated_bytes = 0;    // Large pages held by any group.
    int64_t used_bytes = 0;         // Small pages referenced by running requests.
    int64_t evictable_bytes = 0;    // Cached, reclaimable.
    int64_t empty_bytes = 0;        // Internal fragmentation inside held large pages.
    int64_t unallocated_bytes = 0;  // Free large pages + trailing pool slack.
  };
  [[nodiscard]] MemoryBreakdown GetBreakdown() const;

  // O(1) pool occupancy in [0, 1]: fraction of capacity held by any group, identical to
  // 1 − unallocated/pool from GetBreakdown but without the per-group stats walk (and without
  // the per-request needed-bytes walk of KvManager::GetMemoryStats). The shed gate and the
  // elastic governor probe this every step, so it must stay counter-only. 0 on an empty pool.
  [[nodiscard]] double Occupancy() const {
    const int64_t pool =
        static_cast<int64_t>(lcm_.num_pages()) * lcm_.large_page_bytes() + lcm_.slack_bytes();
    if (pool <= 0) {
      return 0.0;
    }
    const int64_t unallocated =
        static_cast<int64_t>(lcm_.num_free()) * lcm_.large_page_bytes() + lcm_.slack_bytes();
    return 1.0 - static_cast<double>(unallocated) / static_cast<double>(pool);
  }

  void CheckConsistency() const;

 private:
  friend class AllocatorAuditor;

  struct ReclaimEntry {
    Tick timestamp = 0;
    int group = 0;
    LargePageId large = kNoLargePage;
    // Max-heap by default; invert so the earliest timestamp pops first.
    [[nodiscard]] bool operator<(const ReclaimEntry& other) const {
      return timestamp > other.timestamp;
    }
  };

  void PushReclaim(ReclaimEntry entry);
  [[nodiscard]] ReclaimEntry PopReclaim();

  KvSpec spec_;
  LcmAllocator lcm_;
  std::vector<std::unique_ptr<SmallPageAllocator>> groups_;
  // Duplicate-tolerant on purpose: every whole-evictable notification pushes, and stale
  // entries are filtered (or re-keyed) on pop. Deduplicating pushes would change which entry
  // wins among equal timestamps and therefore which large page gets reclaimed — eviction
  // decisions must stay bit-identical across refactors (see bench_fig17 determinism check).
  //
  // Kept as a raw vector maintained with std::push_heap/std::pop_heap (exactly what
  // std::priority_queue is specified to do, so pop order — including equal-timestamp
  // tie-breaks — is bit-identical to the former priority_queue member) so the auditor can
  // inspect entries without draining the queue.
  std::vector<ReclaimEntry> reclaim_heap_;
  AuditSink* audit_ = nullptr;
};

}  // namespace jenga

#endif  // JENGA_SRC_CORE_JENGA_ALLOCATOR_H_
