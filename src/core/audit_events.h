// Audit event hooks for the two-tier allocator stack. An AuditSink observes every state
// transition in SmallPageAllocator / Evictor / JengaAllocator / HostPool so an external
// auditor (src/audit) can maintain shadow state and cross-check it against a full
// re-derivation on demand.
//
// Detached is the default and costs one null-pointer test per transition — no virtual call,
// no allocation, no behavior change. The hooks are observation-only: implementations must
// not call back into the allocator. Lives in core (like CacheEvictionSink) so the audited
// classes need not depend on the audit library.

#ifndef JENGA_SRC_CORE_AUDIT_EVENTS_H_
#define JENGA_SRC_CORE_AUDIT_EVENTS_H_

#include <cstdint>

#include "src/core/types.h"

namespace jenga {

class AuditSink {
 public:
  virtual ~AuditSink() = default;

  // --- SmallPageAllocator transitions (group = emitting group allocator's index) ---

  // A large page became resident in `group`; all its slots start empty, associated with
  // `request` (§4.3 affinity seeding). Fires before the first slot is claimed.
  virtual void OnLargeAcquired(int /*group*/, LargePageId /*large*/, RequestId /*request*/) {}
  // A fully-empty large page was returned to the LCM allocator.
  virtual void OnLargeReleased(int /*group*/, LargePageId /*large*/) {}
  // empty → used (steps 1/2/4 of §5.4, or step 5 right after OnPageEvicted).
  virtual void OnPageClaimed(int /*group*/, SmallPageId /*page*/, RequestId /*request*/) {}
  // evictable → used (prefix-cache hit revived the page).
  virtual void OnPageRevived(int /*group*/, SmallPageId /*page*/) {}
  // used → evictable (released with indexed content).
  virtual void OnPageCached(int /*group*/, SmallPageId /*page*/, BlockHash /*hash*/) {}
  // used/evictable → empty (content declared obsolete by its owner).
  virtual void OnPageEmptied(int /*group*/, SmallPageId /*page*/) {}
  // evictable → empty under capacity pressure (step-5 victim or large-page reclaim); the
  // cached content was destroyed (or parked in the host tier via CacheEvictionSink).
  virtual void OnPageEvicted(int /*group*/, SmallPageId /*page*/) {}
  // The request's affinity free list was dropped (request id retired).
  virtual void OnRequestForgotten(int /*group*/, RequestId /*request*/) {}
  // An AllocateN call completed: `count` pages were claimed for `request` in one pass, each
  // already announced through the per-page events above (claims, acquisitions, evictions) in
  // exactly the order `count` single Allocate calls would have produced. Lets the auditor
  // cross-check the bulk path against its per-page shadow state.
  virtual void OnBulkAllocate(int /*group*/, RequestId /*request*/, int64_t /*count*/) {}

  // --- Evictor transitions (emitted by SmallPageAllocator for its group's queue) ---

  virtual void OnEvictorInsert(int /*group*/, SmallPageId /*page*/, Tick /*last_access*/, int64_t /*prefix_length*/) {}
  virtual void OnEvictorRemove(int /*group*/, SmallPageId /*page*/) {}
  virtual void OnEvictorRekey(int /*group*/, SmallPageId /*page*/, Tick /*last_access*/, int64_t /*prefix_length*/) {}
  virtual void OnEvictorPop(int /*group*/, SmallPageId /*page*/) {}

  // --- JengaAllocator (global coordination) ---

  // A whole-evictable large page was (re-)pushed onto the lazy reclaim heap.
  virtual void OnReclaimPushed(int /*group*/, LargePageId /*large*/, Tick /*timestamp*/) {}
  // Step 3 of §5.4 chose this large page as the global reclaim victim.
  virtual void OnLargeReclaimed(int /*group*/, LargePageId /*large*/) {}

  // The LCM pool was resized in place (elastic governor grow/shrink): the page id space is
  // now [0, new_num_pages). Every removed page was free when this fires, so shadow
  // conservation only needs to re-base the pool extent.
  virtual void OnPoolResized(int32_t /*new_num_pages*/) {}

  // --- HostPool (offload tier; keys mirror HostPool's) ---

  virtual void OnHostSetStored(RequestId /*id*/, int64_t /*bytes*/) {}
  // evicted=true → LRU capacity eviction; false → explicit erase (swap-in, drop, replace).
  virtual void OnHostSetRemoved(RequestId /*id*/, int64_t /*bytes*/, bool /*evicted*/) {}
  virtual void OnHostPageStored(int /*manager*/, int /*group*/, BlockHash /*hash*/, int64_t /*bytes*/) {}
  // evicted=true → LRU capacity eviction; false → explicit erase (promotion, replace).
  virtual void OnHostPageRemoved(int /*manager*/, int /*group*/, BlockHash /*hash*/, int64_t /*bytes*/, bool /*evicted*/) {}
};

}  // namespace jenga

// Emits `sink->call` only when a sink is attached. The detached (null) case is the hot one
// everywhere — benches and production runs never attach a sink — so the taken branch is
// marked [[unlikely]] to keep the hook body out of the fall-through instruction stream.
// Building with -DJENGA_AUDIT_HOOKS=0 elides every hook at compile time (the allocator then
// cannot be audited; tier-1 test builds must keep the default).
#ifndef JENGA_AUDIT_HOOKS
#define JENGA_AUDIT_HOOKS 1
#endif

#if JENGA_AUDIT_HOOKS
#define JENGA_AUDIT_HOOK(sink, call)  \
  do {                                \
    if ((sink) != nullptr) [[unlikely]] { \
      (sink)->call;                   \
    }                                 \
  } while (false)
#else
#define JENGA_AUDIT_HOOK(sink, call) \
  do {                               \
  } while (false)
#endif

#endif  // JENGA_SRC_CORE_AUDIT_EVENTS_H_
