// Per-group eviction queue. Orders evictable small pages by (last_access ascending,
// prefix_length descending): LRU for balance across requests (§5.1), with the paper's
// prefix-length tie-break so that, among pages last touched at the same time, the deepest
// token is evicted first — keeping evicted sets aligned across layer types.
//
// Implementation: a lazy-deletion binary min-heap of entries {last_access, -prefix_length,
// page, epoch} and nothing else. The queue keeps no second copy of which pages are evictable
// or of their keys: the owner (SmallPageAllocator) already stores each page's state, epoch,
// last_access and prefix_length in its slot metadata, and passes a liveness predicate to
// PopVictim and MaybeCompact. An entry is live iff its page is resident and evictable, the
// slot's epoch equals the entry's and the slot's key equals the entry's.
//
// The owner pushes an entry, under a freshly bumped slot epoch, whenever a page turns
// evictable and whenever an evictable page's key actually changes, so every evictable page
// has exactly one live entry and every older entry of that page is stale. A page leaving the
// evictable state (revive, empty, reclaim, step-5 claim) needs no queue work: its entry dies
// with the state change. PopVictim discards stale entries on the way down, and compaction
// sweeps them in place once they outnumber the live ones, so the heap stays O(evictable).
//
// Ordering compares (last_access, -prefix_length, page) only; the epoch never orders. With one
// live entry per page, the popped sequence is exactly the ascending (last_access,
// -prefix_length, page) order over the live keys — the ordered-set formulation's order.

#ifndef JENGA_SRC_CORE_EVICTOR_H_
#define JENGA_SRC_CORE_EVICTOR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "src/core/types.h"

namespace jenga {

class Evictor {
 public:
  struct Entry {
    Tick last_access = 0;
    int64_t neg_prefix_length = 0;  // Negated so larger prefixes sort first.
    SmallPageId page = kNoSmallPage;
    uint64_t epoch = 0;  // The owner's slot epoch at push time; liveness only.
  };

  // Heap comparator: true when `a` is evicted after `b` (std::greater over the victim key).
  struct EvictsLater {
    bool operator()(const Entry& a, const Entry& b) const {
      return std::tie(a.last_access, a.neg_prefix_length, a.page) >
             std::tie(b.last_access, b.neg_prefix_length, b.page);
    }
  };

  // Queues `page` under its current key and epoch.
  void Push(SmallPageId page, Tick last_access, int64_t prefix_length, uint64_t epoch) {
    heap_.push_back(Entry{last_access, -prefix_length, page, epoch});
    std::push_heap(heap_.begin(), heap_.end(), EvictsLater{});
  }

  // Pops the eviction victim: earliest last_access, then longest prefix_length, then lowest
  // page id (for determinism), among entries `is_live` accepts. Stale entries met on the way
  // are discarded.
  template <typename IsLive>
  [[nodiscard]] std::optional<SmallPageId> PopVictim(const IsLive& is_live) {
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), EvictsLater{});
      heap_.pop_back();
      if (is_live(top)) {
        return top.page;
      }
    }
    return std::nullopt;
  }

  // Sweeps stale entries in place once the heap exceeds max(64, 2 * live_count).
  template <typename IsLive>
  void MaybeCompact(int64_t live_count, const IsLive& is_live) {
    if (heap_.size() <= 64 || static_cast<int64_t>(heap_.size()) <= 2 * live_count) {
      return;
    }
    std::erase_if(heap_, [&is_live](const Entry& entry) { return !is_live(entry); });
    std::make_heap(heap_.begin(), heap_.end(), EvictsLater{});
  }

  // Heap entries, stale ones included (consistency checks, tests and benches).
  [[nodiscard]] const std::vector<Entry>& entries() const { return heap_; }
  [[nodiscard]] size_t heap_entries() const { return heap_.size(); }

 private:
  // Min-heap over the victim key (ascending order through EvictsLater).
  std::vector<Entry> heap_;
};

}  // namespace jenga

#endif  // JENGA_SRC_CORE_EVICTOR_H_
