// Test-side owner of an Evictor. It keeps each page's state, epoch and key the way
// SmallPageAllocator's slot metadata does, and follows the same contract: a page is queued
// under a fresh epoch when it turns evictable and when its key actually changes, leaving the
// evictable state does nothing to the queue but the compaction check, and liveness is
// answered from the metadata.

#ifndef JENGA_TESTS_CORE_EVICTOR_OWNER_H_
#define JENGA_TESTS_CORE_EVICTOR_OWNER_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>

#include "src/core/evictor.h"

namespace jenga {

class EvictorOwner {
 public:
  // The page turns evictable with the given key; it must not be evictable already.
  void Insert(SmallPageId page, Tick last_access, int64_t prefix_length) {
    Slot& slot = slots_[page];
    ASSERT_FALSE(slot.evictable) << "page " << page << " already evictable";
    slot = Slot{true, 0, last_access, prefix_length};
    evictable_ += 1;
    Queue(page, slot);
  }

  // The page leaves the evictable state (revived or emptied); no-op if it is not evictable.
  void Remove(SmallPageId page) {
    const auto it = slots_.find(page);
    if (it == slots_.end() || !it->second.evictable) {
      return;
    }
    it->second.evictable = false;
    evictable_ -= 1;
    Compact();
  }

  // Rekeys an evictable page; queues a new entry only when the key changes.
  void UpdateLastAccess(SmallPageId page, Tick last_access) {
    Slot* slot = Evictable(page);
    if (slot != nullptr && slot->last_access != last_access) {
      slot->last_access = last_access;
      Queue(page, *slot);
    }
  }
  void SetPrefixLength(SmallPageId page, int64_t prefix_length) {
    Slot* slot = Evictable(page);
    if (slot != nullptr && slot->prefix_length != prefix_length) {
      slot->prefix_length = prefix_length;
      Queue(page, *slot);
    }
  }

  // Step 5: the victim leaves the evictable state.
  std::optional<SmallPageId> PopVictim() {
    const auto victim = evictor_.PopVictim([this](const Evictor::Entry& e) { return IsLive(e); });
    if (victim.has_value()) {
      slots_[*victim].evictable = false;
      evictable_ -= 1;
    }
    return victim;
  }

  [[nodiscard]] bool IsLive(const Evictor::Entry& e) const {
    const auto it = slots_.find(e.page);
    return it != slots_.end() && it->second.evictable && it->second.epoch == e.epoch &&
           it->second.last_access == e.last_access &&
           it->second.prefix_length == -e.neg_prefix_length;
  }

  // Heap entries of `page` that IsLive accepts.
  [[nodiscard]] int LiveEntries(SmallPageId page) const {
    int live = 0;
    for (const Evictor::Entry& e : evictor_.entries()) {
      live += e.page == page && IsLive(e) ? 1 : 0;
    }
    return live;
  }

  [[nodiscard]] bool Contains(SmallPageId page) const {
    const auto it = slots_.find(page);
    return it != slots_.end() && it->second.evictable;
  }
  [[nodiscard]] int64_t size() const { return evictable_; }
  [[nodiscard]] size_t heap_entries() const { return evictor_.heap_entries(); }

 private:
  struct Slot {
    bool evictable = false;
    uint64_t epoch = 0;
    Tick last_access = 0;
    int64_t prefix_length = 0;
  };

  Slot* Evictable(SmallPageId page) {
    const auto it = slots_.find(page);
    return it != slots_.end() && it->second.evictable ? &it->second : nullptr;
  }
  void Queue(SmallPageId page, Slot& slot) {
    slot.epoch = next_epoch_++;
    evictor_.Push(page, slot.last_access, slot.prefix_length, slot.epoch);
    Compact();
  }
  void Compact() {
    evictor_.MaybeCompact(evictable_, [this](const Evictor::Entry& e) { return IsLive(e); });
  }

  std::map<SmallPageId, Slot> slots_;
  Evictor evictor_;
  uint64_t next_epoch_ = 1;
  int64_t evictable_ = 0;
};

}  // namespace jenga

#endif  // JENGA_TESTS_CORE_EVICTOR_OWNER_H_
