// Open-addressing hash table keyed by BlockHash: the prefix-cache index of every group
// allocator and the cluster's per-replica residency summaries.
//
// Power-of-two capacity, linear probing, backward-shift deletion. Every key is legal (0 and
// UINT64_MAX included): occupancy lives in a bitmap beside the entries, not in a reserved
// key. The bitmap costs one bit per slot, so it stays cache-resident while the 16-byte
// entries do not, and a table at its 3/4 load ceiling uses about as much memory as
// std::unordered_map's nodes and buckets. Deletion moves the rest of the probe cluster back
// instead of leaving tombstones, so lookups never walk past dead slots and the load factor
// counts live entries only. Nothing is allocated until the first insert. Block hashes are
// already well mixed, but keys are still spread with a Fibonacci multiply so clustered or
// adversarial key sets (tests, other salts) stay cheap.
//
// Iteration order is unspecified; it is only for order-insensitive walks (consistency checks,
// audits).

#ifndef JENGA_SRC_CORE_BLOCK_HASH_TABLE_H_
#define JENGA_SRC_CORE_BLOCK_HASH_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/types.h"

namespace jenga {

// Mapped type of a BlockHashTable used as a set.
struct NoValue {};

template <typename V>
class BlockHashTable {
 public:
  struct Entry {
    BlockHash key = 0;
    [[no_unique_address]] V value{};
  };

  class const_iterator {
   public:
    const Entry& operator*() const { return table_->entries_[index_]; }
    const Entry* operator->() const { return &table_->entries_[index_]; }
    const_iterator& operator++() {
      index_ = table_->NextUsed(index_ + 1);
      return *this;
    }
    bool operator==(const const_iterator& other) const { return index_ == other.index_; }

   private:
    friend class BlockHashTable;
    const_iterator(const BlockHashTable* table, size_t index) : table_(table), index_(index) {}
    const BlockHashTable* table_;
    size_t index_;
  };

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] size_t capacity() const { return entries_.size(); }

  [[nodiscard]] const_iterator begin() const { return const_iterator(this, NextUsed(0)); }
  [[nodiscard]] const_iterator end() const { return const_iterator(this, entries_.size()); }

  // The mapped value of `key`, or nullptr when absent.
  [[nodiscard]] const V* Find(BlockHash key) const {
    if (size_ == 0) {
      return nullptr;
    }
    for (size_t i = HomeSlot(key); Used(i); i = (i + 1) & mask_) {
      if (entries_[i].key == key) {
        return &entries_[i].value;
      }
    }
    return nullptr;
  }
  [[nodiscard]] bool Contains(BlockHash key) const { return Find(key) != nullptr; }

  // Starts loading the entry a lookup of `key` begins at, so a scan that knows its next keys
  // overlaps their cache misses.
  void Prefetch(BlockHash key) const {
    if (!entries_.empty()) {
      __builtin_prefetch(&entries_[HomeSlot(key)]);
    }
  }

  // Inserts `key → value` when `key` is absent. Returns the mapped value now stored under
  // `key` (the existing one when the key was present) and whether an insert happened.
  std::pair<const V*, bool> TryInsert(BlockHash key, const V& value) {
    if ((size_ + 1) * 4 > entries_.size() * 3) {
      Rehash(entries_.empty() ? kInitialCapacity : entries_.size() * 2);
    }
    size_t i = HomeSlot(key);
    for (; Used(i); i = (i + 1) & mask_) {
      if (entries_[i].key == key) {
        return {&entries_[i].value, false};
      }
    }
    SetUsed(i, true);
    entries_[i] = Entry{key, value};
    ++size_;
    return {&entries_[i].value, true};
  }

  // Removes `key`; false when it was absent.
  bool Erase(BlockHash key) {
    return EraseWhere(key, [](const V&) { return true; });
  }

  // Removes `key` only when it maps to `expected`; false when absent or mapped elsewhere.
  bool EraseIfMappedTo(BlockHash key, const V& expected) {
    return EraseWhere(key, [&expected](const V& value) { return value == expected; });
  }

  // Drops every entry and the storage (the next insert allocates afresh).
  void Clear() {
    entries_ = {};
    used_ = {};
    mask_ = 0;
    shift_ = 0;
    size_ = 0;
  }

  // Slot a probe for `key` starts at; exposed so tests can build colliding and wrapping key
  // sets. Only meaningful once the table has storage.
  [[nodiscard]] size_t HomeSlot(BlockHash key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

 private:
  static constexpr size_t kInitialCapacity = 16;

  [[nodiscard]] bool Used(size_t i) const { return (used_[i / 64] >> (i % 64)) & 1; }
  void SetUsed(size_t i, bool used) {
    const uint64_t bit = uint64_t{1} << (i % 64);
    used_[i / 64] = used ? used_[i / 64] | bit : used_[i / 64] & ~bit;
  }
  // First occupied slot at or after `i`, or capacity() when none.
  [[nodiscard]] size_t NextUsed(size_t i) const {
    while (i < entries_.size()) {
      const uint64_t word = used_[i / 64] >> (i % 64);
      if (word != 0) {
        return i + static_cast<size_t>(std::countr_zero(word));
      }
      i = (i / 64 + 1) * 64;
    }
    return entries_.size();
  }

  template <typename Pred>
  bool EraseWhere(BlockHash key, Pred matches) {
    if (size_ == 0) {
      return false;
    }
    size_t hole = HomeSlot(key);
    for (;; hole = (hole + 1) & mask_) {
      if (!Used(hole)) {
        return false;
      }
      if (entries_[hole].key == key) {
        break;
      }
    }
    if (!matches(entries_[hole].value)) {
      return false;
    }
    // Backward shift: walk the rest of the cluster and move back every entry whose probe path
    // passes through the hole, so no lookup ever stops early at a freed slot.
    for (size_t next = (hole + 1) & mask_; Used(next); next = (next + 1) & mask_) {
      const size_t home = HomeSlot(entries_[next].key);
      // The entry may move into the hole iff its home lies cyclically outside (hole, next].
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        entries_[hole] = entries_[next];
        hole = next;
      }
    }
    SetUsed(hole, false);
    --size_;
    return true;
  }

  void Rehash(size_t new_capacity) {
    std::vector<Entry> old_entries = std::move(entries_);
    std::vector<uint64_t> old_used = std::move(used_);
    entries_.assign(new_capacity, Entry{});
    used_.assign((new_capacity + 63) / 64, 0);
    mask_ = new_capacity - 1;
    shift_ = 64 - std::countr_zero(new_capacity);
    for (size_t j = 0; j < old_entries.size(); ++j) {
      if ((old_used[j / 64] >> (j % 64)) & 1) {
        size_t i = HomeSlot(old_entries[j].key);
        while (Used(i)) {
          i = (i + 1) & mask_;
        }
        SetUsed(i, true);
        entries_[i] = old_entries[j];
      }
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint64_t> used_;  // Occupancy, one bit per slot.
  size_t mask_ = 0;
  int shift_ = 0;
  size_t size_ = 0;
};

}  // namespace jenga

#endif  // JENGA_SRC_CORE_BLOCK_HASH_TABLE_H_
