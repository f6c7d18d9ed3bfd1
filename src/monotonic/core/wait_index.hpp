// wait_index.hpp — the level index behind every counter's wait plane
// and OnReach callback index (WaitList / CallbackListT, wait_list.hpp).
//
// The paper's §7 structure is an ordered linked list of level nodes:
// O(live levels) to join a new level, O(1) min-level, O(released
// levels) to release a prefix.  That walk makes arming L levels in
// ascending order cost O(L^2) pointer chases (E13 measured 20 ms per
// arm at 10^6 live levels).  This header provides the one
// representation that replaces it:
//
//   * an intrusive array binary min-heap of (level, node) entries,
//     ordered by level, with a `heap_pos` back-link stored in the node
//     so an arbitrary node (a timed-out waiter's) erases in O(log L);
//     and
//   * above kSmallLevels live levels, a flat open-addressing hash
//     table (linear probing, power-of-two capacity, backward-shift
//     deletion) from level to node, so join-or-insert finds an
//     existing level in O(1) expected instead of scanning.  A
//     node-based std::unordered_map would cost one allocation per
//     armed level and one scattered free per woken one; the flat table
//     probes one cache line and never allocates per level.
//
// Small indices stay lean.  Most counters carry a handful of live
// levels (a server counter with a few parked checks, a pipeline stage
// waiting on its predecessor), and there a linear scan of the
// contiguous heap array finds a level as fast as any hash.  The hash
// table and the radix scratch (below) therefore sit behind one lazily
// allocated pointer that exists only once the index has held more
// than kSmallLevels levels, and is dropped again when it drains to
// empty.  An idle index is one empty vector and one null pointer.
//
// The level is stored IN the heap array, not read through the node:
// sift compares at a million live levels are then loads from one
// contiguous array instead of a dependent pointer chase per compare,
// which keeps the per-wake cost flat as the index grows (the E13
// bench charts this).
//
// The heap keeps the §7 contract observable: the minimum level is the
// root (O(1) — the striped plane's watermark needs exactly this), and
// `drain` releases "all levels <= value" in ascending order, so
// waiters are still released in level order and released nodes are
// exactly the ascending prefix of the live set.
//
// Locking: none here.  Every member requires the owning counter's
// mutex.
//
// Exception safety: `link` is the only member that allocates (the
// hash table, and heap array growth).  It takes an allocation hook the
// caller points at Env::alloc_point, called before each allocation it
// is about to make, so fault environments can inject bad_alloc at each
// site; it unwinds to the exact pre-call state: the table is built
// aside and swapped in, the table entry is only placed after the heap
// push succeeded, and the node is never observable half-linked.
// Everything else is noexcept.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "monotonic/support/assert.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic::detail {

/// The level index.  `Node` must expose `counter_value_t level` and
/// `std::size_t heap_pos` (the intrusive back-link this index
/// maintains); nodes are owned by the caller.
template <typename Node>
class LevelShard {
 public:
  /// Live levels up to which the index is the heap array alone: `find`
  /// scans it, and no hash table or radix scratch exists.
  static constexpr std::size_t kSmallLevels = 16;

  /// Small-wake crossover for `drain`: past this many released levels
  /// the rest of the prefix stops popping minima one by one (O(log L)
  /// scattered sifts each) and switches to sort-split-discard.
  static constexpr std::size_t kBulkWakeThreshold = 64;

  /// O(1) expected: the node for `level`, or nullptr.
  Node* find(counter_value_t level) const noexcept {
    if (index_ == nullptr) {
      for (const Entry& entry : heap_) {
        if (entry.level == level) return entry.node;
      }
      return nullptr;
    }
    const std::vector<Slot>& table = index_->table;
    const std::size_t mask = table.size() - 1;
    std::size_t i = slot_hash(level) & mask;
    while (table[i].node != nullptr) {
      if (table[i].level == level) return table[i].node;
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  /// Links a fresh node (not found by `find`) into the index —
  /// O(log L) sift plus the table insert.  `alloc_hook()` runs before
  /// each allocation; it (or the allocation itself) may throw, in
  /// which case the index is exactly as it was (a grown table aside —
  /// invisible through this API) and the node is untouched, still
  /// owned by the caller.
  template <typename AllocHook>
  void link(Node* node, AllocHook&& alloc_hook) {
    if (index_needs_growth()) {
      alloc_hook();
      grow_index();  // builds the grown table aside, then swaps
    }
    if (heap_.size() == heap_.capacity()) alloc_hook();
    heap_.push_back(Entry{node->level, node});
    if (index_ != nullptr) {
      place(index_->table, Slot{node->level, node});  // noexcept from here
    }
    node->heap_pos = heap_.size() - 1;
    sift_up(node->heap_pos);
  }

  /// The root's level.  Only valid when non-empty.
  counter_value_t min_level() const noexcept { return heap_[0].level; }

  /// Unlinks an arbitrary linked node (timed-out waiter).  O(log L).
  void erase(Node* node) noexcept {
    const std::size_t pos = node->heap_pos;
    MC_ASSERT(pos < heap_.size() && heap_[pos].node == node,
              "level-index back-link corrupt");
    if (index_ != nullptr) erase_slot(node->level);
    Entry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) {  // erased the tail itself
      if (heap_.empty()) drop_index();
      return;
    }
    heap_[pos] = last;
    last.node->heap_pos = pos;
    // The hole-filler may belong above or below its new slot.
    sift_up(pos);
    if (last.node->heap_pos == pos) sift_down(pos);
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// True while the hash table / radix scratch block is allocated
  /// (tests check that a drained index gives it back).
  bool has_hash_index() const noexcept { return index_ != nullptr; }

  /// Unlinks every node with level <= `value`, calling `visit(node)`
  /// on each in ascending level order; returns how many it unlinked.
  /// `visit` must not call back into the index.
  ///
  /// Small wakes pop minima.  Past kBulkWakeThreshold the rest drains
  /// in bulk: repeated pop_min would cost ~log L dependent compares
  /// per level, and at a million live levels the cache misses in those
  /// sifts dominate the whole wake.  Instead the entry array is (1)
  /// sorted ascending in place — contiguous, allocation-free, no node
  /// derefs — (2) split at `value` by binary search, (3) visited in
  /// order, and (4) its prefix discarded in one pass.  A sorted
  /// ascending array IS a valid min-heap, so the survivors need no
  /// rebuild.  Between (1) and (4) the heap_pos back-links are stale,
  /// which is why `visit` must stay out of the index.
  template <typename Visit>
  std::size_t drain(counter_value_t value, Visit&& visit) {
    std::size_t released = 0;
    for (; released < kBulkWakeThreshold; ++released) {
      if (heap_.empty() || heap_[0].level > value) return released;
      Node* node = heap_[0].node;
      erase(node);
      visit(node);
    }
    if (heap_.empty() || heap_[0].level > value) return released;
    sort_ascending();
    const std::size_t r = split(value);
    for (std::size_t i = 0; i < r; ++i) {
      // The nodes themselves are scattered; pull the one we'll touch a
      // few iterations from now while this one's miss is in flight.
      if (i + 8 < r) __builtin_prefetch(heap_[i + 8].node, 1);
      visit(heap_[i].node);
    }
    discard_prefix(r);
    return released + r;
  }

  /// Current tree depth: floor(log2(size)) + 1, 0 when empty.  Feeds
  /// the index_depth high-water stat.
  std::size_t depth() const noexcept { return std::bit_width(heap_.size()); }

  /// Visits every linked node, heap order (NOT level order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& entry : heap_) fn(entry.node);
  }

 private:
  /// A heap slot: the node plus a copy of its (immutable) level, so
  /// sift compares never leave the array.
  struct Entry {
    counter_value_t level;
    Node* node;
  };

  /// A hash-table slot; node == nullptr marks it empty (the level of
  /// an empty slot is meaningless, so level 0 needs no special case).
  struct Slot {
    counter_value_t level;
    Node* node;
  };

  /// The large-index block: allocated when the index first grows past
  /// kSmallLevels, dropped when it drains to empty.
  struct HashIndex {
    std::vector<Slot> table;     // flat level->node index (join lookup)
    std::vector<Entry> scratch;  // radix ping-pong buffer (bulk drain)
  };

  /// splitmix64-style mixer: consecutive levels must spread across the
  /// table, not fill one probe run.
  static std::size_t slot_hash(counter_value_t level) noexcept {
    std::uint64_t z =
        static_cast<std::uint64_t>(level) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }

  /// Linear-probe placement into a table that has a free slot (load is
  /// kept <= 1/2, so the probe always terminates).
  static void place(std::vector<Slot>& table, Slot slot) noexcept {
    const std::size_t mask = table.size() - 1;
    std::size_t i = slot_hash(slot.level) & mask;
    while (table[i].node != nullptr) i = (i + 1) & mask;
    table[i] = slot;
  }

  /// Whether linking one more level needs grow_index(): the table must
  /// exist past kSmallLevels and keep load <= 1/2, and the radix
  /// scratch must be reserved ahead of the live-level count so the
  /// bulk drain never allocates.
  bool index_needs_growth() const noexcept {
    const std::size_t n = heap_.size() + 1;
    if (index_ == nullptr) return n > kSmallLevels;
    return n * 2 > index_->table.size() ||
           (n > kRadixMinSort && index_->scratch.capacity() < n);
  }

  /// Strong guarantee: the grown table is built aside from the heap
  /// array and swapped in.
  void grow_index() {
    const std::size_t n = heap_.size() + 1;
    if (index_ == nullptr || n * 2 > index_->table.size()) {
      std::vector<Slot> grown(std::bit_ceil(n * 2), Slot{0, nullptr});
      for (const Entry& entry : heap_) {
        place(grown, Slot{entry.level, entry.node});
      }
      if (index_ == nullptr) index_ = std::make_unique<HashIndex>();
      index_->table.swap(grown);
    }
    if (n > kRadixMinSort && index_->scratch.capacity() < n) {
      index_->scratch.reserve(index_->table.size() / 2);  // load <= 1/2
    }
  }

  /// Called when the heap drains to empty.  After a large episode the
  /// hash block and the heap array both go back to the allocator, so
  /// storage returns to O(live levels) after a storm; a small index
  /// keeps its few heap slots for the next arm.
  void drop_index() noexcept {
    if (index_ == nullptr) return;
    index_.reset();
    std::vector<Entry>().swap(heap_);
  }

  /// Removes `level`'s slot with backward-shift deletion: entries of
  /// the probe cluster past the hole move back over it when their
  /// ideal position allows, so probes never need tombstones.
  void erase_slot(counter_value_t level) noexcept {
    std::vector<Slot>& table = index_->table;
    const std::size_t mask = table.size() - 1;
    std::size_t hole = slot_hash(level) & mask;
    while (table[hole].node == nullptr || table[hole].level != level) {
      MC_ASSERT(table[hole].node != nullptr, "level-index table miss");
      hole = (hole + 1) & mask;
    }
    std::size_t next = (hole + 1) & mask;
    while (table[next].node != nullptr) {
      const std::size_t ideal = slot_hash(table[next].level) & mask;
      // Movable iff the hole lies cyclically within [ideal, next].
      if (((next - ideal) & mask) >= ((next - hole) & mask)) {
        table[hole] = table[next];
        hole = next;
      }
      next = (next + 1) & mask;
    }
    table[hole].node = nullptr;
  }

  /// Sorts entries ascending by level.  Positions are stale until
  /// discard_prefix() runs.  Small arrays use introsort; past
  /// kRadixMinSort entries n log n compares dominate the whole wake,
  /// so the sort switches to LSD radix through the scratch buffer — a
  /// few streaming passes, one per significant byte of the largest
  /// level.  The scratch is reserved on the arm path (grow_index), so
  /// this stays allocation-free and noexcept.
  void sort_ascending() noexcept {
    const std::size_t n = heap_.size();
    if (n <= kRadixMinSort) {
      std::sort(heap_.begin(), heap_.end(),
                [](const Entry& a, const Entry& b) { return a.level < b.level; });
      return;
    }
    std::vector<Entry>& scratch = index_->scratch;
    MC_ASSERT(scratch.capacity() >= n, "radix scratch under-reserved");
    scratch.resize(n);  // within capacity: cannot throw
    counter_value_t max_level = 0;
    for (const Entry& entry : heap_) max_level = std::max(max_level, entry.level);
    Entry* from = heap_.data();
    Entry* to = scratch.data();
    for (int shift = 0; shift < 64 && (max_level >> shift) != 0; shift += 8) {
      std::size_t count[256] = {};
      for (std::size_t i = 0; i < n; ++i) {
        ++count[(from[i].level >> shift) & 0xff];
      }
      std::size_t pos = 0;
      for (std::size_t bucket = 0; bucket < 256; ++bucket) {
        const std::size_t c = count[bucket];
        count[bucket] = pos;
        pos += c;
      }
      for (std::size_t i = 0; i < n; ++i) {
        to[count[(from[i].level >> shift) & 0xff]++] = from[i];
      }
      std::swap(from, to);
    }
    if (from != heap_.data()) std::copy(from, from + n, heap_.data());
  }

  /// After sort_ascending(), the number of entries with level <= value
  /// (binary search).
  std::size_t split(counter_value_t value) const noexcept {
    std::size_t lo = 0;
    std::size_t hi = heap_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (heap_[mid].level <= value) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Removes the first `r` (already-visited) entries of the sorted
  /// array, their table entries with them, and re-bases the survivors'
  /// back-links.  A full drain drops the hash block outright; a partial
  /// one rebuilds the table from the survivors in a single pass, which
  /// past the bulk crossover beats r backward-shift erases.
  void discard_prefix(std::size_t r) noexcept {
    if (r == heap_.size()) {
      heap_.clear();
      drop_index();
      return;
    }
    heap_.erase(heap_.begin(), heap_.begin() + static_cast<std::ptrdiff_t>(r));
    if (index_ != nullptr) {
      for (Slot& slot : index_->table) slot.node = nullptr;
    }
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      heap_[i].node->heap_pos = i;
      if (index_ != nullptr) {
        place(index_->table, Slot{heap_[i].level, heap_[i].node});
      }
    }
  }

  void sift_up(std::size_t i) noexcept {
    Entry entry = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent].level <= entry.level) break;
      heap_[i] = heap_[parent];
      heap_[i].node->heap_pos = i;
      i = parent;
    }
    heap_[i] = entry;
    entry.node->heap_pos = i;
  }

  void sift_down(std::size_t i) noexcept {
    Entry entry = heap_[i];
    const std::size_t size = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && heap_[child + 1].level < heap_[child].level) {
        ++child;
      }
      if (heap_[child].level >= entry.level) break;
      heap_[i] = heap_[child];
      heap_[i].node->heap_pos = i;
      i = child;
    }
    heap_[i] = entry;
    entry.node->heap_pos = i;
  }

  /// Introsort-vs-radix crossover for sort_ascending, in entries.  The
  /// radix passes are linear, so they win well before the array leaves
  /// cache: at 1k live levels E13 measured the bulk wake ~15% cheaper
  /// per level with radix than with introsort.
  static constexpr std::size_t kRadixMinSort = 128;
  static_assert(kRadixMinSort > kSmallLevels,
                "the radix scratch lives in the hash block");

  std::vector<Entry> heap_;            // array binary min-heap by level
  std::unique_ptr<HashIndex> index_;  // null while small (<= kSmallLevels)
};

}  // namespace monotonic::detail
