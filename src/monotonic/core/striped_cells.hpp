// striped_cells.hpp — the striped (LongAdder-style) value plane.
//
// The §7 engine makes every Increment take the wait-list mutex even
// when nobody is waiting; with a single atomic word (AtomicWordPlane)
// the mutex goes away but all producers still collide on one cache
// line.  This plane splits the value across cache-line-padded
// per-stripe cells: the counter's value is the SUM of the cells, each
// thread adds to a private-ish cell, and uncontended Increment is one
// fetch_add on a line no other producer touches.
//
// Monotonicity is what makes the split sound.  Each cell only grows,
// so any sum of per-cell loads is a lower bound on the true value at
// the moment the last cell was read — a Check that observes sum >=
// level can safely return, and successive sums never go backwards.
// A counter with Decrement could not be striped this way.
//
// The watermark protocol (no lost wakeups).  A single atomic
// `lowest_armed_level_` holds the lowest level any waiter or callback
// is parked on (kNoArmedLevel = none).  Writer side and waiter side
// each do a seq_cst store followed by a seq_cst load of the other's
// location — the classic store-buffering shape, which seq_cst's total
// order S resolves:
//
//   incrementer: fetch_add(cell)  [seq_cst]     waiter (under m_):
//                load(watermark)  [seq_cst]       store(watermark=L) [seq_cst]
//                [sum(cells) if armed, seq_cst]   sum(cells)         [seq_cst]
//
// Take increments i1..ik whose amounts sum past an armed level L, and
// let F be the latest of their fetch_adds in S.  If F's watermark load
// precedes the waiter's store in S, then the waiter's subsequent
// cell reads follow every fetch_add in S and its pre-park sum sees the
// full total — it never parks.  Otherwise F's load sees L armed, its
// cell reads follow every fetch_add in S, its sum reaches L, and it
// diverts to the locked slow path, which collapses the stripes and
// releases the waiter.  Either way the wakeup cannot be lost.
//
// §7's storage bound survives striping untouched: the wait plane
// keeps one node per distinct armed level whichever representation it
// uses, so storage stays O(live levels) + O(stripes), and the stripe
// array is a fixed-size allocation made once per counter, not per
// waiter.
//
// The argument is also independent of how the wait plane stores its
// levels.  The waiter's side of the pairing is "store(watermark=L)
// under m_, then sum" — nothing in it depends on HOW the wait plane
// computed L (the level index's heap root, wait_index.hpp, read under
// m_).  It feeds the same seq_cst rearm store, so the index cannot
// reintroduce the store-buffering window — the sim scenario
// heap_cross_shard_wake explores a two-level wake over this plane.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "monotonic/core/counter_stats.hpp"
#include "monotonic/core/engine_env.hpp"
#include "monotonic/core/value_plane.hpp"
#include "monotonic/core/wait_list.hpp"
#include "monotonic/support/assert.hpp"
#include "monotonic/support/cache.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

namespace detail {

/// Default stripe count: hardware_concurrency rounded up to a power of
/// two (so slot % count degenerates to a mask), clamped to [1, 64].
inline std::size_t default_stripe_count() noexcept {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::size_t n = 1;
  while (n < hw && n < 64) n <<= 1;
  return n;
}

}  // namespace detail

/// A cache-line-padded array of monotone atomic cells whose logical
/// value is the sum.  The storage half of StripedPlane, reusable on
/// its own (it knows nothing about waiters or watermarks).  Each cell
/// also carries a statistics tally (count/tally below), which uses 8
/// more of the line's 64 bytes and so costs no memory.
template <typename Env = RealEngineEnv>
class StripedCellsT {
 public:
  /// `stripes` = 0 picks the hardware default.
  explicit StripedCellsT(std::size_t stripes)
      : cells_(stripes == 0 ? detail::default_stripe_count() : stripes) {}

  std::size_t stripe_count() const noexcept { return cells_.size(); }

  /// The calling thread's home cell index.  The slot comes from the
  /// environment: a process-wide round-robin ticket in production, the
  /// virtual thread's id under simulation (so replays are stable).
  std::size_t home_stripe() const noexcept {
    return Env::stripe_slot() % cells_.size();
  }

  /// Adds into one cell.  seq_cst so the caller's subsequent watermark
  /// load is ordered after it in the single total order (see the
  /// header comment); also a release, so sums that observe this add
  /// observe everything before it.
  void add(std::size_t stripe, counter_value_t amount) {
    cells_[stripe]->value.fetch_add(amount, std::memory_order_seq_cst);
  }

  counter_value_t load(std::size_t stripe) const noexcept {
    return cells_[stripe]->value.load(std::memory_order_relaxed);
  }

  /// Bumps `stripe`'s tally: relaxed, on the line add() just wrote.
  void count(std::size_t stripe) noexcept {
    cells_[stripe]->tally.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sum of the tallies (a relaxed snapshot, like any statistic).
  std::uint64_t tally() const noexcept {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell->tally.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset_tally() noexcept {
    for (auto& cell : cells_) cell->tally.store(0, std::memory_order_relaxed);
  }

  /// Lower-bound sum with acquire loads: cheap, not linearizable, but
  /// monotone — good enough for `value >= level` fast paths.
  counter_value_t sum() const noexcept {
    counter_value_t total = 0;
    for (const auto& cell : cells_) {
      total += cell->value.load(std::memory_order_acquire);
    }
    return total;
  }

  /// Sum with seq_cst loads, for the watermark protocol's slow-path
  /// decision and the under-mutex collapse.
  counter_value_t sum_seq_cst() const noexcept {
    counter_value_t total = 0;
    for (const auto& cell : cells_) {
      total += cell->value.load(std::memory_order_seq_cst);
    }
    return total;
  }

  void reset() noexcept {
    for (auto& cell : cells_) {
      cell->value.store(0, std::memory_order_release);
      cell->tally.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Cell {
    typename Env::template Atomic<counter_value_t> value{0};
    // A statistic, invisible to the simulation's schedule.
    std::atomic<std::uint64_t> tally{0};
  };
  std::vector<CacheAligned<Cell>> cells_;
};

/// The production instantiation (the historical name).
using StripedCells = StripedCellsT<>;

/// The striped value plane: StripedCells storage + the
/// lowest-armed-level watermark.  Plugs into BasicCounter as
/// BasicCounter<Policy, StripedPlane>; see value_plane.hpp for the
/// plane contract and the Sharded* aliases in counter.hpp & friends
/// for the blessed instantiations.
template <typename Env = RealEngineEnv>
class StripedPlaneT {
 public:
  using EngineEnv = Env;
  static constexpr bool kLockFreeFastPath = true;
  static constexpr bool kStriped = true;
  /// Same cap as the word plane: levels stay below kNoArmedLevel by
  /// construction, and the halved range keeps specs interchangeable
  /// between sharded and unsharded lock-free counters.
  static constexpr counter_value_t kMaxValue =
      std::numeric_limits<counter_value_t>::max() >> 1;

  StripedPlaneT(const WaitListOptions& options, CounterStats& stats)
      : cells_(options.stripes), stats_(stats) {
    stats_.set_stripe_count(cells_.stripe_count());
  }

  std::size_t stripe_count() const noexcept { return cells_.stripe_count(); }

  /// Lock-free publish: one fetch_add on this thread's home cell, then
  /// the watermark probe.  Returns true when the post-increment sum
  /// may have crossed an armed level (locked slow pass required).
  /// Overflow is checked per-cell before the add (optimistic, like the
  /// word plane): the cells sum into the logical value, so no single
  /// cell may exceed kMaxValue.
  bool add_fast(counter_value_t amount) {
    const std::size_t home = cells_.home_stripe();
    MC_REQUIRE(amount <= kMaxValue &&
                   cells_.load(home) <= kMaxValue - amount,
               "counter value overflow");
    cells_.add(home, amount);
    const counter_value_t armed =
        lowest_armed_level_.load(std::memory_order_seq_cst);
    if (armed == kNoArmedLevel) return false;  // nobody parked below us
    return cells_.sum_seq_cst() >= armed;
  }

  counter_value_t read_fast() const noexcept { return cells_.sum(); }

  // The remaining members require the counter mutex.

  /// Linearizable value: with the mutex held, every slow-path mutation
  /// is excluded and the seq_cst sum is a consistent cut.  Counted —
  /// collapses are the striped plane's slow-path currency.
  counter_value_t collapse() noexcept {
    stats_.on_collapse();
    return cells_.sum_seq_cst();
  }
  counter_value_t read_locked() const noexcept {
    stats_.on_collapse();
    return cells_.sum_seq_cst();
  }

  /// Waiter side of the watermark protocol: lower the watermark to
  /// `level` (if it isn't lower already), then collapse.  The seq_cst
  /// store-then-sum pairs with add_fast's add-then-load — see the
  /// header comment for why no wakeup can be lost.
  counter_value_t arm(counter_value_t level) {
    if (level < lowest_armed_level_.load(std::memory_order_relaxed)) {
      lowest_armed_level_.store(level, std::memory_order_seq_cst);
    }
    return collapse();
  }

  /// Recompute after wait-list / callback-list changes: `lowest` is
  /// the new lowest armed level (kNoArmedLevel = none), handed down by
  /// the engine from the ordered lists' heads.
  void rearm(counter_value_t lowest) {
    lowest_armed_level_.store(lowest, std::memory_order_seq_cst);
  }

  /// Poison: arm level 0, which every future sum satisfies, so every
  /// in-flight incrementer that passed the poison pre-check diverts to
  /// the locked slow path and drains there.  The engine never rearms a
  /// poisoned counter, so the pin holds until Reset.
  void pin() { lowest_armed_level_.store(0, std::memory_order_seq_cst); }

  /// The fast-path tally lives in the home cell, beside the add.
  void count_fast() noexcept {
#if MONOTONIC_ENABLE_STATS
    cells_.count(cells_.home_stripe());
#endif
  }
  std::uint64_t fast_increments() const noexcept { return cells_.tally(); }
  void reset_tally() noexcept { cells_.reset_tally(); }

  void reset() {
    cells_.reset();
    lowest_armed_level_.store(kNoArmedLevel, std::memory_order_seq_cst);
  }

 private:
  StripedCellsT<Env> cells_;
  CounterStats& stats_;
  typename Env::template Atomic<counter_value_t> lowest_armed_level_{
      kNoArmedLevel};
};

/// The production instantiation (the historical name, used by every
/// Sharded* counter alias).
using StripedPlane = StripedPlaneT<>;

}  // namespace monotonic
