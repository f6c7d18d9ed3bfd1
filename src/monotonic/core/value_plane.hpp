// value_plane.hpp — the counter's VALUE PLANE, split out of the wait
// engine.
//
// BasicCounter<Policy, Plane> is two cooperating planes:
//
//   * the value plane (this header + striped_cells.hpp) owns the
//     monotone value: how it is stored, how Increment publishes into
//     it, and when an incrementer must divert to the locked slow path;
//   * the wait plane (wait_list.hpp + wait_policy.hpp, driven by
//     basic_counter.hpp) owns waiter management: the §7 ordered list,
//     OnReach callbacks, poisoning, cancellation, the stall watchdog.
//
// A plane provides:
//
//   static constexpr bool kLockFreeFastPath;  // engine picks fast paths
//   static constexpr bool kStriped;           // metadata only
//   static constexpr counter_value_t kMaxValue;
//   Plane(const WaitListOptions&, CounterStats&);
//   std::size_t stripe_count() const;
//
//   // Lock-free planes (kLockFreeFastPath == true):
//   bool add_fast(amount);      // publish; true = slow pass required
//   counter_value_t read_fast() const;          // no lock, monotone
//   counter_value_t arm(level);                 // under m_: open the
//                                               // slow path for level,
//                                               // return collapsed value
//   void rearm(lowest);         // under m_: lowest armed level (or
//                               // kNoArmedLevel) after list changes
//   void pin();                 // under m_: poison — fast path closed
//                               // forever (until Reset)
//   void count_fast();          // tally one fast-path Increment
//   std::uint64_t fast_increments() const;  // the tally (stats())
//   void reset_tally();         // zero the tally (stats_reset())
//
//   // Locking planes (kLockFreeFastPath == false):
//   void add_locked(amount);    // under m_
//
//   // All planes, under m_:
//   counter_value_t collapse();            // linearizable value
//   counter_value_t read_locked() const;   // collapse for const paths
//   void reset();               // value to zero (and the tally)
//
// The fast-path tally is a statistic kept by the plane, not by
// CounterStats: a lock-free Increment that completes on the fast path
// bumps a relaxed counter on the cache line it just added to, so it
// writes no other line.  count_fast() is a no-op with
// MONOTONIC_ENABLE_STATS=0, leaving the value add the fast path's only
// read-modify-write.
//
// Two planes live here; the striped LongAdder-style plane lives in
// striped_cells.hpp so code that never shards doesn't pay for the
// cell-array machinery.
//
//   plane           storage                    fast path    watermark
//   PlainValuePlane plain word under m_        none         —
//   AtomicWordPlane (value << 1) | attention   lock-free    1-bit
//   StripedPlane    per-stripe padded cells    lock-free    armed level
//
// The attention-bit protocol (AtomicWordPlane) is a degenerate
// watermark: arm() drops it to "somebody, somewhere" (bit 0 set) and
// rearm() can only restore "nobody" — the engine's sum-vs-level
// comparison degenerates to a single branch on the bit.  StripedPlane
// keeps the real lowest armed level, so incrementers below it skip the
// mutex entirely.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "monotonic/core/counter_stats.hpp"
#include "monotonic/core/engine_env.hpp"
#include "monotonic/core/wait_list.hpp"
#include "monotonic/support/assert.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

/// §7 reference storage: one plain word, every access under the
/// counter mutex.  The locking policies (BlockingWait, SingleCvWait)
/// default to this plane.
class PlainValuePlane {
 public:
  static constexpr bool kLockFreeFastPath = false;
  static constexpr bool kStriped = false;
  static constexpr counter_value_t kMaxValue =
      std::numeric_limits<counter_value_t>::max();

  PlainValuePlane(const WaitListOptions& /*options*/, CounterStats&) {}

  std::size_t stripe_count() const noexcept { return 1; }

  // All members require the counter mutex.
  void add_locked(counter_value_t amount) {
    MC_REQUIRE(value_ <= kMaxValue - amount, "counter value overflow");
    value_ += amount;
  }
  counter_value_t collapse() noexcept { return value_; }
  counter_value_t read_locked() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  counter_value_t value_ = 0;
};

/// Single-word lock-free storage: (value << 1) | attention.  Bit 0 set
/// means "a slow-path pass is required" (parked waiters, pending
/// callbacks, or poison).  The lost-wakeup race is closed by arm():
/// set the bit under the mutex, then re-read — a racing Increment
/// either sees the bit (and queues behind the mutex we hold) or
/// happened first (and the re-read sees its value).  The flag bit
/// halves the representable range.
template <typename Env = RealEngineEnv>
class AtomicWordPlaneT {
 public:
  using EngineEnv = Env;
  static constexpr bool kLockFreeFastPath = true;
  static constexpr bool kStriped = false;
  static constexpr counter_value_t kMaxValue =
      std::numeric_limits<counter_value_t>::max() >> 1;

  AtomicWordPlaneT(const WaitListOptions& /*options*/, CounterStats&) {}

  std::size_t stripe_count() const noexcept { return 1; }

  /// Lock-free publish.  Returns true when the attention bit was set
  /// at the moment of the add (a slow pass must run).  Overflow is
  /// checked BEFORE the fetch_add: a wrapped word would corrupt the
  /// flag bit and cannot be rolled back.  The check is optimistic
  /// (concurrent increments could still overflow between the load and
  /// the add) — like any checked usage error, racing into the boundary
  /// is a caller bug; the check catches the deterministic case.
  bool add_fast(counter_value_t amount) {
    MC_REQUIRE(amount <= kMaxValue &&
                   (word_.load(std::memory_order_relaxed) >> 1) <=
                       kMaxValue - amount,
               "counter value overflow");
    const counter_value_t prev =
        word_.fetch_add(amount << 1, std::memory_order_release);
    return (prev & kAttentionBit) != 0;
  }

  counter_value_t read_fast() const noexcept {
    return word_.load(std::memory_order_acquire) >> 1;
  }

  // The remaining members require the counter mutex.
  counter_value_t collapse() noexcept { return read_fast(); }
  counter_value_t read_locked() const noexcept { return read_fast(); }

  /// Publishes a waiter's intent to sleep (or register a callback) at
  /// `level` and returns the post-publish value for the caller's
  /// re-check.  The single bit cannot encode the level, so ANY armed
  /// level closes the fast path for ALL increments.
  counter_value_t arm(counter_value_t /*level*/) {
    word_.fetch_or(kAttentionBit, std::memory_order_relaxed);
    return read_fast();
  }

  /// Reopens the fast path only when nothing is armed at all; a
  /// remaining waiter at any level keeps the bit set.
  void rearm(counter_value_t lowest) {
    if (lowest == kNoArmedLevel) {
      word_.fetch_and(~kAttentionBit, std::memory_order_relaxed);
    }
  }

  /// Poison: pin the bit so in-flight incrementers that passed the
  /// poison pre-check drain through the locked slow path instead of
  /// racing the frozen value on the fast one.  Never cleared again
  /// (the engine skips rearm while poisoned).
  void pin() { word_.fetch_or(kAttentionBit, std::memory_order_relaxed); }

  void count_fast() noexcept {
#if MONOTONIC_ENABLE_STATS
    fast_increments_.fetch_add(1, std::memory_order_relaxed);
#endif
  }
  std::uint64_t fast_increments() const noexcept {
    return fast_increments_.load(std::memory_order_relaxed);
  }
  void reset_tally() noexcept {
    fast_increments_.store(0, std::memory_order_relaxed);
  }

  void reset() {
    word_.store(0, std::memory_order_release);
    reset_tally();
  }

 private:
  static constexpr counter_value_t kAttentionBit = 1;
  // The tally sits right after the word, so the pair shares a line
  // whenever the plane starts at a 16-byte offset, as it does in
  // BasicCounter.  No alignas: it would raise every counter's alignment
  // and allocation size.  A std::atomic, not Env::Atomic: it is a
  // statistic, invisible to the simulation's schedule.
  typename Env::template Atomic<counter_value_t> word_{0};
  std::atomic<std::uint64_t> fast_increments_{0};
};

/// The production instantiation (the historical name).
using AtomicWordPlane = AtomicWordPlaneT<>;

namespace detail {

/// The plane a policy gets when none is named: the storage each
/// pre-plane counter used — an atomic word for lock-free policies, a
/// mutex-guarded word for locking ones.
template <typename Policy>
using DefaultPlane =
    std::conditional_t<Policy::kLockFreeFastPath,
                       AtomicWordPlaneT<typename Policy::EngineEnv>,
                       PlainValuePlane>;

}  // namespace detail

}  // namespace monotonic
