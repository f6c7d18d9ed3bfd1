// counter_stats.hpp — structural instrumentation for counter implementations.
//
// The paper's §7 complexity claim — storage and time proportional to the
// number of *distinct levels with waiters*, not the number of waiting
// threads — cannot be validated from wall time alone.  Every counter
// implementation therefore maintains these structural counters, and
// the E5/E6 benches report them directly.
//
// Each counter is a relaxed atomic, but relaxed is not free: a bump is
// a read-modify-write on this object's cache lines, which every thread
// touching the counter shares.  So nothing here is bumped on the
// lock-free Increment fast path.  A lock-free value plane tallies its
// fast-path Increments beside the value cell it adds to, and the
// engine's stats() adds that tally in (basic_counter.hpp); this object
// counts only the Increments that take the slow path or add zero.
// Fields that other fields determine are derived in snapshot(), not
// stored.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "monotonic/support/config.hpp"
#include "monotonic/support/table.hpp"

namespace monotonic {

/// Plain-value snapshot of CounterStats, safe to copy and compare.
struct CounterStatsSnapshot {
  std::uint64_t increments = 0;       ///< Increment() calls
  std::uint64_t checks = 0;           ///< Check() calls
  std::uint64_t fast_checks = 0;      ///< Check() satisfied without sleeping
  std::uint64_t suspensions = 0;      ///< Check() calls that slept
  std::uint64_t wakeups = 0;          ///< threads woken by Increment()
  std::uint64_t notifies = 0;         ///< condvar notify_all calls issued
  std::uint64_t nodes_allocated = 0;  ///< wait nodes created (hits + misses)
  std::uint64_t nodes_pooled = 0;     ///< allocations served from the pool
                                      ///< (= pool_hits)
  std::uint64_t live_nodes = 0;       ///< wait nodes currently linked/waited
  std::uint64_t max_live_nodes = 0;   ///< high-water mark of live_nodes
  std::uint64_t max_live_waiters = 0; ///< high-water mark of sleeping threads
  std::uint64_t spurious_wakeups = 0; ///< woken with predicate still false
  std::uint64_t poisons = 0;          ///< Poison() calls that took effect
  std::uint64_t aborted_wakeups = 0;  ///< waiters woken by Poison, not reached
  std::uint64_t cancelled_checks = 0; ///< Check(level, stop) cancelled returns
  std::uint64_t dropped_increments = 0; ///< increments on a poisoned counter
  std::uint64_t stall_reports = 0;    ///< watchdog reports emitted
  std::uint64_t fast_path_increments = 0; ///< increments that skipped the mutex
  std::uint64_t collapses = 0;        ///< striped-plane sums under the mutex
  std::uint64_t timed_out_checks = 0; ///< CheckFor/CheckUntil deadline returns
  std::uint64_t overload_rejections = 0; ///< waiters turned away by admission
  std::uint64_t degraded_waits = 0;   ///< waits demoted to the spin/poll path
  std::uint64_t pool_hits = 0;        ///< node allocations served by the pool
  std::uint64_t pool_misses = 0;      ///< node allocations that hit the heap
  std::uint64_t stripe_count = 1;     ///< value-plane stripes (1 = unsharded)
  std::uint64_t bulk_wakes = 0;       ///< releases that woke 2+ levels at once
  std::uint64_t index_depth = 0;      ///< high-water level-index heap depth
  std::uint64_t predicate_checks = 0; ///< Check(pred) calls (threshold reduced)
  std::uint64_t async_completions = 0; ///< reached chains posted to an executor
  // Cross-process fields (shared_counter.hpp); an in-process counter
  // reports epoch 0, which is how printers tell the families apart.
  std::uint64_t participant_deaths = 0; ///< deaths detected, segment lifetime
  std::uint64_t epoch = 0;            ///< shared epoch (0 = in-process)
};

/// Thread-safe accumulator.  All mutators are relaxed: these are
/// diagnostics, not synchronization.
class CounterStats {
 public:
  void on_increment() noexcept { bump(increments_); }
  void on_check() noexcept { bump(checks_); }
  void on_fast_check() noexcept { bump(fast_checks_); }
  void on_spurious_wakeup() noexcept { bump(spurious_wakeups_); }
  void on_notify() noexcept { bump(notifies_); }
  void on_poison() noexcept { bump(poisons_); }
  void on_cancelled_check() noexcept { bump(cancelled_checks_); }
  void on_dropped_increment() noexcept { bump(dropped_increments_); }
  void on_stall_report() noexcept { bump(stall_reports_); }
  void on_collapse() noexcept { bump(collapses_); }
  void on_timed_out_check() noexcept { bump(timed_out_checks_); }
  void on_overload_rejection() noexcept { bump(overload_rejections_); }
  void on_degraded_wait() noexcept { bump(degraded_waits_); }
  void on_predicate_check() noexcept { bump(predicate_checks_); }
  void on_async_completion() noexcept { bump(async_completions_); }

  /// Configuration, not a counter: recorded by striped value planes at
  /// construction so snapshots and printers can tell sharded counters
  /// apart.  Not gated on MONOTONIC_ENABLE_STATS (it costs nothing
  /// after construction) and not cleared by reset().
  void set_stripe_count(std::uint64_t n) noexcept {
    stripe_count_.store(n, std::memory_order_relaxed);
  }
  /// A release pass (Increment's release_prefix or Poison's abort_all)
  /// that woke two or more levels in one sweep.
  void on_bulk_wake() noexcept { bump(bulk_wakes_); }
  /// High-water mark of the wait plane's level-index heap depth
  /// (floor(log2 n) + 1) — the O(log L) the index's complexity claim
  /// is about.
  void on_index_depth(std::uint64_t depth) noexcept {
#if MONOTONIC_ENABLE_STATS
    raise_max(index_depth_, depth);
#else
    (void)depth;
#endif
  }
  void on_wakeups(std::uint64_t n) noexcept {
#if MONOTONIC_ENABLE_STATS
    wakeups_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  void on_aborted_wakeups(std::uint64_t n) noexcept {
#if MONOTONIC_ENABLE_STATS
    wakeups_.fetch_add(n, std::memory_order_relaxed);
    aborted_wakeups_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  void on_node_allocated(bool from_pool) noexcept {
#if MONOTONIC_ENABLE_STATS
    bump(from_pool ? pool_hits_ : pool_misses_);
    const auto live = live_nodes_.fetch_add(1, std::memory_order_relaxed) + 1;
    raise_max(max_live_nodes_, live);
#else
    (void)from_pool;
#endif
  }

  void on_node_freed() noexcept {
#if MONOTONIC_ENABLE_STATS
    live_nodes_.fetch_sub(1, std::memory_order_relaxed);
#endif
  }

  void on_suspend() noexcept {
#if MONOTONIC_ENABLE_STATS
    bump(suspensions_);
    const auto live =
        live_waiters_.fetch_add(1, std::memory_order_relaxed) + 1;
    raise_max(max_live_waiters_, live);
#endif
  }

  void on_resume() noexcept {
#if MONOTONIC_ENABLE_STATS
    live_waiters_.fetch_sub(1, std::memory_order_relaxed);
#endif
  }

  CounterStatsSnapshot snapshot() const noexcept;
  void reset() noexcept;
  /// Zeroes the Increment count alone (a counter's Reset()).
  void reset_increments() noexcept {
    increments_.store(0, std::memory_order_relaxed);
  }

 private:
  static void bump(std::atomic<std::uint64_t>& a) noexcept {
#if MONOTONIC_ENABLE_STATS
    a.fetch_add(1, std::memory_order_relaxed);
#else
    (void)a;
#endif
  }
  static void raise_max(std::atomic<std::uint64_t>& max,
                        std::uint64_t candidate) noexcept {
    std::uint64_t cur = max.load(std::memory_order_relaxed);
    while (candidate > cur &&
           !max.compare_exchange_weak(cur, candidate,
                                      std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> increments_{0};
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> fast_checks_{0};
  std::atomic<std::uint64_t> suspensions_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> notifies_{0};
  std::atomic<std::uint64_t> live_nodes_{0};
  std::atomic<std::uint64_t> max_live_nodes_{0};
  std::atomic<std::uint64_t> live_waiters_{0};
  std::atomic<std::uint64_t> max_live_waiters_{0};
  std::atomic<std::uint64_t> spurious_wakeups_{0};
  std::atomic<std::uint64_t> poisons_{0};
  std::atomic<std::uint64_t> aborted_wakeups_{0};
  std::atomic<std::uint64_t> cancelled_checks_{0};
  std::atomic<std::uint64_t> dropped_increments_{0};
  std::atomic<std::uint64_t> stall_reports_{0};
  std::atomic<std::uint64_t> collapses_{0};
  std::atomic<std::uint64_t> timed_out_checks_{0};
  std::atomic<std::uint64_t> overload_rejections_{0};
  std::atomic<std::uint64_t> degraded_waits_{0};
  std::atomic<std::uint64_t> pool_hits_{0};
  std::atomic<std::uint64_t> pool_misses_{0};
  std::atomic<std::uint64_t> stripe_count_{1};
  std::atomic<std::uint64_t> bulk_wakes_{0};
  std::atomic<std::uint64_t> index_depth_{0};
  std::atomic<std::uint64_t> predicate_checks_{0};
  std::atomic<std::uint64_t> async_completions_{0};
};

/// Renders labelled snapshots as an aligned table.  Built on TextTable,
/// whose columns auto-size to their widest cell — counts past 7 digits
/// (stress runs) widen the column instead of shearing it, which the
/// old fixed-width printf formats got wrong.  The stripe columns
/// (stripes / collapses / fast incs) appear only when at least one row
/// is sharded, and the wait-plane columns (depth / bulk wakes) only
/// when at least one row has parked a waiter; other tables keep their
/// familiar shape.  Within an extended table, rows
/// the extra columns do not apply to print "-" instead of a misleading
/// zero-padded value.
TextTable counter_stats_table(
    const std::vector<std::pair<std::string, CounterStatsSnapshot>>& rows);

}  // namespace monotonic
