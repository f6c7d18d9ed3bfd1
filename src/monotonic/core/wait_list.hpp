// wait_list.hpp — the shared wait-engine underneath every counter
// implementation.
//
// §7 describes one data structure: "an ordered linked list of
// dynamically allocated nodes representing the counter levels on which
// threads are waiting".  Historically each counter implementation
// (list, single-cv, futex, spin, hybrid) re-implemented that list — or
// skipped it, losing introspection and timed waits.  This header
// factors the machinery out once:
//
//   * WaitList<Signal>   — the per-level node index: join-or-create,
//     prefix release, timed-waiter unlink, node pooling, and the
//     structural stats (§7's O(live levels) storage bound).  The
//     `Signal` type parameter is the per-node wake primitive a waiting
//     policy plugs in (a condition variable, a futex word, a spin
//     flag); the list itself never blocks or wakes anybody.
//
//     The levels are kept in one level index (wait_index.hpp) rather
//     than §7's ordered linked list: an intrusive array min-heap, plus
//     a level hash once more than a handful of levels are live.  That
//     gives O(log L) join-or-insert where the list walks O(L), O(1)
//     min-level, and release of all levels <= value as an ascending
//     peel (a sort-split for big wakes).  It keeps the §7 contract at
//     the API: waiters are released in ascending level order, released
//     nodes are exactly the set of levels <= value, and storage stays
//     O(live levels).
//
//   * CallbackList       — the OnReach async-check analogue: one node
//     per level with registered callbacks, same ordering discipline
//     and the same level index, released prefixes carried out of the
//     lock and run there (CP.22).
//
// Every member function that touches list state requires the owning
// counter's mutex to be held; the classes are lock-agnostic on purpose
// (the hybrid/futex/spin policies only take that mutex on slow paths).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "monotonic/core/completion.hpp"
#include "monotonic/core/counter_stats.hpp"
#include "monotonic/core/engine_env.hpp"
#include "monotonic/core/wait_index.hpp"
#include "monotonic/support/assert.hpp"
#include "monotonic/support/cache.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

/// Watermark sentinel: "no level is armed".  Strictly above every legal
/// level (lock-free value planes cap levels at max >> 1, and Check
/// REQUIREs that), so the engine's `sum >= watermark` test needs no
/// special case for the empty wait list.
inline constexpr counter_value_t kNoArmedLevel =
    std::numeric_limits<counter_value_t>::max();

/// One ordered (level, waiters) pair per live wait node — the shape
/// Figure 2 draws, shared by every implementation's debug_snapshot().
struct DebugWaitLevel {
  counter_value_t level;
  std::size_t waiters;
};

/// Structural snapshot for tests and benches (Figure 2 reproduction).
/// Application code must not branch on this — see the no-probe rule.
struct CounterDebugSnapshot {
  counter_value_t value;
  std::vector<DebugWaitLevel> wait_levels;       // ascending by level
  std::vector<counter_value_t> callback_levels;  // ascending
};

/// Diagnostic snapshot handed to the stall watchdog: which level the
/// stuck waiter wants, how long it has been parked, and the full
/// wait-list shape at the moment of the report.
struct CounterStallReport {
  counter_value_t value;                    ///< current counter value
  counter_value_t level;                    ///< level the waiter wants
  std::chrono::milliseconds waited;         ///< how long it has waited
  std::vector<DebugWaitLevel> wait_levels;  ///< ascending, like Figure 2
};

/// What the engine does with a waiter that bounded admission
/// (WaitListOptions::max_waiters / max_levels) turns away.  Uniform
/// across all five policies and both value planes — admission is
/// enforced by the engine at every park site, under the engine mutex,
/// before the wait list is touched.
enum class OverloadPolicy : std::uint8_t {
  /// Reject: the Check throws CounterOverloadedError.  Capacity frees
  /// as parked waiters are released, so retrying is legitimate.
  kThrow,
  /// Degrade: the waiter is denied a wait node and falls back to a
  /// bounded-backoff spin/poll loop on the value itself — no list
  /// storage, no signal, but still poison-, deadline- and
  /// cancellation-aware.  Counted in the degraded_waits stat.
  kSpinFallback,
  /// Backpressure: the waiter parks at a capacity gate the engine
  /// already owns (a condvar under the engine mutex) until a slot
  /// frees.  Because gate waiters hold and re-take the engine mutex,
  /// incrementer slow paths queue behind the overload instead of
  /// racing ahead of it — the producers feel the backpressure.
  kBlockIncrementers,
};

namespace detail {
/// kSpinFallback relock-poll pacing (degraded_wait_locked in
/// basic_counter.hpp).  The first kDegradedSpinProbes probes ride the
/// environment spinner so a waiter denied admission during a short
/// burst still wakes in microseconds; the count stays BELOW the
/// spinner's yield threshold (SpinBackoff pauses for its first ten
/// iterations) because a 10k-waiter storm each burning a yield phase
/// floods the run queue and starves everything else — E12 measured
/// the storm's thread-spawn loop alone at ~35 s with yields in the
/// probe budget.  Past the probes, each poll sleeps on the engine's
/// capacity gate with the nap doubling from kDegradedNapFloor to
/// kDegradedNapCap: N degraded waiters then demand O(N / cap) mutex
/// acquisitions per second instead of O(N / 100µs), which is the
/// difference between the storm degrading and it monopolizing every
/// core re-locking the engine mutex (E12 measured 11.8 ms/op before
/// the cap, ~170x the kThrow policy's cost).
///
/// The cap can sit this high because naps are only the FALLBACK wake
/// path: napping pollers register a level floor with the engine and
/// the increment/poison slow paths broadcast the gate the moment the
/// value crosses it (notify_degraded_locked in basic_counter.hpp), so
/// a 250ms cap costs microseconds of exit latency, not 250ms.  At
/// 20ms, E12's 10k-waiter storm still demanded ~500k relock wakeups
/// per second during its spawn ramp — enough to saturate a core
/// before the first increment arrived.
inline constexpr std::uint32_t kDegradedSpinProbes = 4;
inline constexpr std::chrono::microseconds kDegradedNapFloor{100};
inline constexpr std::chrono::milliseconds kDegradedNapCap{250};
}  // namespace detail

/// Node-pooling and failure-diagnostic knobs, common to every policy.
struct WaitListOptions {
  /// Reuse freed wait nodes through an internal free list instead of
  /// returning them to the allocator.  On by default; the E5 bench
  /// ablates it.
  bool pool_nodes = true;
  /// Maximum nodes retained in the pool (0 = unbounded).  Clamped up
  /// to `preallocated_nodes` so preallocated capacity is never
  /// returned to the allocator by recycle().
  std::size_t max_pool_size = 64;
  /// Wait nodes constructed up front into the free list, so Check on a
  /// hot level never allocates in steady state (allocation-free once
  /// the working set of distinct levels fits the pool).  Zero by
  /// default — preallocation is opt-in, and it raises the pool's
  /// retention floor (recycle keeps max(max_pool_size,
  /// preallocated_nodes) nodes), which would perturb code tuned around
  /// max_pool_size alone.  The spec factory exposes this as
  /// "pooled[:N]+".
  std::size_t preallocated_nodes = 0;
  /// Bounded admission: maximum threads parked in the wait list at
  /// once (0 = unlimited).  Excess waiters are handled per
  /// `overload_policy`.
  std::size_t max_waiters = 0;
  /// Bounded admission: maximum distinct live wait levels (linked
  /// nodes) at once (0 = unlimited).  Joining an existing level never
  /// counts against this; only creating a new node does.
  std::size_t max_levels = 0;
  /// What to do with a waiter the bounds above turn away.
  OverloadPolicy overload_policy = OverloadPolicy::kThrow;
  /// Stall watchdog: when > 0, an untimed Check parked longer than
  /// this emits a CounterStallReport through `on_stall` (and again
  /// every further interval), so a lost Increment surfaces as a
  /// diagnosable report instead of a silent hang.  Timed checks have
  /// their own deadlines and are exempt.
  std::chrono::milliseconds stall_report_after{0};
  /// Stall sink.  Called outside the counter lock; may log, alloc, or
  /// touch other counters.  Empty = a stderr one-liner.
  std::function<void(const CounterStallReport&)> on_stall;
  /// Striped value planes only: number of per-stripe cells.  0 = pick
  /// automatically from hardware_concurrency (rounded up to a power of
  /// two, clamped to [1, 64]).  Ignored by unsharded counters.
  std::size_t stripes = 0;
  /// Async completion plane (completion.hpp): where detached OnReach /
  /// predicate callback chains run.  Null (the default) delivers
  /// inline on the incrementing thread — bit-for-bit the pre-executor
  /// semantics.  A ThreadPoolExecutor moves slow callbacks off the
  /// incrementer entirely; poison delivery rides the same queue.
  /// Shared, not owned: one executor can drain many counters.  Spec
  /// token "executor=inline|pool[:N]".
  std::shared_ptr<CompletionExecutor> completion_executor;
};

/// The §7 wait plane.  `Signal` is the per-node wake primitive
/// supplied by the waiting policy; the list requires only that it is
/// default-constructible and has a `reset()` hook called on reuse.
/// `Env` (engine_env.hpp) supplies the schedule-point hook: the
/// structural transitions — a waiter joining a node (kPark), a level
/// being released (kWake, once per level) — are decision points the
/// simulation harness interleaves at; RealEngineEnv compiles them
/// away.
template <typename Signal, typename Env = RealEngineEnv>
class WaitList {
 public:
  // One node per distinct level with waiters (§7 / Figure 2):
  // {level, count, signal}.  Cache-line aligned: a node's signal is
  // hammered by its own waiters (futex word, spin flag, condvar state)
  // while neighbouring nodes' waiters hammer theirs — without the
  // alignment, pool-recycled nodes end up packed shoulder to shoulder
  // and every wake false-shares with the next level over.
  //
  // `next` links the pool free list; `heap_pos` is the level index's
  // intrusive back-link.  Policies never touch either — they see
  // level/waiters/released/aborted/signal only.
  struct alignas(kCacheLineSize) Node {
    counter_value_t level = 0;
    std::size_t waiters = 0;
    bool released = false;  // set when the node's waiters may resume
    bool aborted = false;   // wake cause: true = poisoned, not reached
    Signal signal;
    Node* next = nullptr;
    std::size_t heap_pos = 0;
  };

  WaitList(const WaitListOptions& options, CounterStats& stats)
      : options_(options), stats_(stats) {
    // Preallocation failures surface here, at construction, where the
    // caller expects allocation — never later from a hot Check.  The
    // pool-disabled ablation (pool_nodes = false) preallocates nothing:
    // its point is that every acquire pays the allocator.
    if (!options_.pool_nodes) return;
    for (std::size_t i = 0; i < options_.preallocated_nodes; ++i) {
      Node* node = new Node();
      node->next = free_list_;
      free_list_ = node;
      ++pool_size_;
    }
  }

  /// Precondition: no live nodes (the owning counter checks and reports
  /// the misuse; reaching this dtor with waiters would be UB anyway).
  ~WaitList() { drain_pool(); }

  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  bool empty() const noexcept { return index_.empty(); }

  /// Lowest level with a parked waiter, or kNoArmedLevel when none —
  /// O(1), the heap root.  Feeds the striped value plane's watermark.
  counter_value_t min_level() const noexcept {
    return index_.empty() ? kNoArmedLevel : index_.min_level();
  }

  /// Joins the queue for `level`, creating and linking a node if this
  /// is the first waiter at that level.  Registers the caller
  /// (++waiters) so the node cannot be freed underneath it.
  ///
  /// Strong exception guarantee: the operations that can throw — the
  /// node allocation and the index link (each preceded by
  /// Env::alloc_point, so injected faults cover every site) — run
  /// BEFORE any observable mutation, or unwind it — on throw the list,
  /// waiter counts and admission stats are exactly as before the call.
  /// The engine relies on this to translate the failure into
  /// CounterResourceError with the counter still usable.
  Node* acquire(counter_value_t level) {
    Env::point(SchedulePoint::kPark);
    Node* node = index_.find(level);  // O(1) expected join lookup
    if (node == nullptr) {
      node = allocate_node(level);  // may throw; nothing mutated yet
      try {
        index_.link(node, [] { Env::alloc_point(); });
      } catch (...) {
        recycle(node);  // unwound to the pre-call state
        throw;
      }
      stats_.on_index_depth(index_.depth());
    }
    ++node->waiters;
    ++waiter_count_;
    return node;
  }

  /// Bounded-admission probe (engine mutex held): would admitting one
  /// more waiter at `level` exceed max_waiters, or require a new node
  /// beyond max_levels?  Joining an existing level never violates the
  /// level bound, so the level lookup runs only when the bound is live.
  bool admission_would_exceed(counter_value_t level) const {
    if (options_.max_waiters != 0 && waiter_count_ >= options_.max_waiters) {
      return true;
    }
    if (options_.max_levels != 0 && index_.size() >= options_.max_levels &&
        index_.find(level) == nullptr) {
      return true;
    }
    return false;
  }

  /// True when either admission bound is configured — whether the
  /// engine needs to run admission control (and wake its capacity
  /// gate) at all.
  bool bounded() const noexcept {
    return options_.max_waiters != 0 || options_.max_levels != 0;
  }

  /// Registered waiters (threads) currently in the list.
  std::size_t waiter_count() const noexcept { return waiter_count_; }
  /// Linked (live) level nodes currently in the list.
  std::size_t live_level_count() const noexcept { return index_.size(); }

  /// Deregisters a waiter.  The last waiter to leave frees the node
  /// (§7: "The thread that decrements the count to zero deallocates
  /// the node").  A released node was already unlinked by
  /// release_prefix; a timed-out waiter's node is still linked, so the
  /// last leaver unlinks it here — preserving the O(live levels)
  /// storage bound under timeouts.
  void leave(Node* node) {
    MC_ASSERT(node->waiters > 0, "leave() without matching acquire()");
    MC_ASSERT(waiter_count_ > 0, "waiter accounting underflow");
    --waiter_count_;
    if (--node->waiters > 0) return;
    if (!node->released) index_.erase(node);
    recycle(node);
  }

  /// §7: "removes all nodes with levels less than or equal to the new
  /// counter value from the waiting list."  Ascending, touching
  /// O(released levels) nodes, never individual waiters.
  /// `on_release(Node&)` is the policy's wake hook, called once per
  /// node with the owning lock still held (a released node may only be
  /// freed by its last waiter, and waiters cannot run until the lock
  /// drops, so the node is guaranteed alive inside the hook).
  template <typename OnRelease>
  void release_prefix(counter_value_t value, OnRelease&& on_release) {
    const std::size_t released = index_.drain(value, [&](Node* node) {
      Env::point(SchedulePoint::kWake);
      node->released = true;
      stats_.on_wakeups(node->waiters);
      on_release(*node);
    });
    if (released > 1) stats_.on_bulk_wake();
  }

  /// Poison path: unlinks and wakes EVERY node regardless of level,
  /// marking each `aborted` so resuming waiters can tell "reached"
  /// from "the Increment you were waiting on is never coming".  Same
  /// locking discipline, ascending order and `on_release` wake hook as
  /// release_prefix.
  template <typename OnRelease>
  void abort_all(OnRelease&& on_release) {
    const std::size_t released = index_.drain(kNoArmedLevel, [&](Node* node) {
      Env::point(SchedulePoint::kWake);
      node->released = true;
      node->aborted = true;
      stats_.on_aborted_wakeups(node->waiters);
      on_release(*node);
    });
    if (released > 1) stats_.on_bulk_wake();
  }

  /// Appends one (level, waiters) entry per live node, ascending.
  void snapshot_into(std::vector<DebugWaitLevel>& out) const {
    const std::size_t first = out.size();
    index_.for_each([&](Node* node) {
      out.push_back(DebugWaitLevel{node->level, node->waiters});
    });
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const DebugWaitLevel& a, const DebugWaitLevel& b) {
                return a.level < b.level;
              });
  }

 private:
  Node* allocate_node(counter_value_t level) {
    Node* node;
    bool from_pool = false;
    if (free_list_ != nullptr) {
      node = free_list_;
      free_list_ = node->next;
      --pool_size_;
      from_pool = true;
    } else {
      Env::alloc_point();  // fault hook: may throw std::bad_alloc
      node = new Node();
    }
    node->level = level;
    node->waiters = 0;
    node->released = false;
    node->aborted = false;
    node->signal.reset();
    node->next = nullptr;
    stats_.on_node_allocated(from_pool);
    return node;
  }

  void recycle(Node* node) {
    stats_.on_node_freed();
    // The retention cap never drops below the preallocated count, so
    // capacity paid for up front is never handed back to the heap.
    const std::size_t cap =
        std::max(options_.max_pool_size, options_.preallocated_nodes);
    if (options_.pool_nodes &&
        (options_.max_pool_size == 0 || pool_size_ < cap)) {
      node->next = free_list_;
      free_list_ = node;
      ++pool_size_;
    } else {
      delete node;
    }
  }

  void drain_pool() {
    while (free_list_ != nullptr) {
      Node* node = free_list_;
      free_list_ = node->next;
      delete node;
    }
    pool_size_ = 0;
  }

  const WaitListOptions options_;
  CounterStats& stats_;
  detail::LevelShard<Node> index_;  // the live levels
  Node* free_list_ = nullptr;       // node pool (options_.pool_nodes)
  std::size_t pool_size_ = 0;
  std::size_t waiter_count_ = 0;  // registered waiters (admission)
};

/// One node per level with registered OnReach callbacks; same level
/// index and ordering discipline as WaitList (a counter indexes a
/// million OnReach levels at the same O(log L) its parked waiters
/// get), but released nodes are detached under the lock and executed
/// outside it (CP.22: callbacks may re-enter this or any other
/// counter).  Templated over the engine environment for the same
/// reason WaitList is: its allocations (node + entry vector + index
/// link) run under the engine mutex, so they are fault-injection
/// points (Env::alloc_point) the strong-guarantee audit must cover.
template <typename Env = RealEngineEnv>
class CallbackListT {
 public:
  /// One registered OnReach: the success callback plus an optional
  /// error callback that receives the poison cause when the counter is
  /// poisoned below the entry's level.
  struct Entry {
    std::function<void()> fn;
    std::function<void(std::exception_ptr)> on_error;
  };

  /// `next` chains detached nodes; `heap_pos` is the index back-link.
  struct Node {
    counter_value_t level = 0;
    std::vector<Entry> callbacks;
    Node* next = nullptr;
    std::size_t heap_pos = 0;
  };

  CallbackListT() = default;

  /// Unreached callbacks are dropped, not run: running "reached level
  /// L" callbacks for a level that was never reached would be a lie.
  /// (Poisoning, by contrast, detaches them and delivers the error —
  /// see detach_all / run_chain_error.)  Deleting a node leaves the
  /// index's own (level, node) arrays untouched, so the sweep is safe.
  ~CallbackListT() {
    index_.for_each([](Node* node) { delete node; });
  }

  CallbackListT(const CallbackListT&) = delete;
  CallbackListT& operator=(const CallbackListT&) = delete;

  bool empty() const noexcept { return index_.empty(); }

  /// Lowest level with a registered callback, or kNoArmedLevel when
  /// none (mirrors WaitList::min_level for the watermark computation).
  counter_value_t min_level() const noexcept {
    return index_.empty() ? kNoArmedLevel : index_.min_level();
  }

  /// Inserts into the level index, joining an existing level node if
  /// present (mirrors the wait list).
  ///
  /// Strong exception guarantee: every allocation point — growing an
  /// existing node's entry vector, creating a new node, or linking it
  /// into the index — runs before the node is (or stays) visible in a
  /// partially-updated state.  push_back itself is strong, a
  /// freshly-allocated node is only linked after its entry is in
  /// place, and a failed index link deletes the unlinked node — so a
  /// bad_alloc (real or injected at Env::alloc_point) leaves the list
  /// exactly as it was.
  void insert(counter_value_t level, std::function<void()> fn,
              std::function<void(std::exception_ptr)> on_error = {}) {
    Node* node = index_.find(level);
    if (node != nullptr) {
      Env::alloc_point();  // fault hook: may throw std::bad_alloc
      node->callbacks.push_back(Entry{std::move(fn), std::move(on_error)});
      return;
    }
    Env::alloc_point();  // fault hook: may throw std::bad_alloc
    node = new Node();
    try {
      node->level = level;
      node->callbacks.push_back(Entry{std::move(fn), std::move(on_error)});
      index_.link(node, [] { Env::alloc_point(); });
    } catch (...) {
      delete node;  // never linked; index unwound to pre-call state
      throw;
    }
  }

  /// Detaches the nodes with level <= value and returns them as an
  /// ascending chain; the caller runs the chain after dropping the
  /// lock.
  Node* detach_reached(counter_value_t value) {
    Node* head = nullptr;
    Node** tail = &head;
    index_.drain(value, [&](Node* node) {
      node->next = nullptr;
      *tail = node;
      tail = &node->next;
    });
    return head;
  }

  /// Poison path: detaches every remaining node (all have level >
  /// value by invariant, so none was reached), ascending.  The caller
  /// delivers the chain to run_chain_error after dropping the lock.
  Node* detach_all() { return detach_reached(kNoArmedLevel); }

  /// Runs and frees a detached chain.  Must be called with no counter
  /// lock held.  Callbacks for one level run in registration order;
  /// across levels, in level order.
  static void run_chain(Node* chain) {
    while (chain != nullptr) {
      Node* node = chain;
      chain = node->next;
      for (auto& entry : node->callbacks) entry.fn();
      delete node;
    }
  }

  /// Frees a detached chain of never-reached callbacks, delivering
  /// `cause` to each entry's error callback (entries without one are
  /// dropped).  Must be called with no counter lock held.
  static void run_chain_error(Node* chain, const std::exception_ptr& cause) {
    while (chain != nullptr) {
      Node* node = chain;
      chain = node->next;
      for (auto& entry : node->callbacks) {
        if (entry.on_error) entry.on_error(cause);
      }
      delete node;
    }
  }

  void snapshot_into(std::vector<counter_value_t>& out) const {
    const std::size_t first = out.size();
    index_.for_each([&](Node* node) { out.push_back(node->level); });
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  }

 private:
  detail::LevelShard<Node> index_;  // the registered levels
};

/// Production alias, with the fault hook inlined away
/// (RealEngineEnv::alloc_point is an empty function).
using CallbackList = CallbackListT<>;

}  // namespace monotonic
