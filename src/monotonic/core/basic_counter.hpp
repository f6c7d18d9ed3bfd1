// basic_counter.hpp — the monotonic counter (the paper's primary
// contribution), as ONE engine with swappable waiting policies.
//
//   "A counter object has three basic attributes: (i) a nonnegative
//    integer value, (ii) an Increment operation, and (iii) a Check
//    operation.  The initial value of the counter is zero.  Increment
//    atomically increases the value of the counter by a specified
//    amount.  Check suspends the calling thread until the value of the
//    counter is greater than or equal to a specified level."  (§1)
//
// BasicCounter<WaitPolicy, ValuePlane> is two cooperating planes:
//
//   * the VALUE PLANE (second template parameter, value_plane.hpp /
//     striped_cells.hpp) owns the monotone value — how Increment
//     publishes into it, and when an incrementer must divert to the
//     locked slow path (the attention bit or the lowest-armed-level
//     watermark);
//   * the WAIT PLANE — this engine plus the policy — owns waiter
//     management: the per-level wait index (wait_list.hpp over the
//     level index of wait_index.hpp), the OnReach callback index,
//     node pooling, stats, Reset, timed checks, poisoning,
//     cancellation, the stall watchdog and debug_snapshot().  The
//     policy (wait_policy.hpp) decides how a parked thread sleeps / a
//     released node wakes.
//
// The plane defaults to the storage each pre-plane counter used (an
// atomic word for lock-free policies, a mutex-guarded word for locking
// ones), so the five historical implementations are aliases:
//
//   Counter         = BasicCounter<BlockingWait>   (§7 reference)
//   SingleCvCounter = BasicCounter<SingleCvWait>   (broadcast baseline)
//   FutexCounter    = BasicCounter<FutexWait>
//   SpinCounter     = BasicCounter<SpinWait>
//   HybridCounter   = BasicCounter<HybridWait>
//
// and each grows a Sharded sibling that swaps in the striped plane
// (ShardedCounter, ShardedFutexCounter, ShardedSpinCounter,
// ShardedHybridCounter — see the per-alias headers), under which
// uncontended Increment is one fetch_add on a private cache line and
// waiters arm a watermark instead of a global attention bit.  Every
// instantiation uniformly supports CheckFor/CheckUntil, OnReach,
// Reset, pooled wait nodes and Figure-2 introspection, with identical
// checked-usage semantics.
//
// Deliberate API omissions, per §2:
//   * no Decrement — the value is monotone, so an enabled Check can
//     never become disabled; this is what makes counter synchronization
//     race-free and deterministic (§6);
//   * no Probe / value getter — a branch on the instantaneous value
//     would reintroduce timing-dependent behaviour.  Tests and benches
//     use debug_snapshot()/debug_value(), named so misuse is
//     conspicuous.
//
// Lock-free fast paths (planes with kLockFreeFastPath) follow one
// arm/re-check discipline, whatever the storage: a waiter arms the
// plane for its level *under the mutex* (setting the attention bit, or
// lowering the watermark), then re-checks the collapsed value.  The
// classic lost-wakeup hazard (value rises between the waiter's check
// and its enqueue) is closed because a racing Increment either sees
// the armed plane (and will take the mutex, which we hold first) or
// happened before our re-check (and we see its value).  The cost: the
// logical value is capped at 2^63-1 (headroom the planes spend on the
// flag bit / watermark sentinel), and increments that can cross an
// armed level each pay the lock.
//
// Failure model (engine extension — see counter_error.hpp).  §6's
// determinism argument assumes every awaited Increment eventually
// happens; when a producer dies it never will, and without help every
// consumer parks forever.  Three escape hatches, uniform across all
// policies:
//
//   * Poison(cause) freezes the value, wakes every parked waiter with
//     an "aborted" (not "reached") cause, and turns any Check above the
//     frozen value — resumed or future — into a CounterPoisonedError
//     carrying the producer's exception.  OnReach callbacks above the
//     frozen value are delivered to their optional error callback.
//     First poison wins; Increment on a poisoned counter is a counted
//     drop.  The frozen value is authoritative: on lock-free policies a
//     racing fetch_add can still inflate the atomic word after the
//     freeze, so every poisoned-path decision consults frozen_, never
//     the word.
//   * Check(level, stop_token) parks cancellably: a triggered token
//     nudges the policy (wake_waiters) and the call returns false
//     instead of sleeping on.
//   * The stall watchdog (Options::stall_report_after) re-arms an
//     internal timed wait under untimed Checks and surfaces a
//     CounterStallReport — value, wanted level, wait duration, full
//     wait-list shape — through Options::on_stall, so a lost Increment
//     is a diagnosable report instead of a silent hang.
//
// Resource model (engine extension — see counter_error.hpp and the
// admission fields of WaitListOptions).  The engine performs exactly
// two kinds of heap allocation, both under its mutex: wait-list nodes
// and OnReach callback nodes.  Both are strong-exception-safe: a
// std::bad_alloc (real, or injected through Env::alloc_point by the
// fault environment) unwinds with the counter exactly as it was — the
// armed watermark is restored, no half-linked node remains — and
// surfaces as CounterResourceError.  With preallocated_nodes sized to
// the expected waiter population, the steady state never allocates at
// all.  Bounded admission (max_waiters / max_levels) caps what a storm
// of checkers can pin; a waiter over the cap is handled per
// OverloadPolicy: rejected with CounterOverloadedError (kThrow),
// demoted to an allocation-free relock-poll wait (kSpinFallback), or
// blocked on an internal gate until capacity frees, queueing ahead of
// incrementer slow paths on the mutex (kBlockIncrementers).  All three
// keep poison, deadlines and cancellation live.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <stop_token>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "monotonic/core/counter_error.hpp"
#include "monotonic/core/counter_stats.hpp"
#include "monotonic/core/engine_env.hpp"
#include "monotonic/core/value_plane.hpp"
#include "monotonic/core/wait_list.hpp"
#include "monotonic/core/wait_policy.hpp"
#include "monotonic/support/assert.hpp"
#include "monotonic/support/config.hpp"

namespace monotonic {

namespace detail {

/// Converts an arbitrary-clock deadline to the steady clock the wait
/// engine runs on (`Env::Clock` — the real steady clock in production,
/// the virtual clock under simulation).  time_point_cast only converts
/// the duration type, not the epoch, so casting e.g. a system_clock
/// deadline directly would mis-time by the (enormous) epoch difference
/// — instead convert via a now()-delta against both clocks.
template <typename Env, typename Clock, typename Duration>
std::chrono::steady_clock::time_point to_steady_deadline(
    std::chrono::time_point<Clock, Duration> deadline) {
  if constexpr (std::is_same_v<Clock, std::chrono::steady_clock> &&
                std::is_same_v<typename Env::Clock,
                               std::chrono::steady_clock>) {
    return std::chrono::time_point_cast<std::chrono::steady_clock::duration>(
        deadline);
  } else {
    const auto delta = deadline - Clock::now();
    return Env::Clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               delta);
  }
}

/// True when `Plane` either doesn't name an engine environment (the
/// locking PlainValuePlane is environment-agnostic) or names the same
/// one as the policy — mixing a sim policy with a real-env plane would
/// compile but silently escape the scheduler.
template <typename Env, typename Plane, typename = void>
inline constexpr bool plane_env_matches_v = true;
template <typename Env, typename Plane>
inline constexpr bool
    plane_env_matches_v<Env, Plane, std::void_t<typename Plane::EngineEnv>> =
        std::is_same_v<Env, typename Plane::EngineEnv>;

}  // namespace detail

/// Monotonic counter per Thornley & Chandy, generic over the waiting
/// policy (see wait_policy.hpp for the policy contract) and the value
/// plane (value_plane.hpp / striped_cells.hpp for the plane contract).
template <typename Policy, typename Plane = detail::DefaultPlane<Policy>>
class BasicCounter {
 public:
  using WaitPolicy = Policy;
  using ValuePlane = Plane;
  /// The engine environment (engine_env.hpp): mutex, clock, atomics
  /// and schedule points, taken from the policy.  RealEngineEnv in
  /// every production alias; SimEngineEnv under the simulation
  /// harness.
  using Env = typename Policy::EngineEnv;
  static_assert(detail::plane_env_matches_v<Env, Plane>,
                "policy and value plane must share one engine environment");
  using Options = WaitListOptions;
  using DebugWaitLevel = monotonic::DebugWaitLevel;
  using DebugSnapshot = CounterDebugSnapshot;

  /// True when uncontended Increment / satisfied Check are lock-free —
  /// the PLANE's call, not the policy's: a striped plane gives lock-
  /// free fast paths to a locking policy (ShardedCounter pairs
  /// BlockingWait with StripedPlane).
  static constexpr bool kLockFreeFastPath = Plane::kLockFreeFastPath;

  /// Maximum representable value.  Lock-free planes spend headroom on
  /// the attention flag / watermark sentinel, halving the range.
  static constexpr counter_value_t kMaxValue = Plane::kMaxValue;

  BasicCounter() : BasicCounter(Options{}) {}
  explicit BasicCounter(const Options& options)
      : options_(options),
        plane_(options_, stats_),
        list_(options_, stats_) {}

  /// Destroys the counter.  Precondition: no thread is suspended in
  /// Check() (checked; destruction with waiters aborts rather than
  /// corrupting them).  The fatal message includes a wait-list snapshot
  /// — value plus each stranded (level, waiters) pair — so the abort
  /// names who was left behind instead of just that somebody was.
  /// Unreached OnReach callbacks are dropped, not run: running "reached
  /// level L" callbacks for a level that was never reached would be a
  /// lie.
  ~BasicCounter() {
    std::scoped_lock lock(m_);
    if (list_.empty()) return;
    std::string msg =
        "counter destroyed with suspended waiters: value=" +
        std::to_string(value_locked());
    std::vector<DebugWaitLevel> levels;
    list_.snapshot_into(levels);
    for (const auto& entry : levels) {
      msg += ", level " + std::to_string(entry.level) + " x" +
             std::to_string(entry.waiters);
    }
    detail::assert_fail("list_.empty()", __FILE__, __LINE__, msg.c_str());
  }

  BasicCounter(const BasicCounter&) = delete;
  BasicCounter& operator=(const BasicCounter&) = delete;

  /// Atomically increases the value by `amount`, waking every thread
  /// suspended on a level <= the new value.  Increment(0) is a no-op.
  /// Overflow past kMaxValue is a checked usage error.  On a poisoned
  /// counter the increment is a silently-counted drop (never a throw:
  /// producers flushing buffered work during unwind must not die
  /// again), and a drop racing the freeze itself is benign — see the
  /// failure-model note in the header.
  void Increment(counter_value_t amount = 1) {
    if (poisoned_.load(std::memory_order_acquire)) {
      stats_.on_dropped_increment();
      return;
    }
    if constexpr (kLockFreeFastPath) {
      if (amount == 0) {
        stats_.on_increment();
        return;
      }
      Env::point(SchedulePoint::kIncrementFast);
      // The plane publishes the add lock-free (overflow-checked) and
      // reports whether a slow pass is required: the attention bit was
      // set, or the post-increment sum may cross the armed watermark.
      // Degraded pollers hold no wait node, so the armed watermark
      // cannot see them: while any exist, every increment takes the
      // slow pass so a value crossing wakes them through the gate
      // instead of after a nap-cap poll.  One relaxed load; zero when
      // the counter is unbounded or never overloads.
      // The fast path's only stats write is the plane's own tally, on
      // the line the add just wrote; stats() adds it in.
      if (!plane_.add_fast(amount) &&
          degraded_pollers_.load(std::memory_order_relaxed) == 0) {
        plane_.count_fast();
        return;  // fast path: nobody parked below the new value
      }
      Env::point(SchedulePoint::kIncrementSlow);
      typename Callbacks::Node* reached = nullptr;
      {
        std::unique_lock lock(m_);
        stats_.on_increment();
        reached = release_reached_locked();
      }
      // SingleCvWait-style policies broadcast here; the shipped lock-
      // free policies are no-ops.  Callbacks run outside the lock
      // (CP.22): they may re-enter this counter or any other.
      policy_.on_increment_unlocked(false);
      complete_chain(reached);
    } else {
      Env::point(SchedulePoint::kIncrementSlow);
      typename Callbacks::Node* reached = nullptr;
      {
        std::unique_lock lock(m_);
        // Locking planes mutate under m_, same as Poison: re-check so
        // increment-vs-poison is fully linearized (no frozen drift).
        if (poisoned_.load(std::memory_order_relaxed)) {
          stats_.on_dropped_increment();
          return;
        }
        stats_.on_increment();
        if (amount == 0) return;
        plane_.add_locked(amount);
        const counter_value_t value = plane_.collapse();
        const bool had_waiters = !list_.empty();
        list_.release_prefix(
            value, [&](Node& node) { policy_.on_release(node, stats_); });
        policy_.on_increment_locked(had_waiters, stats_);
        reached = callbacks_.detach_reached(value);
        notify_capacity_locked();  // released levels freed admission room
        notify_degraded_locked(value);
      }
      policy_.on_increment_unlocked(false);
      complete_chain(reached);
    }
  }

  /// Suspends the calling thread until value >= level.  Returns
  /// immediately if the level has already been reached.  Throws
  /// CounterPoisonedError if the counter is (or becomes) poisoned with
  /// its frozen value below `level`.
  void Check(counter_value_t level) {
    stats_.on_check();
    Env::point(SchedulePoint::kCheck);
    if constexpr (kLockFreeFastPath) {
      MC_REQUIRE(level <= kMaxValue, "level exceeds counter range");
      if (plane_.read_fast() >= level &&
          !poisoned_.load(std::memory_order_acquire)) {
        stats_.on_fast_check();  // lock-free success
        return;
      }
      std::unique_lock lock(m_);
      if (check_poisoned_locked(level)) return;
      if (!announce_waiter_locked(level)) {
        stats_.on_fast_check();
        return;
      }
      park(lock, level);
    } else {
      std::unique_lock lock(m_);
      if (check_poisoned_locked(level)) return;
      // Fast path (§7): "Check with a level less than or equal to the
      // current counter value returns immediately."
      if (plane_.read_locked() >= level) {
        stats_.on_fast_check();
        return;
      }
      park(lock, level);
    }
  }

  /// Predicate Check (extension): suspends until `pred(value)` holds.
  /// `pred` must be MONOTONE — once true at some value, true at every
  /// larger value — and is evaluated only against values the counter
  /// actually reached plus probes below them, never against a value
  /// "in the future" (docs/semantics.md, "Predicate waits").
  ///
  /// Because the value only rises, a monotone predicate over it is
  /// exactly a threshold: there is a least level L with pred(L), and
  /// waiting for the predicate IS waiting for L.  The engine finds L
  /// by galloping + binary search over [0, kMaxValue] — O(log V)
  /// evaluations, value-independent, no counter state touched — and
  /// then delegates to Check(L), inheriting the level wait's entire
  /// contract: selective wakeup through the armed watermark and the
  /// O(log L) level index, poison, admission, the stall watchdog.
  /// This is AutoSynch's predicate tagging specialised to monotone
  /// predicates: the "conservative trigger" is exact here, so no
  /// broadcast-and-recheck is ever needed.
  ///
  /// A predicate that never becomes true over the representable range
  /// is a checked usage error (it could never be signalled).
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  void Check(Pred pred) {
    Check(predicate_level(pred));
  }

  /// Cancellable predicate Check: Check(pred) with Check(level, stop)'s
  /// cancellation contract (false = stop token fired first).
  template <typename Pred>
    requires(!std::convertible_to<Pred, counter_value_t> &&
             std::predicate<Pred&, counter_value_t>)
  bool Check(Pred pred, std::stop_token stop) {
    return Check(predicate_level(pred), std::move(stop));
  }

  /// Cancellable Check (extension): parks like Check, but a triggered
  /// `stop` wakes this thread and makes the call return false (level
  /// not reached) instead of sleeping on.  Returns true when the level
  /// was reached — including when the release races the cancellation.
  /// Throws CounterPoisonedError exactly like Check.
  bool Check(counter_value_t level, std::stop_token stop) {
    stats_.on_check();
    Env::point(SchedulePoint::kCheck);
    std::unique_lock<typename Env::Mutex> lock(m_, std::defer_lock);
    if constexpr (kLockFreeFastPath) {
      MC_REQUIRE(level <= kMaxValue, "level exceeds counter range");
      if (plane_.read_fast() >= level &&
          !poisoned_.load(std::memory_order_acquire)) {
        stats_.on_fast_check();
        return true;
      }
      lock.lock();
      if (check_poisoned_locked(level)) return true;
      if (!announce_waiter_locked(level)) {
        stats_.on_fast_check();
        return true;
      }
    } else {
      lock.lock();
      if (check_poisoned_locked(level)) return true;
      if (plane_.read_locked() >= level) {
        stats_.on_fast_check();
        return true;
      }
    }
    if (stop.stop_requested()) {  // pre-cancelled: don't even enqueue
      if constexpr (kLockFreeFastPath) rearm_locked();
      stats_.on_cancelled_check();
      return false;
    }
    switch (admit_locked(lock, level, nullptr, &stop)) {
      case Admit::kSatisfied:
        if constexpr (kLockFreeFastPath) rearm_locked();
        return true;
      case Admit::kDegrade: {
        const bool reached = degraded_wait_locked(lock, level, nullptr, &stop);
        if constexpr (kLockFreeFastPath) rearm_locked();
        if (!reached) stats_.on_cancelled_check();
        return reached;
      }
      case Admit::kCancelled:
        if constexpr (kLockFreeFastPath) rearm_locked();
        stats_.on_cancelled_check();
        return false;
      case Admit::kTimedOut:
        MC_ASSERT(false, "deadline outcome from an untimed admission");
        return false;
      case Admit::kProceed:
        break;
    }
    Node* node = acquire_node_locked(level);
    stats_.on_suspend();
    lock.unlock();
    {
      // The nudge callback takes m_, so the stop callback must be
      // constructed AND destroyed while m_ is NOT held: construction
      // runs the callback inline when the token already fired, and
      // destruction blocks on an in-flight invocation.  That dtor-block
      // is why the callback type comes from Env — the simulator has to
      // model the wait or its scheduler would hang.  The node stays
      // alive throughout: our registration (leave below) is still
      // outstanding.
      auto nudge_fn = [this, node] {
        Env::point(SchedulePoint::kCancel);
        std::scoped_lock wake_lock(m_);
        if (!node->released) policy_.wake_waiters(*node);
      };
      typename Env::template StopCallback<decltype(nudge_fn)> nudge(
          stop, std::move(nudge_fn));
      lock.lock();
      policy_.wait_cancellable(lock, *node, stop, stats_);
      lock.unlock();
    }
    lock.lock();
    stats_.on_resume();
    // Re-read the wake cause under the final lock: a release or poison
    // may have landed while the callback was being torn down.
    const bool aborted = node->aborted;
    const bool released = node->released;
    list_.leave(node);
    notify_capacity_locked();
    if constexpr (kLockFreeFastPath) rearm_locked();
    if (aborted) throw_poisoned(level);
    if (!released) {
      stats_.on_cancelled_check();
      return false;
    }
    return true;
  }

  /// Timed Check (extension): returns true if the level was reached,
  /// false on timeout.  A timed-out waiter unlinks itself; if it was
  /// the last waiter at its level the node is freed, preserving the
  /// O(live levels) storage bound.
  template <typename Rep, typename Period>
  bool CheckFor(counter_value_t level,
                std::chrono::duration<Rep, Period> timeout) {
    return check_until_steady(level, Env::Clock::now() + timeout);
  }

  /// Timed Check against an absolute deadline on any clock.  Non-steady
  /// clocks are converted via a now()-delta (see to_steady_deadline).
  template <typename Clock, typename Duration>
  bool CheckUntil(counter_value_t level,
                  std::chrono::time_point<Clock, Duration> deadline) {
    return check_until_steady(level,
                              detail::to_steady_deadline<Env>(deadline));
  }

  /// Asynchronous Check (extension): registers `fn` to run exactly once
  /// when the value reaches `level`.  If the level has already been
  /// reached, fn runs immediately in the calling thread; otherwise it
  /// runs in the thread whose Increment reaches the level, *after* that
  /// Increment has released the waiting threads and dropped the
  /// internal lock (so fn may freely call back into this or any other
  /// counter — C++ Core Guidelines CP.22).  Callbacks for one level run
  /// in registration order; across levels, in level order.
  ///
  /// This turns a counter into a dataflow trigger without parking a
  /// thread per dependency — the async analogue of Check.
  ///
  /// `on_error` is the poison analogue of fn: if the counter is (or
  /// becomes) poisoned with the frozen value below `level`, on_error
  /// receives the poison cause instead of fn running.  Registering on
  /// an already-poisoned counter with no on_error throws, mirroring
  /// Check; registered entries without one are dropped at poison time.
  void OnReach(counter_value_t level, std::function<void()> fn,
               std::function<void(std::exception_ptr)> on_error = {}) {
    if constexpr (kLockFreeFastPath) {
      MC_REQUIRE(level <= kMaxValue, "level exceeds counter range");
    }
    std::exception_ptr poison;
    {
      std::unique_lock lock(m_);
      if (poisoned_.load(std::memory_order_relaxed)) {
        if (frozen_ < level) {
          if (!on_error) throw_poisoned(level);
          poison = poison_cause_or_error();
        }
        // frozen_ >= level: the level WAS reached; fn runs below.
      } else {
        bool unreached;
        if constexpr (kLockFreeFastPath) {
          unreached = announce_waiter_locked(level);
        } else {
          unreached = plane_.read_locked() < level;
        }
        if (unreached) {
          try {
            callbacks_.insert(level, std::move(fn), std::move(on_error));
          } catch (const std::bad_alloc&) {
            // Strong guarantee: insert left the list untouched; restore
            // the watermark we armed and surface the typed error.
            if constexpr (kLockFreeFastPath) rearm_locked();
            throw CounterResourceError(
                "counter callback allocation failed: OnReach(" +
                std::to_string(level) + ") not registered, counter unchanged");
          }
          return;
        }
      }
    }
    // Callbacks run here, outside the lock (CP.22) — through the
    // completion plane, so an executor-configured counter delivers
    // immediate fires on the same context as deferred ones.
    if (poison) {
      complete_one([cb = std::move(on_error), poison] { cb(poison); });
    } else {
      complete_one(std::move(fn));
    }
  }

  /// Poisons the counter with the exception a producer failed with:
  /// freezes the value where it stands, wakes every parked waiter
  /// (their Checks throw CounterPoisonedError carrying `cause`), fails
  /// pending OnReach registrations into their error callbacks, and
  /// makes all future operations observe the failure (Checks at or
  /// below the frozen value still succeed — that work WAS done).
  /// Idempotent: the first poison wins, later ones are no-ops.  Safe to
  /// call from any thread, including concurrently with every other
  /// operation.
  void Poison(std::exception_ptr cause) {
    poison_impl(std::move(cause), "counter poisoned");
  }

  /// Poison with a bare reason when there is no exception in flight
  /// (e.g. an orderly shutdown path).  Checks above the frozen value
  /// throw CounterPoisonedError with this reason and a null cause().
  void Poison(std::string_view reason) { poison_impl(nullptr, reason); }

  /// True once Poison has taken effect.  Diagnostic only — racing a
  /// poisoned() probe against Check is exactly the timing-dependent
  /// branch the no-probe rule exists to prevent.
  bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Resets the value to zero for reuse between algorithm phases (§2).
  /// Must not be called concurrently with any other operation on this
  /// counter; calling it while threads are suspended or callbacks are
  /// pending is a checked error.  Reset also clears poison: the §2
  /// phase-reuse story is the one sanctioned way to bring a poisoned
  /// counter back into service.
  void Reset() {
    std::scoped_lock lock(m_);
    MC_REQUIRE(list_.empty(),
               "Reset called while threads are suspended (§2: Reset must not "
               "run concurrently with other operations)");
    if (!callbacks_.empty()) {
      // Pending registrations would be orphaned by the value rollback
      // (their levels may never be reached again) — refuse, naming the
      // levels so the caller can see exactly what is still waiting.
      std::vector<counter_value_t> pending;
      callbacks_.snapshot_into(pending);
      std::string msg = "Reset called with pending OnReach callbacks at level";
      if (pending.size() > 1) msg += 's';
      for (std::size_t i = 0; i < pending.size(); ++i) {
        msg += (i == 0 ? " " : ", ") + std::to_string(pending[i]);
      }
      throw CounterError(msg);
    }
    poisoned_.store(false, std::memory_order_release);
    poison_cause_ = nullptr;
    poison_reason_.clear();
    frozen_ = 0;
    // The Increment tallies restart with the value: the plane's reset
    // zeroes its fast-path tally, and this zeroes the slow-path count.
    plane_.reset();
    stats_.reset_increments();
  }

  /// Structural snapshot for tests and benches (Figure 2 reproduction).
  /// Application code must not branch on this — see the no-probe rule.
  DebugSnapshot debug_snapshot() const {
    std::scoped_lock lock(m_);
    DebugSnapshot snap;
    snap.value = value_locked();
    list_.snapshot_into(snap.wait_levels);
    callbacks_.snapshot_into(snap.callback_levels);
    return snap;
  }

  /// The instantaneous value, for tests/benches only (no-probe rule).
  /// On a poisoned counter this is the frozen value, not the (possibly
  /// drifted) lock-free word.
  counter_value_t debug_value() const {
    if (poisoned_.load(std::memory_order_acquire)) {
      return frozen_;  // stable after the release-store of poisoned_
    }
    if constexpr (kLockFreeFastPath) {
      return plane_.read_fast();
    } else {
      std::scoped_lock lock(m_);
      return plane_.read_locked();
    }
  }

  /// A monotone LOWER BOUND on the current value — the sanctioned read
  /// for the multi-counter predicate plane (core/multi.hpp): because
  /// the value only rises, a stale read is conservative, so trigger
  /// levels computed from it can only make a waiter re-check early,
  /// never miss a wakeup.  On a poisoned counter this is the frozen
  /// value.  Unlike debug_value() this is a documented part of the
  /// predicate-wait surface, not a test-only probe — but branching on
  /// it for control flow outside trigger computation reintroduces the
  /// races the no-probe rule exists to prevent.
  counter_value_t value_lower_bound() const {
    if (poisoned_.load(std::memory_order_acquire)) {
      return frozen_;  // stable after the release-store of poisoned_
    }
    if constexpr (kLockFreeFastPath) {
      return plane_.read_fast();
    } else {
      std::scoped_lock lock(m_);
      return plane_.read_locked();
    }
  }

  /// Number of value-plane stripes (1 for unsharded planes).
  std::size_t stripe_count() const noexcept { return plane_.stripe_count(); }

  /// Structural statistics since construction (or stats_reset()).
  /// Lock-free planes tally fast-path Increments themselves, so
  /// `fast_path_increments` is the plane's tally and `increments` adds
  /// it to the slow-path and zero-amount count kept in CounterStats.
  /// `increments` and `fast_path_increments` also restart at Reset().
  CounterStatsSnapshot stats() const noexcept {
    CounterStatsSnapshot s = stats_.snapshot();
    if constexpr (kLockFreeFastPath) {
      s.fast_path_increments = plane_.fast_increments();
      s.increments += s.fast_path_increments;
    }
    return s;
  }
  void stats_reset() noexcept {
    stats_.reset();
    if constexpr (kLockFreeFastPath) plane_.reset_tally();
  }

 private:
  using Signal = typename Policy::Signal;
  using List = WaitList<Signal, Env>;
  using Node = typename List::Node;
  /// The callback list over THIS engine's environment, so its
  /// allocations hit the same Env::alloc_point fault hook as wait
  /// nodes.  (The file-scope CallbackList alias is the RealEngineEnv
  /// instantiation.)
  using Callbacks = CallbackListT<Env>;

  // Requires m_ (meaningless for locking planes, whose value is only
  // ever read under m_ anyway).  frozen_ is authoritative once
  // poisoned: the lock-free plane may have drifted past the freeze.
  counter_value_t value_locked() const {
    if (poisoned_.load(std::memory_order_relaxed)) return frozen_;
    return plane_.read_locked();
  }

  // Reduces a monotone predicate to its exact threshold: the least L
  // in [0, kMaxValue] with pred(L), found by galloping then binary
  // search — O(log V) evaluations, no counter state read (the search
  // is over the VALUE DOMAIN, not the current value, so it cannot race
  // anything).  An unsatisfiable predicate is a checked usage error.
  template <typename Pred>
  counter_value_t predicate_level(Pred& pred) {
    stats_.on_predicate_check();
    Env::point(SchedulePoint::kPredicateEval);
    if (pred(counter_value_t{0})) return 0;
    MC_REQUIRE(pred(kMaxValue),
               "Check(pred): predicate is false at the maximum counter "
               "value, so it can never be signalled (is it monotone?)");
    // Invariant: !pred(lo) && pred(hi).  Gallop hi up, then bisect.
    counter_value_t lo = 0;
    counter_value_t hi = 1;
    while (hi < kMaxValue && !pred(hi)) {
      lo = hi;
      hi = hi <= kMaxValue / 2 ? hi * 2 : kMaxValue;
    }
    while (hi - lo > 1) {
      const counter_value_t mid = lo + (hi - lo) / 2;
      if (pred(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    return hi;
  }

  // Requires m_.  Returns true when the caller should return success
  // (level at or below the frozen value); throws when the level can
  // never be reached; returns false on a healthy counter.
  bool check_poisoned_locked(counter_value_t level) {
    if (!poisoned_.load(std::memory_order_relaxed)) return false;
    if (frozen_ >= level) {
      stats_.on_fast_check();
      return true;
    }
    throw_poisoned(level);
  }

  // Requires poisoned_ observed true (under m_ or via acquire load):
  // frozen_ / poison_reason_ / poison_cause_ are immutable from the
  // release-store of poisoned_ until a (non-concurrent) Reset.
  [[noreturn]] void throw_poisoned(counter_value_t level) const {
    throw CounterPoisonedError(
        poison_reason_ + ": Check(" + std::to_string(level) +
            ") can never complete, value frozen at " + std::to_string(frozen_),
        poison_cause_);
  }

  // Same precondition as throw_poisoned.  The exception delivered to
  // OnReach error callbacks: the producer's own exception when there is
  // one, a synthesized CounterPoisonedError otherwise.
  std::exception_ptr poison_cause_or_error() const {
    if (poison_cause_) return poison_cause_;
    return std::make_exception_ptr(CounterPoisonedError(poison_reason_));
  }

  void poison_impl(std::exception_ptr cause, std::string_view reason) {
    Env::point(SchedulePoint::kPoison);
    typename Callbacks::Node* orphaned = nullptr;
    std::exception_ptr delivered;
    {
      std::unique_lock lock(m_);
      if (poisoned_.load(std::memory_order_relaxed)) return;  // first wins
      frozen_ = value_locked();
      poison_cause_ = std::move(cause);
      poison_reason_ = std::string(reason);
      // Release-store AFTER the freeze state is in place: an acquire
      // load of poisoned_ licenses lock-free reads of frozen_ & co.
      poisoned_.store(true, std::memory_order_release);
      if constexpr (kLockFreeFastPath) {
        // Pin the plane closed (never rearmed again — see
        // rearm_locked) so in-flight incrementers that passed the
        // poison pre-check drain through the locked slow path instead
        // of racing the frozen value on the fast one.
        plane_.pin();
      }
      stats_.on_poison();
      const bool had_waiters = !list_.empty();
      list_.abort_all([&](Node& node) { policy_.on_release(node, stats_); });
      // Mirror Increment's release sequence: policies whose wake lives
      // in the increment hooks rather than on_release (SingleCvWait's
      // shared-cv broadcast) must fire here too, or poisoned waiters
      // sleep forever.
      policy_.on_increment_locked(had_waiters, stats_);
      orphaned = callbacks_.detach_all();
      if (orphaned != nullptr) delivered = poison_cause_or_error();
      // Gate-blocked waiters must observe the poison too: abort_all
      // freed every level, and even if it hadn't, their next admission
      // re-check throws/returns per the frozen value.
      notify_capacity_locked();
      // Degraded pollers likewise: poison settles every level, so wake
      // them all (kNoDegradedFloor compares >= any published floor).
      notify_degraded_locked(kNoDegradedFloor);
    }
    policy_.on_increment_unlocked(false);
    complete_chain_error(orphaned, delivered);
  }

  // ---- Async completion plane (completion.hpp) ---------------------

  // Delivers a detached reached-callback chain: inline on this thread
  // when no executor is configured (bit-for-bit the pre-executor
  // semantics), else posted to the executor — the incrementer's cost
  // returns to O(detach) no matter how slow the callbacks are.  The
  // chain is already unlinked from the counter, so the posted closure
  // owns it outright; run_chain frees the nodes either way.
  void complete_chain(typename Callbacks::Node* chain) {
    if (chain == nullptr) return;
    if (options_.completion_executor == nullptr) {
      Callbacks::run_chain(chain);
      return;
    }
    Env::point(SchedulePoint::kCompletionEnqueue);
    stats_.on_async_completion();
    options_.completion_executor->post(
        [chain] { Callbacks::run_chain(chain); });
  }

  // Single-callback variant for OnReach's already-reached (or already-
  // poisoned) immediate fire: with an executor configured even the
  // immediate path posts, so callbacks observe ONE delivery context —
  // never "sometimes the registering thread, sometimes a pool thread".
  void complete_one(std::function<void()> work) {
    if (options_.completion_executor == nullptr) {
      work();
      return;
    }
    Env::point(SchedulePoint::kCompletionEnqueue);
    stats_.on_async_completion();
    options_.completion_executor->post(std::move(work));
  }

  // Poison-delivery analogue: error callbacks ride the same queue, so
  // an executor-configured counter delivers CounterPoisonedError
  // asynchronously too (and resumes awaiting coroutines there).
  void complete_chain_error(typename Callbacks::Node* chain,
                            std::exception_ptr cause) {
    if (chain == nullptr) return;
    if (options_.completion_executor == nullptr) {
      Callbacks::run_chain_error(chain, cause);
      return;
    }
    Env::point(SchedulePoint::kCompletionEnqueue);
    stats_.on_async_completion();
    options_.completion_executor->post([chain, cause = std::move(cause)] {
      Callbacks::run_chain_error(chain, cause);
    });
  }

  // Lock-free planes only; requires m_.  Publishes intent to sleep (or
  // to register a callback) by arming the plane for `level`, then
  // re-checks the collapsed value: any Increment that races past the
  // arming either sees the armed plane (and will queue behind m_) or
  // happened before our re-read (and we see its value).  Returns true
  // when the caller should proceed to park/register; false when the
  // level turned out to be reached already.
  bool announce_waiter_locked(counter_value_t level) {
    Env::point(SchedulePoint::kArm);
    policy_.on_publish(level, stats_);
    if (plane_.arm(level) >= level) {
      rearm_locked();
      return false;
    }
    return true;
  }

  // Lock-free planes only; requires m_.  Recomputes the lowest armed
  // level from the (ascending) wait and callback lists and hands it to
  // the plane: the word plane reopens its fast path when nothing is
  // armed; the striped plane raises its watermark so increments below
  // the remaining waiters go back to skipping the mutex.  A poisoned
  // counter stays pinned forever: the fast path must stay closed so
  // frozen_ (not the drifted plane) decides everything.
  void rearm_locked() {
    Env::point(SchedulePoint::kRearm);
    if (poisoned_.load(std::memory_order_relaxed)) return;
    const counter_value_t lowest =
        std::min(list_.min_level(), callbacks_.min_level());
    plane_.rearm(lowest);
    policy_.on_watermark(lowest, stats_);
  }

  // Lock-free planes only; requires m_.  Collapses the plane, releases
  // every reached wait node, detaches reached callbacks (run them
  // after unlocking).
  typename Callbacks::Node* release_reached_locked() {
    Env::point(SchedulePoint::kCollapse);
    const counter_value_t value = plane_.collapse();
    const bool had_waiters = !list_.empty();
    list_.release_prefix(
        value, [&](Node& node) { policy_.on_release(node, stats_); });
    policy_.on_increment_locked(had_waiters, stats_);
    typename Callbacks::Node* reached = callbacks_.detach_reached(value);
    rearm_locked();
    notify_capacity_locked();  // released levels freed admission room
    notify_degraded_locked(value);
    return reached;
  }

  // ---- Resource model: admission, degraded waits, typed allocation --

  /// Outcome of the admission check a would-be waiter runs before it
  /// may acquire a wait node (see the resource-model note up top).
  enum class Admit : std::uint8_t {
    kProceed,    ///< capacity available: acquire a node and park
    kDegrade,    ///< kSpinFallback: run the allocation-free poll wait
    kSatisfied,  ///< level reached (or frozen at/above it) while gated
    kTimedOut,   ///< gate wait exhausted the caller's deadline
    kCancelled,  ///< gate wait observed the caller's stop token
  };

  // Requires m_, counter healthy, level unreached (and, on lock-free
  // planes, the plane armed for it).  Enforces max_waiters/max_levels
  // per the configured OverloadPolicy.  kThrow restores the armed
  // watermark and rejects — the counter is untouched.  kSpinFallback
  // hands the caller to degraded_wait_locked.  kBlockIncrementers naps
  // on the gate (m_ released) until capacity frees; each wake re-runs
  // the poison / value / stop / deadline checks a parked waiter would,
  // so a gated thread can never be stranded.  Deadline- or stop-aware
  // callers pass those in; the gate then sleeps in bounded quanta so
  // neither can be slept through.
  Admit admit_locked(std::unique_lock<typename Env::Mutex>& lock,
                     counter_value_t level,
                     const std::chrono::steady_clock::time_point* deadline,
                     const std::stop_token* stop) {
    if (!list_.bounded()) return Admit::kProceed;
    bool counted = false;
    while (list_.admission_would_exceed(level)) {
      switch (options_.overload_policy) {
        case OverloadPolicy::kThrow:
          stats_.on_overload_rejection();
          if constexpr (kLockFreeFastPath) rearm_locked();
          throw CounterOverloadedError(
              "counter overloaded: Check(" + std::to_string(level) +
              ") rejected by admission control (waiters=" +
              std::to_string(list_.waiter_count()) +
              ", levels=" + std::to_string(list_.live_level_count()) + ")");
        case OverloadPolicy::kSpinFallback:
          stats_.on_overload_rejection();
          return Admit::kDegrade;
        case OverloadPolicy::kBlockIncrementers: {
          if (!counted) {  // once per gated entry, not per gate wake
            stats_.on_overload_rejection();
            counted = true;
          }
          if (deadline == nullptr && stop == nullptr) {
            gate_.wait(lock);
          } else {
            // Bounded nap: the gate has no per-caller wake channel for
            // stop tokens, and a deadline must cut the sleep short.
            auto until = Env::Clock::now() + std::chrono::milliseconds(1);
            if (deadline != nullptr) until = std::min(until, *deadline);
            gate_.wait_until(lock, until);
          }
          if (check_poisoned_locked(level)) return Admit::kSatisfied;
          if (collapse_locked() >= level) return Admit::kSatisfied;
          if (stop != nullptr && stop->stop_requested()) {
            return Admit::kCancelled;
          }
          if (deadline != nullptr && Env::Clock::now() >= *deadline) {
            return Admit::kTimedOut;
          }
          break;
        }
      }
    }
    return Admit::kProceed;
  }

  // kSpinFallback degraded wait: the waiter was refused a wait node, so
  // it polls the collapsed value instead.  No allocation and no
  // wait-list presence, so overload cannot cascade into more overload.
  // Poison, deadlines and stop tokens stay live because every probe
  // runs the same checks a parked waiter runs on wake.
  //
  // Probe pacing is two-phase.  The first kDegradedSpinProbes probes
  // relock m_ with the environment spinner in between (pause-only) — a
  // waiter turned away during a momentary burst still wakes in
  // microseconds.  After that, each probe naps on the capacity gate
  // with the nap doubling from kDegradedNapFloor up to kDegradedNapCap,
  // clamped to the caller's deadline.  A fixed sub-millisecond probe
  // interval here is the E12 storm pathology: 10k degraded waiters
  // each relocking the engine mutex every ~100µs is ~10^8 lock
  // round-trips per second demanded of the machine, and every probe
  // also evicts the line the incrementers need — the degraded plan
  // costs 170x the kThrow plan it is supposed to undercut.  The gate
  // nap keeps the probe budget O(waiters / cap) per second, and the
  // gate (not a raw sleep) keeps the sim deterministic and the mutex
  // released while napping.
  //
  // Naps are not the wake path, only the fallback: a napping poller
  // registers itself (degraded_pollers_ / degraded_floor_) and the
  // increment and poison slow paths broadcast the gate the moment the
  // collapsed value crosses the lowest registered level — see
  // notify_degraded_locked.  That is what lets the cap sit at 250ms
  // (a probe budget of O(waiters/cap) ≈ 4/s each) without costing
  // 250ms of exit latency: under overload the wake is a notify, and
  // the cap-paced poll only covers value crossings no slow pass
  // observed.
  //
  // Returns true when the level was reached, false on deadline/stop
  // (the caller bumps the corresponding stat); throws on poison below
  // the level.
  bool degraded_wait_locked(std::unique_lock<typename Env::Mutex>& lock,
                            counter_value_t level,
                            const std::chrono::steady_clock::time_point*
                                deadline,
                            const std::stop_token* stop) {
    stats_.on_degraded_wait();
    // Registration: counted in on entry, counted out on every exit
    // (returns and the poison throw all unwind with m_ held).  The
    // last poller out resets the floor so a dead registration can
    // never keep increments off the fast path or trigger broadcasts.
    degraded_pollers_.store(
        degraded_pollers_.load(std::memory_order_relaxed) + 1);
    struct PollerScope {
      BasicCounter& c;
      ~PollerScope() {
        const std::size_t left =
            c.degraded_pollers_.load(std::memory_order_relaxed) - 1;
        c.degraded_pollers_.store(left);
        if (left == 0) c.degraded_floor_ = kNoDegradedFloor;
      }
    } scope{*this};
    typename Env::SpinWaiter spinner;
    std::chrono::nanoseconds nap{0};
    for (;;) {
      if (check_poisoned_locked(level)) return true;
      if (collapse_locked() >= level) return true;
      if (stop != nullptr && stop->stop_requested()) return false;
      if (deadline != nullptr && Env::Clock::now() >= *deadline) return false;
      if (spinner.spins() < detail::kDegradedSpinProbes) {
        lock.unlock();
        spinner.once();
        lock.lock();
      } else {
        nap = nap.count() == 0
                  ? std::chrono::nanoseconds(detail::kDegradedNapFloor)
                  : std::min<std::chrono::nanoseconds>(
                        nap * 2, detail::kDegradedNapCap);
        auto until = Env::Clock::now() + nap;
        if (deadline != nullptr) {
          until = std::min(until, *deadline);
        }
        // Publish the level the wake broadcast must cover.  Re-done
        // before every nap because the broadcast consumes the floor:
        // a poller the wake did not satisfy re-tightens it here.
        degraded_floor_ = std::min(degraded_floor_, level);
        // Gate wakes NOT aimed at us (capacity notifications for
        // kBlockIncrementers waiters) just cost one early probe; the
        // nap length is retained, not reset, so backoff still holds.
        gate_.wait_until(lock, until);
      }
    }
  }

  // Requires m_.  WaitList::acquire with its strong guarantee surfaced
  // through the engine's error taxonomy: on bad_alloc (real or injected
  // at Env::alloc_point) the watermark the caller armed is restored and
  // the failure rethrown typed — the counter is exactly as it was and
  // stays fully usable.
  Node* acquire_node_locked(counter_value_t level) {
    try {
      return list_.acquire(level);
    } catch (const std::bad_alloc&) {
      if constexpr (kLockFreeFastPath) rearm_locked();
      throw CounterResourceError(
          "counter wait-node allocation failed: Check(" +
          std::to_string(level) + ") aborted, counter state unchanged");
    }
  }

  // Requires m_.  The linearized value, whatever the plane.
  counter_value_t collapse_locked() {
    if constexpr (kLockFreeFastPath) {
      return plane_.collapse();
    } else {
      return plane_.read_locked();
    }
  }

  // Requires m_.  Wakes gate-blocked waiters after a transition that
  // can free admission capacity (a waiter left, released/aborted levels
  // were unlinked).  No-op unless the blocking policy is configured.
  void notify_capacity_locked() {
    if (list_.bounded() &&
        options_.overload_policy == OverloadPolicy::kBlockIncrementers) {
      gate_.notify_all();
    }
  }

  // Requires m_.  Wakes degraded pollers once the collapsed value (or
  // the poison freeze) reaches the lowest level any of them waits for.
  // The floor is CONSUMED by the broadcast: pollers the wake does not
  // satisfy re-publish their level before the next nap, so a value
  // crossing costs one broadcast total — not one per later increment
  // against a stale floor.  No-op (one relaxed load) while nobody is
  // degraded, i.e. always, outside an overload.
  void notify_degraded_locked(counter_value_t value) {
    if (degraded_pollers_.load(std::memory_order_relaxed) == 0) return;
    if (value < degraded_floor_) return;
    degraded_floor_ = kNoDegradedFloor;
    gate_.notify_all();
  }

  void park(std::unique_lock<typename Env::Mutex>& lock,
            counter_value_t level) {
    switch (admit_locked(lock, level, nullptr, nullptr)) {
      case Admit::kSatisfied:
        if constexpr (kLockFreeFastPath) rearm_locked();
        return;
      case Admit::kDegrade:
        // No deadline, no stop: the degraded wait returns only on
        // success (or throws on poison).
        degraded_wait_locked(lock, level, nullptr, nullptr);
        if constexpr (kLockFreeFastPath) rearm_locked();
        return;
      case Admit::kTimedOut:
      case Admit::kCancelled:
        MC_ASSERT(false, "timed/cancel outcome from an untimed admission");
        return;
      case Admit::kProceed:
        break;
    }
    Node* node = acquire_node_locked(level);
    stats_.on_suspend();
    if (options_.stall_report_after.count() > 0) {
      wait_with_watchdog(lock, *node, level);
    } else {
      policy_.wait(lock, *node, stats_);
    }
    stats_.on_resume();
    const bool aborted = node->aborted;
    list_.leave(node);
    notify_capacity_locked();
    if constexpr (kLockFreeFastPath) rearm_locked();
    if (aborted) throw_poisoned(level);
  }

  // Untimed park with the stall watchdog armed: sleep in stall-sized
  // quanta; each elapsed quantum with the node still unreleased builds
  // a CounterStallReport under the lock and delivers it outside (the
  // sink may log, allocate, or poke other counters).  Our wait-list
  // registration is still outstanding across the unlocked window, so
  // the node cannot be freed; `released` is re-read after relocking.
  //
  // The report deadline is computed ONCE per wait (started + interval)
  // and advanced by exactly one interval per delivered report — never
  // re-derived from now() inside the loop.  Re-deriving it would let
  // anything that makes wait_until return early without a release (an
  // early policy return, a slow on_stall sink eating wall-clock before
  // the next quantum is armed) push the next report deadline out
  // again, postponing the first report indefinitely and letting the
  // cadence drift by the sink's own latency; a fixed schedule keeps
  // report N at started + N*interval.  (Found/covered by the sim
  // harness's watchdog_cadence scenario.)
  void wait_with_watchdog(std::unique_lock<typename Env::Mutex>& lock,
                          Node& node, counter_value_t level) {
    const auto started = Env::Clock::now();
    auto report_at = started + options_.stall_report_after;
    while (!node.released) {
      if (policy_.wait_until(lock, node, report_at, stats_)) return;
      if (node.released) return;
      if (Env::Clock::now() < report_at) continue;  // early return, no stall
      Env::point(SchedulePoint::kStall);
      CounterStallReport report;
      report.value = value_locked();
      report.level = level;
      report.waited = std::chrono::duration_cast<std::chrono::milliseconds>(
          Env::Clock::now() - started);
      list_.snapshot_into(report.wait_levels);
      stats_.on_stall_report();
      lock.unlock();
      deliver_stall(report);
      lock.lock();
      report_at += options_.stall_report_after;
    }
  }

  void deliver_stall(const CounterStallReport& report) const {
    if (options_.on_stall) {
      options_.on_stall(report);
      return;
    }
    std::fprintf(stderr,
                 "monotonic: counter stall: Check(%llu) parked %lld ms at "
                 "value %llu with %zu live wait level(s)\n",
                 static_cast<unsigned long long>(report.level),
                 static_cast<long long>(report.waited.count()),
                 static_cast<unsigned long long>(report.value),
                 report.wait_levels.size());
  }

  bool check_until_steady(counter_value_t level,
                          std::chrono::steady_clock::time_point deadline) {
    stats_.on_check();
    Env::point(SchedulePoint::kCheck);
    std::unique_lock<typename Env::Mutex> lock(m_, std::defer_lock);
    if constexpr (kLockFreeFastPath) {
      MC_REQUIRE(level <= kMaxValue, "level exceeds counter range");
      if (plane_.read_fast() >= level &&
          !poisoned_.load(std::memory_order_acquire)) {
        stats_.on_fast_check();
        return true;
      }
      lock.lock();
      if (check_poisoned_locked(level)) return true;
      if (!announce_waiter_locked(level)) {
        stats_.on_fast_check();
        return true;
      }
    } else {
      lock.lock();
      if (check_poisoned_locked(level)) return true;
      if (plane_.read_locked() >= level) {
        stats_.on_fast_check();
        return true;
      }
    }
    // Zero or already-expired deadline: a pure reached-yet probe.  Skip
    // the wait-node acquire entirely — no node churn, no policy sleep.
    if (Env::Clock::now() >= deadline) {
      if constexpr (kLockFreeFastPath) rearm_locked();
      stats_.on_timed_out_check();
      return false;
    }
    switch (admit_locked(lock, level, &deadline, nullptr)) {
      case Admit::kSatisfied:
        if constexpr (kLockFreeFastPath) rearm_locked();
        return true;
      case Admit::kDegrade: {
        const bool reached = degraded_wait_locked(lock, level, &deadline,
                                                  nullptr);
        if constexpr (kLockFreeFastPath) rearm_locked();
        if (!reached) stats_.on_timed_out_check();
        return reached;
      }
      case Admit::kTimedOut:
        if constexpr (kLockFreeFastPath) rearm_locked();
        stats_.on_timed_out_check();
        return false;
      case Admit::kCancelled:
        MC_ASSERT(false, "cancel outcome from an uncancellable admission");
        return false;
      case Admit::kProceed:
        break;
    }
    Node* node = acquire_node_locked(level);
    stats_.on_suspend();
    const bool reached = policy_.wait_until(lock, *node, deadline, stats_);
    stats_.on_resume();
    const bool aborted = node->aborted;
    list_.leave(node);
    notify_capacity_locked();
    if constexpr (kLockFreeFastPath) rearm_locked();
    if (aborted) throw_poisoned(level);
    // Timed-out vs reached is decided HERE, once, from the policy's
    // return — never inside the policy as well.  A spurious wake landing
    // just before the deadline makes some policies' wait_until return
    // through the timeout arm after the engine already observed the
    // wake; a second accounting site would double-count it (pinned by
    // the fault harness's spurious_wake_timed_stats scenario).
    if (!reached) stats_.on_timed_out_check();
    return reached;
  }

  const Options options_;
  CounterStats stats_;  // declared before plane_/list_ (they reference it)
  mutable typename Env::Mutex m_;
  Plane plane_;  // the value plane (value_plane.hpp / striped_cells.hpp)
  [[no_unique_address]] Policy policy_;
  List list_;
  Callbacks callbacks_;
  // Admission gate for OverloadPolicy::kBlockIncrementers: over-cap
  // waiters nap here (m_ released) until capacity frees — woken by
  // leave/release/abort transitions via notify_capacity_locked.
  // kSpinFallback degraded pollers nap on the same gate, woken by
  // value/poison transitions via notify_degraded_locked.
  typename Env::CondVar gate_;

  // Degraded-poller wake state (kSpinFallback).  degraded_pollers_
  // counts waiters currently inside degraded_wait_locked;
  // degraded_floor_ is the lowest level any napping poller has
  // published (kNoDegradedFloor when none).  Both are written only
  // under m_; the counter is atomic solely so the lock-free Increment
  // fast path can ask "anyone degraded?" without taking the lock.
  static constexpr counter_value_t kNoDegradedFloor =
      std::numeric_limits<counter_value_t>::max();
  typename Env::template Atomic<std::size_t> degraded_pollers_{0};
  counter_value_t degraded_floor_ = kNoDegradedFloor;

  // Poison state.  The three payload fields are written under m_
  // strictly before the release-store of poisoned_ and never mutated
  // again (Reset excepted, which is documented non-concurrent), so an
  // acquire load of poisoned_ licenses reading them without the lock.
  typename Env::template Atomic<bool> poisoned_{false};
  counter_value_t frozen_ = 0;
  std::exception_ptr poison_cause_;
  std::string poison_reason_;

  // Keeps each counter in the glibc malloc size class it had before the
  // Increment tallies moved into the value plane (CounterStats gave up
  // 24 bytes, the word plane took 8).  Servers allocate one counter per
  // name, and their heap is sensitive to that class: 16 bytes smaller,
  // HybridCounter raised perfbench durable_write peak RSS by 4.4 MB and
  // inproc set-up time by ~15%; 8 or 16 bytes larger, both rose too.
  [[maybe_unused]] std::byte reserved_[16]{};
};

}  // namespace monotonic
