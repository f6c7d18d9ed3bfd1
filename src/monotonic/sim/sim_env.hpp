// sim_env.hpp — SimEngineEnv: the simulation instantiation of the
// engine-environment trait (core/engine_env.hpp).
//
// Plugging this Env into the wait-engine templates produces counters
// whose every blocking primitive, clock read, atomic and schedule
// point is owned by the active SimRun's seeded scheduler
// (sim_runtime.hpp).  Because the environment is a template parameter,
// sim counters are DISTINCT TYPES from the production aliases — both
// can live in one binary, and production code pays nothing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "monotonic/core/engine_env.hpp"
#include "monotonic/sim/sim_runtime.hpp"

namespace monotonic::sim {

/// Virtual clock.  Reuses steady_clock's time_point type so engine and
/// policy deadline signatures (std::chrono::steady_clock::time_point)
/// need no templating — only the epoch meaning changes: time since the
/// start of the run, advanced exclusively by the scheduler.
struct SimClock {
  using duration = std::chrono::steady_clock::duration;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::steady_clock::time_point;
  static constexpr bool is_steady = true;

  static time_point now() {
    SimRun* run = active_run_ref();
    if (run == nullptr) return std::chrono::steady_clock::now();
    return time_point(std::chrono::duration_cast<duration>(
        std::chrono::nanoseconds(run->now_ns())));
  }
};

inline const char* schedule_point_name(SchedulePoint p) noexcept {
  switch (p) {
    case SchedulePoint::kIncrementFast: return "increment.fast";
    case SchedulePoint::kIncrementSlow: return "increment.slow";
    case SchedulePoint::kCheck: return "check";
    case SchedulePoint::kArm: return "arm";
    case SchedulePoint::kRearm: return "rearm";
    case SchedulePoint::kCollapse: return "collapse";
    case SchedulePoint::kPark: return "park";
    case SchedulePoint::kWake: return "wake";
    case SchedulePoint::kPoison: return "poison";
    case SchedulePoint::kCancel: return "cancel";
    case SchedulePoint::kStall: return "stall";
    // Cross-process points: never reached under simulation (the shared
    // counter runs against real process boundaries only), named so the
    // switch stays exhaustive and kill-sweep logs can print them.
    case SchedulePoint::kSharedRegister: return "shared.register";
    case SchedulePoint::kSharedInflight: return "shared.inflight";
    case SchedulePoint::kSharedPublish: return "shared.publish";
    case SchedulePoint::kSharedWake: return "shared.wake";
    case SchedulePoint::kSharedSweep: return "shared.sweep";
    case SchedulePoint::kPredicateEval: return "predicate.eval";
    case SchedulePoint::kCompletionEnqueue: return "completion.enqueue";
  }
  return "?";
}

/// The simulation environment.  See RealEngineEnv for the contract.
struct SimEngineEnv {
  static constexpr bool kSimulated = true;

  using Mutex = SimMutex;
  using CondVar = SimCondVar;
  using Clock = SimClock;
  template <typename T>
  using Atomic = SimAtomic<T>;
  using SpinWaiter = SimSpinWaiter;
  template <typename F>
  using StopCallback = SimStopCallback<F>;

  /// Engine decision points become scheduler yields.
  static void point(SchedulePoint p) {
    SimRun* run = active_run_ref();
    if (run == nullptr || run->self() == nullptr) return;
    run->yield(schedule_point_name(p));
  }

  /// Allocation fault hook (see engine_env.hpp).  The plain sim env
  /// never fails an allocation; FaultEnvT<SimEngineEnv>
  /// (sim/fault_env.hpp) wraps this with seeded bad_alloc injection.
  static void alloc_point() {}

  /// Stripe slots come from the VIRTUAL thread id, not a process-wide
  /// ticket: the production round-robin ticket grows monotonically
  /// across runs, which would make stripe placement (and therefore
  /// traces) depend on how many runs came before — unreplayable.
  static std::size_t stripe_slot() noexcept {
    VThread* t = self_ref();
    return t != nullptr ? t->id : 0;
  }

  /// Futex channel keyed on the word's address.  The caller (FutexWait
  /// policy) snapshots the word under the engine mutex and unlocks
  /// before calling; the load-and-park below has no schedule point in
  /// between, mirroring the kernel's atomic compare-and-block.
  static void futex_wait(Atomic<std::uint32_t>* addr, std::uint32_t expected) {
    SimRun* run = active_run_ref();
    if (run == nullptr || run->self() == nullptr) return;
    run->yield("futex.wait");
    if (addr->load(std::memory_order_acquire) != expected) return;  // EAGAIN
    run->block_on(BlockKind::kFutex, addr, false, 0);
  }

  /// Returns false iff the wait gave up because the deadline passed.
  static bool futex_wait_until(Atomic<std::uint32_t>* addr,
                               std::uint32_t expected,
                               Clock::time_point deadline) {
    SimRun* run = active_run_ref();
    if (run == nullptr || run->self() == nullptr) return false;
    run->yield("futex.wait_until");
    if (addr->load(std::memory_order_acquire) != expected) return true;
    const std::int64_t deadline_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count();
    if (deadline_ns <= run->now_ns()) return false;
    return !run->block_on(BlockKind::kFutex, addr, true, deadline_ns);
  }

  static void futex_wake_all(Atomic<std::uint32_t>* addr) {
    SimRun* run = active_run_ref();
    if (run == nullptr || run->self() == nullptr || run->aborted()) return;
    run->flush(run->self());
    run->wake_channel(addr);
    run->yield("futex.wake");
  }
};

}  // namespace monotonic::sim
