// shared_counter_test.cpp — cross-process counters and death recovery.
//
// The suite that actually crosses process boundaries: every MultiProcess
// and death test forks real children over a real shm segment, because
// the property under test — "a SIGKILLed participant never leaves any
// waiter in any process parked" — cannot be faked with threads.
//
// Kill injection reuses the Env seam: KillEnv forwards every primitive
// to SharedRealEnv but raises SIGKILL against the child's own pid on
// the Nth visit to a chosen SchedulePoint, so the seed-swept test walks
// the death through each window of the increment protocol (slot claim,
// in-flight raise, publish, wake, sweep).  The segment layout is
// env-independent, so KillEnv children interoperate with the parent's
// plain SharedCounter on the same segment.
//
// Clean-detach discipline: a child that wants to exit WITHOUT poisoning
// the counter must destroy its handle first (the destructor releases
// the registration slot).  _exit() with a live handle is an unclean
// death by definition — that is the contract, not a test artifact.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/counter_error.hpp"
#include "monotonic/core/shared_counter.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace monotonic {
namespace {

using namespace std::chrono_literals;

/// A level no test ever reaches: parks a waiter until poison/recovery.
constexpr counter_value_t kNever = 1'000'000'000;

/// Fast-detection options so death tests converge in milliseconds.
SharedCounterOptions fast_detect() {
  SharedCounterOptions opt;
  opt.detect_period = 25ms;
  return opt;
}

std::string unique_name(const char* tag) {
  static std::atomic<int> serial{0};
  return std::string("/mc-") + tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(serial.fetch_add(1));
}

/// RAII unlink so a failed test does not leak its segment into the
/// next run (shm names persist until unlinked or reboot).
struct ScopedName {
  std::string name;
  explicit ScopedName(const char* tag) : name(unique_name(tag)) {
    SharedCounter::Unlink(name);
  }
  ~ScopedName() { SharedCounter::Unlink(name); }
};

/// Forks, runs `fn` in the child, and _exit()s with its return value
/// (99 on exception).  The child must not return to gtest.
template <typename Fn>
pid_t spawn_child(Fn&& fn) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 99;
    try {
      code = fn();
    } catch (...) {
    }
    ::_exit(code);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  return pid;
}

/// Reaps the child and returns its raw waitpid status.
int wait_child(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

/// The kill-injecting environment: SharedRealEnv plus a SIGKILL tripwire
/// on the Nth visit to one schedule point.  Static config is fine — it
/// is set after fork(), in the child, before the counter is opened.
struct KillEnv {
  static inline SchedulePoint kill_at = SchedulePoint::kSharedPublish;
  static inline std::atomic<int> countdown{-1};  ///< <0 disarms

  static void arm(SchedulePoint point, int skip) {
    kill_at = point;
    countdown.store(skip, std::memory_order_relaxed);
  }

  static void point(SchedulePoint p) noexcept {
    if (p != kill_at) return;
    if (countdown.fetch_sub(1, std::memory_order_relaxed) == 0) {
      ::kill(::getpid(), SIGKILL);
    }
  }
  static std::uint32_t pid() noexcept { return SharedRealEnv::pid(); }
  static bool process_alive(std::uint32_t p) noexcept {
    return SharedRealEnv::process_alive(p);
  }
  static std::uint64_t now_ns() noexcept { return SharedRealEnv::now_ns(); }
  static bool futex_wait_until(std::atomic<std::uint32_t>* a, std::uint32_t e,
                               std::chrono::steady_clock::time_point d) {
    return SharedRealEnv::futex_wait_until(a, e, d);
  }
  static void futex_wake_all(std::atomic<std::uint32_t>* a) {
    SharedRealEnv::futex_wake_all(a);
  }
};

PoisonCause cause_of(const std::function<void()>& op) {
  try {
    op();
  } catch (const CounterPoisonedError& e) {
    return e.poison_cause();
  }
  ADD_FAILURE() << "operation did not throw CounterPoisonedError";
  return PoisonCause::kExplicit;
}

// ---------------------------------------------------------------------
// Single-process basics (two handles on one segment).

TEST(SharedCounterBasics, TwoHandlesShareOneValuePlane) {
  ScopedName n("basics");
  auto a = SharedCounter::Create(n.name);
  auto b = SharedCounter::Open(n.name);
  a.Increment(2);
  b.Increment(3);
  a.Check(5);
  b.Check(5);
  EXPECT_EQ(a.debug_value(), 5u);
  EXPECT_EQ(b.debug_value(), 5u);
  EXPECT_EQ(a.stats().epoch, 1u);
  EXPECT_FALSE(a.CheckFor(6, 1ms));
}

TEST(SharedCounterBasics, CreateOnLiveNameThrowsOpenOrCreateAttaches) {
  ScopedName n("modes");
  auto a = SharedCounter::Create(n.name);
  a.Increment();
  EXPECT_THROW((void)SharedCounter::Create(n.name), std::invalid_argument);
  auto b = SharedCounter::OpenOrCreate(n.name);
  EXPECT_EQ(b.debug_value(), 1u);
}

TEST(SharedCounterBasics, OpenOfMissingNameThrows) {
  EXPECT_THROW((void)SharedCounter::Open("/mc-no-such-segment-xyzzy"),
               std::invalid_argument);
}

TEST(SharedCounterBasics, MalformedNamesAreRejectedAtTheApiToo) {
  EXPECT_THROW((void)SharedCounter::Create(""), std::invalid_argument);
  EXPECT_THROW((void)SharedCounter::Create("nope"), std::invalid_argument);
  EXPECT_THROW((void)SharedCounter::Create("/"), std::invalid_argument);
  EXPECT_THROW((void)SharedCounter::Create("/a/b"), std::invalid_argument);
  EXPECT_THROW((void)SharedCounter::Create("/" + std::string(300, 'x')),
               std::invalid_argument);
}

TEST(SharedCounterBasics, StopTokenCancelsAParkedWait) {
  ScopedName n("cancel");
  auto c = SharedCounter::Create(n.name, fast_detect());
  std::stop_source stop;
  std::atomic<bool> result{true};
  std::jthread waiter(
      [&] { result.store(c.Check(kNever, stop.get_token())); });
  std::this_thread::sleep_for(20ms);
  stop.request_stop();
  waiter.join();
  EXPECT_FALSE(result.load());
  EXPECT_GE(c.stats().cancelled_checks, 1u);
}

TEST(SharedCounterBasics, OnReachFiresAcrossHandles) {
  ScopedName n("onreach");
  auto a = SharedCounter::Create(n.name, fast_detect());
  auto b = SharedCounter::Open(n.name);
  std::atomic<bool> fired{false};
  a.OnReach(3, [&] { fired.store(true); });
  b.Increment(3);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!fired.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(fired.load());
}

TEST(SharedCounterBasics, ReachedLevelsSucceedEvenAfterPoison) {
  ScopedName n("frozen");
  auto c = SharedCounter::Create(n.name);
  c.Increment(5);
  c.Poison(std::string_view("stop"));
  c.Check(5);  // already-covered levels still succeed — that work happened
  EXPECT_EQ(cause_of([&] { c.Check(6); }), PoisonCause::kExplicit);
  c.Increment();  // counted drop, not a throw
  EXPECT_GE(c.stats().dropped_increments, 1u);
}

// Increment counts each call on exactly one branch (fast, notify,
// dropped or superseded), and stats() sums the branches.
TEST(SharedCounterBasics, IncrementsSumTheirExclusiveBranches) {
  ScopedName n("tally");
  auto c = SharedCounter::Create(n.name);
  std::jthread waiter([&] { c.Check(4); });
  for (int i = 0; i < 3; ++i) c.Increment();
  while (c.stats().suspensions == 0) std::this_thread::sleep_for(1ms);
  c.Increment();  // releases the waiter
  waiter.join();
  auto s = c.stats();
  EXPECT_EQ(s.increments, 4u);
  EXPECT_EQ(s.fast_path_increments + s.notifies, 4u);

  c.Poison(std::string_view("stop"));
  c.Increment();  // dropped
  s = c.stats();
  EXPECT_EQ(s.dropped_increments, 1u);
  EXPECT_EQ(s.increments, 5u);

  auto fresh = SharedCounter::Create(n.name);  // supersedes c's epoch
  EXPECT_EQ(cause_of([&] { c.Increment(); }), PoisonCause::kEpochSuperseded);
  EXPECT_EQ(c.stats().increments, 6u);

  c.stats_reset();
  s = c.stats();
  EXPECT_EQ(s.increments, 0u);
  EXPECT_EQ(s.fast_path_increments, 0u);
}

// ---------------------------------------------------------------------
// Multi-process behavior.

TEST(SharedCounterMultiProcess, ChildIncrementsReleaseParentWaiter) {
  ScopedName n("handoff");
  auto parent = SharedCounter::Create(n.name, fast_detect());
  const pid_t child = spawn_child([&]() -> int {
    auto c = SharedCounter::Open(n.name);
    for (int i = 0; i < 1000; ++i) c.Increment();
    return 0;  // handle destroyed before _exit: clean detach
  });
  parent.Check(1000);  // parked until the child's increments arrive
  EXPECT_EQ(parent.debug_value(), 1000u);
  const int status = wait_child(child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  // Clean detach: no poison, no deaths.
  EXPECT_FALSE(parent.poisoned());
  EXPECT_EQ(parent.stats().participant_deaths, 0u);
}

TEST(SharedCounterMultiProcess, ParentIncrementsReleaseChildWaiter) {
  ScopedName n("handoff2");
  auto parent = SharedCounter::Create(n.name, fast_detect());
  const pid_t child = spawn_child([&]() -> int {
    auto c = SharedCounter::Open(n.name, fast_detect());
    c.Check(500);
    return c.debug_value() >= 500 ? 0 : 1;
  });
  std::this_thread::sleep_for(20ms);  // let the child park
  for (int i = 0; i < 500; ++i) parent.Increment();
  const int status = wait_child(child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "status=" << status;
}

TEST(SharedCounterMultiProcess, ExplicitPoisonCrossesTheProcessBoundary) {
  ScopedName n("xpoison");
  auto parent = SharedCounter::Create(n.name, fast_detect());
  const pid_t child = spawn_child([&]() -> int {
    auto c = SharedCounter::Open(n.name);
    c.Poison(std::string_view("child says stop"));
    return 0;
  });
  // The parent's parked waiter wakes with the EXPLICIT cause — the
  // child detached cleanly, so this must not classify as a death.
  EXPECT_EQ(cause_of([&] { parent.Check(kNever); }), PoisonCause::kExplicit);
  const int status = wait_child(child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(parent.stats().participant_deaths, 0u);
}

// ---------------------------------------------------------------------
// Death detection: the acceptance property.

TEST(SharedCounterDeath, KilledChildWakesEveryParkedWaiter) {
  ScopedName n("death");
  auto parent = SharedCounter::Create(n.name, fast_detect());
  // Two parked waiters — "never leaves ANY waiter parked".
  std::atomic<int> poisoned_waiters{0};
  auto park = [&] {
    if (cause_of([&] { parent.Check(kNever); }) ==
        PoisonCause::kParticipantDied) {
      poisoned_waiters.fetch_add(1);
    }
  };
  std::jthread w1(park), w2(park);
  std::this_thread::sleep_for(20ms);
  const pid_t child = spawn_child([&]() -> int {
    KillEnv::arm(SchedulePoint::kSharedPublish, 2);
    auto c = SharedCounterT<KillEnv>::Open(n.name);
    for (int i = 0; i < 100; ++i) c.Increment();  // killed mid-protocol
    return 1;  // unreachable
  });
  w1.join();
  w2.join();
  EXPECT_EQ(poisoned_waiters.load(), 2);
  const int status = wait_child(child);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  EXPECT_GE(parent.stats().participant_deaths, 1u);
  // A late joiner sees the poison immediately: an unreached level
  // throws before any wait.  (An already-reached level still succeeds
  // — the child published at least one increment before dying, so
  // Check(1) returning is the monotone-success rule, not a bug.)
  auto late = SharedCounter::Open(n.name);
  EXPECT_TRUE(late.poisoned());
  EXPECT_NO_THROW(late.Check(1));
  EXPECT_EQ(cause_of([&] { late.Check(kNever); }),
            PoisonCause::kParticipantDied);
}

// The seed sweep: walk the SIGKILL through every window of the shared
// increment protocol.  Seed → (schedule point, visits to skip); the
// child also self-KILLs after its loop so every seed ends in an unclean
// death even when the armed point is not reached again (e.g. register
// fires once).  MONOTONIC_SHARED_KILL_SEEDS overrides the seed count —
// CI runs 300, the default keeps local runs fast.
TEST(SharedCounterDeath, KillPointSweep) {
  const SchedulePoint points[] = {
      SchedulePoint::kSharedRegister, SchedulePoint::kSharedInflight,
      SchedulePoint::kSharedPublish, SchedulePoint::kSharedWake,
      SchedulePoint::kSharedSweep};
  int seeds = 20;
  if (const char* env = std::getenv("MONOTONIC_SHARED_KILL_SEEDS")) {
    seeds = std::atoi(env);
  }
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SchedulePoint point = points[seed % 5];
    const int skip = (seed / 5) % 7;  // 0..6 visits before the kill
    ScopedName n("sweep");
    auto parent = SharedCounter::Create(n.name, fast_detect());
    const pid_t child = spawn_child([&]() -> int {
      KillEnv::arm(point, skip);
      auto c = SharedCounterT<KillEnv>::Open(n.name, fast_detect());
      for (int i = 0; i < 200; ++i) c.Increment();
      ::kill(::getpid(), SIGKILL);  // backstop: die uncleanly regardless
      return 1;
    });
    EXPECT_EQ(cause_of([&] { parent.Check(kNever); }),
              PoisonCause::kParticipantDied);
    const int status = wait_child(child);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    EXPECT_GE(parent.stats().participant_deaths, 1u);
  }
}

TEST(SharedCounterDeath, RecreateRecoversTheNameWithANewEpoch) {
  ScopedName n("recover");
  auto old_handle = SharedCounter::Create(n.name, fast_detect());
  old_handle.Increment(7);
  const pid_t child = spawn_child([&]() -> int {
    auto c = SharedCounter::Open(n.name);
    c.Increment();
    ::kill(::getpid(), SIGKILL);  // die holding the registration slot
    return 1;
  });
  EXPECT_EQ(cause_of([&] { old_handle.Check(kNever); }),
            PoisonCause::kParticipantDied);
  (void)wait_child(child);

  // Park a waiter on the DOOMED epoch, then recover the name under it.
  std::atomic<bool> superseded{false};
  std::jthread old_waiter([&] {
    // This waiter joins after the poison, so it throws immediately with
    // kParticipantDied — but a recovery may also land first, which
    // yields kEpochSuperseded.  Either way it must not stay parked.
    try {
      old_handle.Check(kNever);
    } catch (const CounterPoisonedError&) {
      superseded.store(true);
    }
  });

  auto fresh = SharedCounter::Create(n.name, fast_detect());
  old_waiter.join();
  EXPECT_TRUE(superseded.load());
  EXPECT_EQ(fresh.stats().epoch, 2u);
  EXPECT_EQ(fresh.debug_value(), 0u);  // new epoch starts clean
  EXPECT_FALSE(fresh.poisoned());
  // Deaths survive recovery: it is a segment-lifetime statistic.
  EXPECT_GE(fresh.stats().participant_deaths, 1u);
  fresh.Increment(3);
  fresh.Check(3);

  // The superseded handle now refuses both operations, naming the epoch.
  EXPECT_EQ(cause_of([&] { old_handle.Check(1); }),
            PoisonCause::kEpochSuperseded);
  EXPECT_EQ(cause_of([&] { old_handle.Increment(); }),
            PoisonCause::kEpochSuperseded);
}

TEST(SharedCounterDeath, StaleHeartbeatBackstopPoisonsWhenEnabled) {
  ScopedName n("stale");
  SharedCounterOptions opt = fast_detect();
  opt.heartbeat_stale_after = 150ms;
  auto parent = SharedCounter::Create(n.name, opt);
  // The child registers (stamping its heartbeat once) and then goes
  // silent while STAYING alive — exactly the state kill(pid,0) cannot
  // flag.  With the opt-in staleness backstop the parent poisons
  // anyway; this is also why the backstop defaults to OFF.
  const pid_t child = spawn_child([&]() -> int {
    auto c = SharedCounter::Open(n.name);
    std::this_thread::sleep_for(30s);  // reaped by SIGKILL below
    return 0;
  });
  EXPECT_EQ(cause_of([&] { parent.Check(kNever); }),
            PoisonCause::kParticipantDied);
  ::kill(child, SIGKILL);
  (void)wait_child(child);
}

TEST(SharedCounterDeath, KillStormWithBystanders) {
  // Several producer children; one dies mid-storm.  The parked parent
  // must observe the poison, and the surviving children must not hang
  // (their Increments become counted drops).
  ScopedName n("storm");
  auto parent = SharedCounter::Create(n.name, fast_detect());
  pid_t children[4];
  for (int i = 0; i < 4; ++i) {
    const bool victim = (i == 2);
    children[i] = spawn_child([&, victim]() -> int {
      if (victim) KillEnv::arm(SchedulePoint::kSharedWake, 50);
      auto c = SharedCounterT<KillEnv>::Open(n.name, fast_detect());
      for (int k = 0; k < 5000; ++k) c.Increment();
      return victim ? 1 : 0;  // victim must not survive its loop
    });
  }
  EXPECT_EQ(cause_of([&] { parent.Check(kNever); }),
            PoisonCause::kParticipantDied);
  int killed = 0, clean = 0;
  for (pid_t child : children) {
    const int status = wait_child(child);
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
      ++killed;
    } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      ++clean;
    }
  }
  EXPECT_EQ(killed, 1);
  EXPECT_EQ(clean, 3);
  EXPECT_GE(parent.stats().participant_deaths, 1u);
}

// ---------------------------------------------------------------------
// Factory-built shared counters behave like directly-built ones.

TEST(SharedCounterFactory, SpecHandleInteroperatesWithDirectHandle) {
  ScopedName n("factory");
  auto direct = SharedCounter::Create(n.name, fast_detect());
  auto erased = make_counter("shared:" + n.name);
  EXPECT_EQ(erased->kind(), CounterKind::kShared);
  erased->Increment(4);
  direct.Check(4);
  direct.Increment(1);
  EXPECT_TRUE(erased->CheckFor(5, std::chrono::nanoseconds(5s)));
  EXPECT_EQ(erased->stats().epoch, 1u);
}

}  // namespace
}  // namespace monotonic
