// shared_counter.hpp — SharedCounter: the monotone counter across
// PROCESS boundaries, with robust-futex-style death recovery.
//
// Everything else in the repo assumes one address space: the poison
// model (PR 2) and the overload policies (PR 5) protect waiters from
// sibling *threads* failing, but a process that dies mid-Increment
// would leave cross-process waiters parked forever — nobody is left in
// the dead process to run its unwind.  SharedCounter closes that gap
// the way robust futexes do for mutexes:
//
//   1. the protocol state lives in a mapped segment no single process
//      owns (shared_segment.hpp) — value word, futex wait word, and a
//      registration table;
//   2. every participating process REGISTERS (claims a slot holding
//      its pid) before touching the counter, and deregisters only on
//      clean detach;
//   3. a DEATH DETECTOR — run by whoever is around: on every wait
//      timeout slice and on a sampled Increment slow path — sweeps the
//      registration table with kill(pid, 0) (and, opt-in, heartbeat
//      staleness as the pid-reuse backstop).  A registered pid that no
//      longer exists did not detach cleanly, so its process died with
//      unknown obligations outstanding — the counter can no longer
//      promise that awaited increments will arrive, and the detector
//      poisons the epoch;
//   4. poisoning bumps the shared futex word and wakes ALL waiters in
//      ALL processes, who classify on the segment's poison code and
//      throw CounterPoisonedError{kParticipantDied}.  Late joiners see
//      the code immediately.  The name is recovered by a fresh
//      Create(), which bumps the epoch; handles from the old epoch
//      observe the mismatch and fail with kEpochSuperseded rather than
//      mixing generations.
//
// There is one semantic asymmetry worth stating: a waiter whose level
// is ALREADY covered by the value succeeds even on a poisoned counter
// — those increments really happened; poison only refuses waits on
// increments that can now never come.  This mirrors BasicCounter.
//
// Why waiters use BOUNDED futex sleeps: a parked waiter cannot rely on
// any other process surviving to run the detector for it.  Sleeping in
// detector-period slices makes every waiter its own detector of last
// resort — the acceptance bound "all waiters observe the poison within
// the detector period" holds even when the dying child was the only
// other participant.
//
// SharedCounterT is a standalone engine rather than a BasicCounter
// instantiation: the in-process wait planes are heap-linked structures
// (wait nodes, callback chains) that cannot live at fixed offsets in a
// mapped segment, and — the ActiveMonitor lesson — we deliberately
// keep the shared state free of anything only its owner could repair.
// A mutex in shared memory would be exactly such a thing; the futex
// generation word, which any survivor can bump, is not.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <new>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "monotonic/core/counter_error.hpp"
#include "monotonic/core/counter_stats.hpp"
#include "monotonic/core/engine_env.hpp"
#include "monotonic/core/shared_segment.hpp"
#include "monotonic/core/wait_list.hpp"
#include "monotonic/support/assert.hpp"
#include "monotonic/support/config.hpp"

#if !defined(_WIN32)
#include <signal.h>
#include <unistd.h>
#endif

#if !defined(_WIN32)

namespace monotonic {

/// The shared counter's environment trait.  Narrower than the engine
/// Env (engine_env.hpp) — no mutex/condvar/stripe machinery, because
/// the shared protocol is pure atomics + futex — but wider in one
/// dimension: it owns the PROCESS-level primitives (pid, liveness
/// probe, cross-process futex) the in-process engine never needed.
/// Tests substitute an env whose point() raises SIGKILL on a chosen
/// protocol step; the segment layout is env-independent, so handles
/// with different envs interoperate on one segment.
struct SharedRealEnv {
  static void point(SchedulePoint) noexcept {}

  static std::uint32_t pid() noexcept {
    return static_cast<std::uint32_t>(::getpid());
  }

  /// Liveness probe: kill(pid, 0) delivers no signal, only an
  /// existence check.  ESRCH = gone; EPERM = exists but unsignalable
  /// (still alive); success = alive — except that a zombie still
  /// answers kill(pid, 0).  A zombie can never finish its in-flight
  /// increment (its address space is gone; only the exit status
  /// lingers until the parent reaps it), and a parent that parks on
  /// the counter BEFORE waitpid()ing a SIGKILLed child would hang
  /// every waiter in every process if zombies counted as alive.  On
  /// Linux, read the state field of /proc/<pid>/stat and treat 'Z'
  /// as dead.
  static bool process_alive(std::uint32_t pid) noexcept {
    if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
      return false;
    }
#if defined(__linux__)
    char path[48];
    std::snprintf(path, sizeof(path), "/proc/%u/stat", pid);
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) return true;  // raced with reaping; next sweep settles
    char buf[512];
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    // Format: "pid (comm) S ..." where comm may itself contain ')';
    // the state letter follows the LAST ')'.
    const char* close = std::strrchr(buf, ')');
    if (close != nullptr && close[1] == ' ' && close[2] == 'Z') {
      return false;
    }
#endif
    return true;
  }

  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  static bool futex_wait_until(std::atomic<std::uint32_t>* addr,
                               std::uint32_t expected,
                               std::chrono::steady_clock::time_point deadline) {
    return detail::shared_futex_wait_until(addr, expected, deadline);
  }
  static void futex_wake_all(std::atomic<std::uint32_t>* addr) {
    detail::shared_futex_wake_all(addr);
  }
};

/// Tuning for one handle (not stored in the segment: different
/// processes may legitimately run different detector cadences).
struct SharedCounterOptions {
  /// How often a parked waiter re-arms to sweep for deaths, and the
  /// bound on how stale a poison observation can be.  Also the sleep
  /// slice granularity, so don't set it below a few milliseconds.
  std::chrono::milliseconds detect_period{std::chrono::milliseconds(100)};
  /// Opt-in heartbeat staleness threshold — the pid-reuse backstop
  /// (kill(pid,0) cannot distinguish a recycled pid from the original).
  /// ZERO DISABLES IT, and that is the right default: an idle-but-alive
  /// participant stops stamping its heartbeat, and a nonzero threshold
  /// would false-poison it.  Enable only when every participant
  /// increments or waits at a known minimum cadence.
  std::chrono::milliseconds heartbeat_stale_after{std::chrono::milliseconds(0)};
};

/// How a handle attaches to a name.
enum class SharedOpenMode : std::uint8_t {
  kCreate,        ///< create fresh, or RECOVER a poisoned existing name
  kOpen,          ///< attach to an existing name; error if absent
  kOpenOrCreate,  ///< attach, creating if absent (the factory's mode)
};

template <typename Env = SharedRealEnv>
class SharedCounterT {
 public:
  using env_type = Env;

  /// Creates the named counter, or — the recovery path — takes over a
  /// name whose current epoch is poisoned: slots cleared, value zeroed,
  /// epoch bumped, old-epoch handles superseded.  Throws
  /// std::invalid_argument if the name exists and is live.
  static SharedCounterT Create(const std::string& name,
                               SharedCounterOptions options = {}) {
    return SharedCounterT(name, SharedOpenMode::kCreate, options);
  }
  /// Attaches to an existing name; std::invalid_argument if absent.
  static SharedCounterT Open(const std::string& name,
                             SharedCounterOptions options = {}) {
    return SharedCounterT(name, SharedOpenMode::kOpen, options);
  }
  /// Attaches, creating if absent — first-writer-wins, the mode the
  /// spec factory uses so "shared:/name" works in every process
  /// without coordinating who creates.
  static SharedCounterT OpenOrCreate(const std::string& name,
                                     SharedCounterOptions options = {}) {
    return SharedCounterT(name, SharedOpenMode::kOpenOrCreate, options);
  }

  /// Removes the NAME (not the segment: live mappings survive until
  /// the last handle unmaps).  Idempotent.
  static void Unlink(const std::string& name) { SharedSegment::unlink(name); }

  // Not movable (mutex + jthread members); the factory functions
  // return prvalues, so handles construct in place (C++17 elision).
  SharedCounterT(const SharedCounterT&) = delete;
  SharedCounterT& operator=(const SharedCounterT&) = delete;

  ~SharedCounterT() {
    // Stop OnReach watchers before the segment goes away under them.
    {
      std::lock_guard<std::mutex> lock(watchers_mu_);
      for (auto& w : watchers_) w.request_stop();
    }
    for (auto& w : watchers_) {
      if (w.joinable()) w.join();
    }
    watchers_.clear();
    // Clean detach: release the registration slot, but only our own
    // claim — if recovery already re-initialized the table (epoch
    // moved on), the CAS fails harmlessly against the cleared slot.
    if (seg_ && slot_ != kNoSlot) {
      std::uint32_t expected = Env::pid();
      header()->slots[slot_].pid.compare_exchange_strong(
          expected, 0, std::memory_order_acq_rel);
    }
  }

  // ---- the paper's two fundamental operations, across processes ----

  void Increment(counter_value_t amount = 1) {
    MC_REQUIRE(amount > 0, "Increment amount must be positive");
    SharedSegmentHeader* h = header();
    // Each Increment is counted on exactly one path — superseded here,
    // then dropped, notify or fast below — and stats() sums them.
    if (h->epoch.load(std::memory_order_acquire) != epoch_) {
      stats_.on_increment();
      throw_superseded();
    }
    if (h->poison_code.load(std::memory_order_acquire) != kSharedLive) {
      // Same contract as BasicCounter: increments on a poisoned
      // counter are counted drops, not errors — the producer learns
      // nothing useful from throwing here.
      stats_.on_dropped_increment();
      return;
    }
    SharedParticipantSlot& slot = h->slots[slot_];
    slot.heartbeat_ns.store(Env::now_ns(), std::memory_order_relaxed);
    // The in-flight marker is the "holding the lock" analogue: raised
    // before the publish, cleared after the wake, so a corpse found
    // with it raised died mid-protocol (diagnostic only — ANY unclean
    // death poisons, marker raised or not).
    slot.inflight.fetch_add(1, std::memory_order_acq_rel);
    Env::point(SchedulePoint::kSharedInflight);
    h->value.fetch_add(amount, std::memory_order_seq_cst);
    Env::point(SchedulePoint::kSharedPublish);
    // Wake elision, Dekker-paired with Check's waiters++ / value
    // re-check (both seq_cst): either we observe the armed waiter and
    // wake, or the waiter's re-check observes our published value.
    if (h->waiters.load(std::memory_order_seq_cst) > 0) {
      h->wait_word.fetch_add(1, std::memory_order_release);
      Env::futex_wake_all(&h->wait_word);
      stats_.on_notify();
    } else {
#if MONOTONIC_ENABLE_STATS
      fast_increments_.fetch_add(1, std::memory_order_relaxed);
#endif
    }
    Env::point(SchedulePoint::kSharedWake);
    slot.inflight.fetch_sub(1, std::memory_order_acq_rel);
    // Sampled slow-path sweep: incrementers share the detection load
    // so a produce-only process still discovers dead peers.
    if ((local_increments_++ & (kSweepEvery - 1)) == kSweepEvery - 1) {
      sweep_for_deaths();
    }
  }

  void Check(counter_value_t level) {
    (void)wait_reached(level, /*has_deadline=*/false, {}, nullptr);
  }

  template <typename Rep, typename Period>
  bool CheckFor(counter_value_t level,
                std::chrono::duration<Rep, Period> timeout) {
    return CheckUntil(level, std::chrono::steady_clock::now() +
                                 std::chrono::duration_cast<
                                     std::chrono::steady_clock::duration>(
                                     timeout));
  }

  bool CheckUntil(counter_value_t level,
                  std::chrono::steady_clock::time_point deadline) {
    return wait_reached(level, /*has_deadline=*/true, deadline, nullptr);
  }

  /// Cancellable wait: returns false if `stop` fires first.
  bool Check(counter_value_t level, std::stop_token stop) {
    return wait_reached(level, /*has_deadline=*/false, {}, &stop);
  }

  /// Async check, served by a per-callback watcher thread parked in
  /// detector-period slices (there is no shared callback chain — a
  /// callback cannot live in the segment).  `fn` runs on the watcher
  /// thread; poison/supersession route to `on_error` when provided and
  /// are dropped otherwise.  Watchers are joined by the destructor.
  void OnReach(counter_value_t level, std::function<void()> fn,
               std::function<void(std::exception_ptr)> on_error = {}) {
    MC_REQUIRE(fn != nullptr, "OnReach requires a callback");
    std::lock_guard<std::mutex> lock(watchers_mu_);
    watchers_.emplace_back([this, level, fn = std::move(fn),
                            on_error = std::move(on_error)](
                               std::stop_token stop) {
      try {
        if (wait_reached(level, false, {}, &stop)) fn();
        // Cancelled (destructor tear-down): drop silently.
      } catch (...) {
        if (on_error) on_error(std::current_exception());
      }
    });
  }

  // ---- failure model ----

  /// Explicit poison.  The cause cannot cross the process boundary, so
  /// remote waiters see a synthesized CounterPoisonedError{kExplicit};
  /// waiters in THIS process still receive the original `cause`.
  void Poison(std::exception_ptr cause = {}) {
    SharedSegmentHeader* h = header();
    Env::point(SchedulePoint::kPoison);
    if (cause) {
      // Record the local cause BEFORE publishing the code, so a waiter
      // that observes the poison finds the cause in place; first cause
      // wins, mirroring first-poison-wins on the shared code.
      std::lock_guard<std::mutex> lock(cause_mu_);
      if (!local_cause_) local_cause_ = std::move(cause);
    }
    std::uint32_t expected = kSharedLive;
    if (h->poison_code.compare_exchange_strong(expected, kSharedPoisonExplicit,
                                               std::memory_order_acq_rel)) {
      stats_.on_poison();
      bump_and_wake(h);
    }
  }
  void Poison(std::string_view reason) {
    Poison(std::make_exception_ptr(CounterPoisonedError(std::string(reason))));
  }

  bool poisoned() const {
    return header()->poison_code.load(std::memory_order_acquire) !=
           kSharedLive;
  }

  /// In-process Reset is a local affair; a shared Reset would yank the
  /// value from under live waiters in other processes.  The supported
  /// recovery is Create() on the poisoned name (epoch bump).
  void Reset() {
    throw std::logic_error(
        "SharedCounter::Reset: re-Create the name to start a new epoch");
  }

  // ---- introspection ----

  counter_value_t debug_value() const {
    return header()->value.load(std::memory_order_acquire);
  }

  /// Wait-list shape is per-process here (remote waiters are invisible
  /// by design — their nodes live in their address spaces), so the
  /// snapshot reports the value plane only.
  CounterDebugSnapshot debug_snapshot() const {
    CounterDebugSnapshot snap;
    snap.value = debug_value();
    return snap;
  }

  CounterStatsSnapshot stats() const {
    CounterStatsSnapshot snap = stats_.snapshot();
    // notifies and dropped_increments count Increment branches only.
    snap.fast_path_increments =
        fast_increments_.load(std::memory_order_relaxed);
    snap.increments += snap.dropped_increments + snap.notifies +
                       snap.fast_path_increments;
    const SharedSegmentHeader* h = header();
    snap.participant_deaths =
        h->participant_deaths.load(std::memory_order_relaxed);
    snap.epoch = h->epoch.load(std::memory_order_relaxed);
    return snap;
  }
  void stats_reset() {
    stats_.reset();
    fast_increments_.store(0, std::memory_order_relaxed);
  }

  /// Epoch this handle joined; stats().epoch is the segment's current.
  std::uint32_t epoch() const noexcept { return epoch_; }
  const std::string& name() const noexcept { return name_; }
  std::size_t participant_slot() const noexcept { return slot_; }

  /// On-demand sweep (tests; callers that want detection now, not at
  /// the next timeout slice).  Returns true iff the epoch is poisoned
  /// after the sweep.
  bool SweepForDeaths() {
    sweep_for_deaths();
    return poisoned();
  }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  static constexpr std::uint64_t kSweepEvery = 64;  // must stay a power of 2

  SharedCounterT(const std::string& name, SharedOpenMode mode,
                 SharedCounterOptions options)
      : name_(name), options_(options) {
    seg_ = SharedSegment::map(name, mode != SharedOpenMode::kOpen);
    if (seg_.created()) {
      // ftruncate hands back zero-filled pages; formally start the
      // object's lifetime.  This re-writes init_state with its own
      // current value (kInitializing == 0), so openers polling the
      // latch observe nothing.
      new (seg_.header()) SharedSegmentHeader{};
    }
    SharedSegmentHeader* h = header();
    if (seg_.created()) {
      h->epoch.store(1, std::memory_order_relaxed);
      h->version = SharedSegmentHeader::kVersion;
      h->magic = SharedSegmentHeader::kMagic;
      h->init_state.store(SharedSegmentHeader::kReady,
                          std::memory_order_release);
    } else {
      wait_ready(h, name);
      if (mode == SharedOpenMode::kCreate) {
        if (h->poison_code.load(std::memory_order_acquire) == kSharedLive) {
          throw std::invalid_argument(
              "shared counter '" + name +
              "' already exists and is live; Open it, or poison it first");
        }
        recover(h);
      }
    }
    epoch_ = h->epoch.load(std::memory_order_acquire);
    register_self(h, name);
  }

  SharedSegmentHeader* header() const noexcept { return seg_.header(); }

  /// Bounded wait for the creator/recoverer to publish the header.
  /// A creator that died pre-publish is itself an unclean death; after
  /// ~2s we give up rather than spin forever on a stillborn segment.
  static void wait_ready(SharedSegmentHeader* h, const std::string& name) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (h->init_state.load(std::memory_order_acquire) !=
           SharedSegmentHeader::kReady) {
      if (std::chrono::steady_clock::now() >= deadline) {
        throw std::runtime_error("shared counter '" + name +
                                 "': creator died before publishing; "
                                 "shm_unlink the name and re-Create");
      }
      std::this_thread::yield();
    }
    if (h->magic != SharedSegmentHeader::kMagic ||
        h->version != SharedSegmentHeader::kVersion) {
      throw std::runtime_error("shared counter '" + name +
                               "': segment layout mismatch (magic/version); "
                               "all participants must run the same layout");
    }
  }

  /// Takeover of a poisoned name: exactly one recoverer wins the
  /// kReady→kRecovering latch; losers wait for the winner's kReady.
  void recover(SharedSegmentHeader* h) {
    std::uint32_t expected = SharedSegmentHeader::kReady;
    if (h->init_state.compare_exchange_strong(expected,
                                              SharedSegmentHeader::kRecovering,
                                              std::memory_order_acq_rel)) {
      for (auto& slot : h->slots) {
        slot.pid.store(0, std::memory_order_relaxed);
        slot.inflight.store(0, std::memory_order_relaxed);
        slot.heartbeat_ns.store(0, std::memory_order_relaxed);
      }
      h->value.store(0, std::memory_order_relaxed);
      h->dead_pid.store(0, std::memory_order_relaxed);
      // participant_deaths deliberately survives: segment-lifetime stat.
      h->poison_code.store(kSharedLive, std::memory_order_relaxed);
      h->epoch.fetch_add(1, std::memory_order_acq_rel);
      h->init_state.store(SharedSegmentHeader::kReady,
                          std::memory_order_release);
      // Old-epoch waiters must wake NOW to observe the supersession,
      // not at their next detector slice.
      bump_and_wake(h);
    } else {
      wait_ready(h, name_);
    }
  }

  void register_self(SharedSegmentHeader* h, const std::string& name) {
    const std::uint32_t me = Env::pid();
    for (std::size_t i = 0; i < kSharedMaxParticipants; ++i) {
      std::uint32_t expected = 0;
      if (h->slots[i].pid.compare_exchange_strong(
              expected, me, std::memory_order_acq_rel)) {
        slot_ = i;
        h->slots[i].heartbeat_ns.store(Env::now_ns(),
                                       std::memory_order_relaxed);
        Env::point(SchedulePoint::kSharedRegister);
        return;
      }
    }
    throw CounterResourceError(
        "shared counter '" + name + "': all " +
        std::to_string(kSharedMaxParticipants) +
        " participant slots are claimed; detach a participant (or recover "
        "the name) before joining");
  }

  [[noreturn]] void throw_poisoned(std::uint32_t code) const {
    if (code == kSharedPoisonParticipantDied) {
      throw CounterPoisonedError(
          "shared counter '" + name_ + "': participant pid " +
              std::to_string(
                  header()->dead_pid.load(std::memory_order_relaxed)) +
              " died mid-protocol; epoch " + std::to_string(epoch_) +
              " is poisoned (re-Create to recover)",
          PoisonCause::kParticipantDied);
    }
    // Explicit poison: waiters in the poisoning process rethrow the
    // original cause; remote waiters get the synthesized error.
    std::exception_ptr cause;
    {
      std::lock_guard<std::mutex> lock(cause_mu_);
      cause = local_cause_;
    }
    throw CounterPoisonedError(
        "shared counter '" + name_ + "': poisoned (epoch " +
            std::to_string(epoch_) + ")",
        PoisonCause::kExplicit, std::move(cause));
  }

  [[noreturn]] void throw_superseded() const {
    throw CounterPoisonedError(
        "shared counter '" + name_ + "': epoch " + std::to_string(epoch_) +
            " was superseded by a re-Create (current epoch " +
            std::to_string(header()->epoch.load(std::memory_order_relaxed)) +
            "); re-Open the name",
        PoisonCause::kEpochSuperseded);
  }

  void check_epoch(const SharedSegmentHeader* h) const {
    if (h->epoch.load(std::memory_order_acquire) != epoch_) {
      throw_superseded();
    }
  }

  /// The one wait loop behind Check/CheckFor/CheckUntil/Check(stop).
  /// Returns true when the level is reached, false on deadline or
  /// cancellation; throws on poison/supersession (unless the level was
  /// already covered — see the header comment's asymmetry note).
  bool wait_reached(counter_value_t level, bool has_deadline,
                    std::chrono::steady_clock::time_point deadline,
                    const std::stop_token* stop) {
    SharedSegmentHeader* h = header();
    stats_.on_check();
    Env::point(SchedulePoint::kCheck);
    check_epoch(h);
    if (h->value.load(std::memory_order_seq_cst) >= level) {
      stats_.on_fast_check();
      return true;
    }
    {
      const std::uint32_t code =
          h->poison_code.load(std::memory_order_acquire);
      if (code != kSharedLive) throw_poisoned(code);
    }
    // One suspend/resume pair per slow-path Check, however many
    // slices it sleeps — the pairing must hold on the throw paths too.
    stats_.on_suspend();
    struct ResumeGuard {
      CounterStats& stats;
      ~ResumeGuard() { stats.on_resume(); }
    } resume_guard{stats_};
    for (;;) {
      check_epoch(h);
      if (h->value.load(std::memory_order_seq_cst) >= level) return true;
      const std::uint32_t code =
          h->poison_code.load(std::memory_order_acquire);
      if (code != kSharedLive) throw_poisoned(code);
      if (stop != nullptr && stop->stop_requested()) {
        stats_.on_cancelled_check();
        return false;
      }
      if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
        stats_.on_timed_out_check();
        return false;
      }
      // Arm, snapshot, re-check, then sleep against the snapshot —
      // the FutexWait policy's lost-wakeup-free protocol, with the
      // engine mutex replaced by seq_cst Dekker pairing (see
      // Increment): either the incrementer's waiters load sees our
      // arm and bumps the word, or our re-check sees its published
      // value.  A bump between snapshot and sleep fails FUTEX_WAIT's
      // in-kernel compare, so we never park past a published
      // increment.
      h->waiters.fetch_add(1, std::memory_order_seq_cst);
      const std::uint32_t snapshot =
          h->wait_word.load(std::memory_order_seq_cst);
      const bool ready =
          h->value.load(std::memory_order_seq_cst) >= level ||
          h->poison_code.load(std::memory_order_acquire) != kSharedLive ||
          h->epoch.load(std::memory_order_acquire) != epoch_;
      if (!ready) {
        // Sleep at most one detector period per slice: every waiter is
        // its own death detector of last resort (header comment).
        auto slice = std::chrono::steady_clock::now() + options_.detect_period;
        if (has_deadline && deadline < slice) slice = deadline;
        Env::point(SchedulePoint::kPark);
        const bool woken =
            Env::futex_wait_until(&h->wait_word, snapshot, slice);
        if (!woken) {
          // Slice expired with no wake: stamp liveness, run the sweep.
          if (slot_ != kNoSlot) {
            h->slots[slot_].heartbeat_ns.store(Env::now_ns(),
                                               std::memory_order_relaxed);
          }
          sweep_for_deaths();
        } else if (h->value.load(std::memory_order_seq_cst) < level) {
          stats_.on_spurious_wakeup();
        }
      }
      h->waiters.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  /// The death detector.  Sweeps the registration table; a claimed
  /// slot whose pid fails the liveness probe (or whose heartbeat is
  /// stale, when that backstop is enabled) is an unclean death: the
  /// CAS pid→0 makes each death count exactly once across concurrent
  /// sweepers in any process, then first-poison-wins freezes the
  /// epoch and wakes everyone everywhere.
  void sweep_for_deaths() {
    SharedSegmentHeader* h = header();
    Env::point(SchedulePoint::kSharedSweep);
    const std::uint32_t me = Env::pid();
    const std::uint64_t now = Env::now_ns();
    const std::uint64_t stale_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            options_.heartbeat_stale_after)
            .count());
    for (auto& slot : h->slots) {
      const std::uint32_t pid = slot.pid.load(std::memory_order_acquire);
      if (pid == 0 || pid == me) continue;
      bool dead = !Env::process_alive(pid);
      if (!dead && stale_ns != 0) {
        const std::uint64_t beat =
            slot.heartbeat_ns.load(std::memory_order_relaxed);
        dead = beat != 0 && now > beat && now - beat > stale_ns;
      }
      if (!dead) continue;
      std::uint32_t expected = pid;
      if (!slot.pid.compare_exchange_strong(expected, 0,
                                            std::memory_order_acq_rel)) {
        continue;  // another sweeper claimed this death
      }
      h->participant_deaths.fetch_add(1, std::memory_order_relaxed);
      std::uint32_t live = kSharedLive;
      if (h->poison_code.compare_exchange_strong(
              live, kSharedPoisonParticipantDied,
              std::memory_order_acq_rel)) {
        h->dead_pid.store(pid, std::memory_order_relaxed);
        stats_.on_poison();
        bump_and_wake(h);
      }
    }
  }

  static void bump_and_wake(SharedSegmentHeader* h) {
    h->wait_word.fetch_add(1, std::memory_order_release);
    Env::futex_wake_all(&h->wait_word);
  }

  std::string name_;
  SharedCounterOptions options_;
  SharedSegment seg_;
  std::uint32_t epoch_ = 0;
  std::size_t slot_ = kNoSlot;
  std::uint64_t local_increments_ = 0;
  // Increments that needed no wake; a statistic kept beside
  // local_increments_, the other per-Increment write to this handle.
  std::atomic<std::uint64_t> fast_increments_{0};
  /// Original cause from a local Poison(exception_ptr) — cannot cross
  /// the process boundary, so only this process's waiters rethrow it.
  /// Guarded by cause_mu_ (exception_ptr is not atomic).
  mutable std::mutex cause_mu_;
  std::exception_ptr local_cause_;
  mutable CounterStats stats_;
  std::mutex watchers_mu_;
  std::vector<std::jthread> watchers_;
};

using SharedCounter = SharedCounterT<SharedRealEnv>;

}  // namespace monotonic

#endif  // !_WIN32
