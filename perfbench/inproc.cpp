// inproc.cpp — workload `inproc`: the engine called directly, no server.
//
// Three phases share the run, each on pinned load threads:
//
//   contended (30%)  every load thread Increments one hot
//                    "pooled:64+hybrid" counter with nothing armed on
//                    it, so every Increment takes the lock-free path.
//                    Gives incr_per_s.
//   handoff   (50%)  a waiter parks in Check(level) on one CPU and an
//                    incrementer on another releases it; levels hop by
//                    1..64, so a run walks through hundreds of
//                    thousands of distinct levels.  Gives the wake
//                    percentiles.
//   onreach   (20%)  rounds of 16..2048 distinct OnReach levels (1..3
//                    registrations each) armed on a counter whose
//                    completions run on a ThreadPoolExecutor, then
//                    crossed one level at a time.  Set-up arms the
//                    first round, always 1024 levels.
//
// Traced runs add a same-CPU handoff pass for core.wake_same_cpu_p50_us.

#include <algorithm>
#include <memory>
#include <thread>

#include "harness.hpp"
#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/completion.hpp"

namespace mcbench {
namespace {

using monotonic::AnyCounter;
using monotonic::counter_value_t;
using monotonic::ThreadPoolExecutor;

constexpr const char* kSpec = "pooled:64+hybrid";
constexpr int kSetupReps = 5;
constexpr int kBatch = 1024;  // increments per completion-counter update
constexpr int kSetupLevels = 1024;
constexpr int kSlices = 10;

struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> v{0};
};

/// One OnReach registration and what its callback observed.
struct Reg {
  counter_value_t level = 0;
  std::int64_t t_cross = 0;  ///< start of the crossing Increment
  std::int64_t t_fired = 0;  ///< callback start
  counter_value_t seen = 0;  ///< value the callback read
  std::atomic<int> fired{0};
};

/// A batch of registrations armed together; regs ascend by level.
struct Round {
  std::unique_ptr<Reg[]> regs;
  std::size_t size = 0;
};

/// Draws a round: `levels` distinct levels above `base`, gaps 1..8,
/// 1..3 registrations per level.
Round draw_round(std::mt19937_64& rng, counter_value_t base, int levels) {
  std::uniform_int_distribution<int> gap(1, 8), mult(1, 3);
  std::vector<std::pair<counter_value_t, int>> plan;
  counter_value_t level = base;
  std::size_t total = 0;
  for (int i = 0; i < levels; ++i) {
    level += static_cast<counter_value_t>(gap(rng));
    const int m = mult(rng);
    plan.emplace_back(level, m);
    total += static_cast<std::size_t>(m);
  }
  Round r;
  r.regs.reset(new Reg[total]);
  r.size = total;
  std::size_t k = 0;
  for (const auto& [lv, m] : plan) {
    for (int j = 0; j < m; ++j) r.regs[k++].level = lv;
  }
  return r;
}

/// Arms every registration of `r` on `c`; returns ns per arm.
double arm_round(AnyCounter& c, Round& r, Tracer& tracer) {
  ScopedSpan span(tracer, "core.OnReach[round]");
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < r.size; ++i) {
    Reg* reg = &r.regs[i];
    c.OnReach(reg->level, [reg, &c] {
      reg->t_fired = now_ns();
      reg->seen = c.value_lower_bound();
      reg->fired.fetch_add(1, std::memory_order_release);
    });
  }
  return static_cast<double>(now_ns() - t0) / static_cast<double>(r.size);
}

/// Checks a finished round: each registration fired exactly once, at or
/// after its level, and not before its crossing Increment started.
void validate_round(const Round& r, Result& res) {
  for (std::size_t i = 0; i < r.size; ++i) {
    const Reg& reg = r.regs[i];
    const int f = reg.fired.load(std::memory_order_acquire);
    if (f != 1) {
      res.violate("OnReach(" + std::to_string(reg.level) + ") fired " +
                  std::to_string(f) + " times");
    } else if (reg.seen < reg.level || reg.t_fired < reg.t_cross) {
      res.violate("OnReach(" + std::to_string(reg.level) +
                  ") fired before its level");
    }
  }
}

struct State {
  std::shared_ptr<ThreadPoolExecutor> pool;
  std::unique_ptr<AnyCounter> hot, handoff, onreach;
  Round first_round;
  std::vector<double> arm_ns;
};

State build(std::uint64_t seed, Tracer& tracer) {
  State st;
  st.pool = std::make_shared<ThreadPoolExecutor>(1);
  st.hot = monotonic::make_counter(kSpec);
  st.handoff = monotonic::make_counter(kSpec);
  st.onreach = monotonic::make_counter(kSpec, st.pool);
  auto rounds = make_rng(seed, 0x1103);
  st.first_round = draw_round(rounds, 0, kSetupLevels);
  st.arm_ns.push_back(arm_round(*st.onreach, st.first_round, tracer));
  return st;
}

void yield_until(const std::function<bool()>& done) {
  while (!done()) std::this_thread::yield();
}

// ---- contended ----------------------------------------------------

void contended_phase(State& st, const Placement& p, double seconds,
                     Tracer& tracer, Result& res, double* rate_out,
                     std::vector<double>* batch_ns) {
  const std::size_t n_threads = 3;
  std::vector<PaddedCount> done(n_threads);
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> batches(n_threads);
  std::vector<std::thread> threads;
  AnyCounter& hot = *st.hot;
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      pin_to(p.load[t % p.load.size()]);
      tracer.attach();
      while (!stop.load(std::memory_order_relaxed)) {
        if (tracer.enabled()) {
          ScopedSpan span(tracer, "core.Increment[1024]");
          const std::int64_t t0 = now_ns();
          for (int i = 0; i < kBatch; ++i) hot.Increment(1);
          batches[t].push_back(static_cast<double>(now_ns() - t0) / kBatch);
        } else {
          for (int i = 0; i < kBatch; ++i) hot.Increment(1);
        }
        done[t].v.fetch_add(kBatch, std::memory_order_relaxed);
      }
    });
  }
  RateSlicer slicer([&] {
    std::uint64_t sum = 0;
    for (auto& d : done) sum += d.v.load(std::memory_order_relaxed);
    return sum;
  });
  slicer.run(seconds, kSlices);
  stop.store(true);
  for (auto& th : threads) th.join();
  *rate_out = slicer.median_rate();
  for (auto& b : batches) batch_ns->insert(batch_ns->end(), b.begin(), b.end());

  std::uint64_t issued = 0;
  for (auto& d : done) issued += d.v.load();
  res.attempted += issued;
  const counter_value_t final_value = hot.value_lower_bound();
  if (final_value != issued) {
    res.violate("hot counter reads " + std::to_string(final_value) +
                " after " + std::to_string(issued) + " increments");
  }
}

// ---- handoff ------------------------------------------------------

struct HandoffSample {
  LatencyHistogram wake;
  std::vector<double> park_us;  // traced runs only
  std::uint64_t rounds = 0;
};

/// One waiter parks in Check(level); one incrementer waits until the
/// counter has counted the suspension, then releases it at once.  Both
/// derive the same level sequence from the seed.  Ends after whole
/// rounds.
///
/// The suspension is counted under the counter's lock before the waiter
/// sleeps, so some releases land before the waiter is in the kernel and
/// some just after.  Waiting for it to fall asleep instead lets the
/// waiter's idle vCPU halt, and then the host's wake-up latency, which
/// drifts from minute to minute on a shared VM, decides wake_p90_us.
HandoffSample handoff_phase(AnyCounter& c, int cpu_inc, int cpu_wait,
                            std::uint64_t seed, double seconds,
                            Tracer& tracer, Result& res) {
  struct alignas(64) Shared {
    std::atomic<std::int64_t> t0{0};
    std::atomic<std::uint64_t> cause{0};
    std::atomic<counter_value_t> issued{0};
    std::atomic<bool> stop{false};
  } sh;
  HandoffSample out;
  const std::uint64_t base_suspensions = c.stats().suspensions;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::string> wait_violations;

  std::thread waiter([&] {
    pin_to(cpu_wait);
    tracer.attach();
    auto rng = make_rng(seed, 0x1102);
    std::uniform_int_distribution<counter_value_t> step(1, 64);
    counter_value_t level = 0;
    for (;;) {
      level += step(rng);
      const std::int64_t t_call = now_ns();
      c.Check(level);
      const std::int64_t t_ret = now_ns();
      const std::int64_t t0 = sh.t0.load(std::memory_order_acquire);
      if (tracer.enabled()) {
        tracer.record("core.Check", t_call, t_ret, tracer.next_id(),
                      sh.cause.load(std::memory_order_acquire));
        out.park_us.push_back(static_cast<double>(t_ret - t_call) / 1e3);
      }
      out.wake.add(t_ret - t0);
      if (c.value_lower_bound() < level ||
          sh.issued.load(std::memory_order_acquire) < level) {
        if (wait_violations.size() < 4) {
          wait_violations.push_back("Check(" + std::to_string(level) +
                                    ") returned before its level was issued");
        }
      }
      ++out.rounds;
      if (sh.stop.load(std::memory_order_acquire)) break;
    }
  });

  std::thread incrementer([&] {
    pin_to(cpu_inc);
    tracer.attach();
    auto rng = make_rng(seed, 0x1102);
    std::uniform_int_distribution<counter_value_t> step(1, 64);
    counter_value_t level = 0, prev = 0;
    for (std::uint64_t r = 1;; ++r) {
      level += step(rng);
      yield_until(
          [&] { return c.stats().suspensions >= base_suspensions + r; });
      const bool last = Clock::now() >= deadline;
      if (last) sh.stop.store(true, std::memory_order_release);
      ScopedSpan span(tracer, "core.Increment");
      sh.cause.store(span.id(), std::memory_order_release);
      sh.issued.store(level, std::memory_order_release);
      sh.t0.store(now_ns(), std::memory_order_release);
      c.Increment(level - prev);
      prev = level;
      if (last) break;
    }
  });
  incrementer.join();
  waiter.join();
  for (auto& v : wait_violations) res.violate(v);
  res.attempted += 2 * out.rounds;  // one Increment + one Check per round
  return out;
}

// ---- onreach ------------------------------------------------------

struct OnReachSample {
  LatencyHistogram delay;
  std::vector<double> arm_ns;
};

OnReachSample onreach_phase(State& st, int cpu, std::uint64_t seed,
                            double seconds, Tracer& tracer, Result& res) {
  OnReachSample out;
  AnyCounter& c = *st.onreach;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  Round current = std::move(st.first_round);
  Round previous;
  std::thread driver([&] {
    pin_to(cpu);
    tracer.attach();
    auto rng = make_rng(seed, 0x1104);
    std::uniform_int_distribution<int> n_levels(16, 2048);
    counter_value_t value = 0;
    for (;;) {
      // Cross the round one distinct level at a time; each level's
      // callbacks must all have started before the next Increment.
      std::size_t i = 0;
      while (i < current.size) {
        const counter_value_t level = current.regs[i].level;
        std::size_t j = i;
        while (j < current.size && current.regs[j].level == level) ++j;
        const std::int64_t t0 = now_ns();
        for (std::size_t k = i; k < j; ++k) current.regs[k].t_cross = t0;
        {
          ScopedSpan span(tracer, "core.Increment");
          c.Increment(level - value);
        }
        res.attempted += 1;
        value = level;
        for (std::size_t k = i; k < j; ++k) {
          Reg& reg = current.regs[k];
          yield_until(
              [&] { return reg.fired.load(std::memory_order_acquire) != 0; });
          out.delay.add(reg.t_fired - t0);
        }
        i = j;
      }
      res.attempted += current.size;  // the OnReach registrations
      if (previous.size != 0) validate_round(previous, res);
      previous = std::move(current);
      if (Clock::now() >= deadline) break;
      current = draw_round(rng, value, n_levels(rng));
      out.arm_ns.push_back(arm_round(c, current, tracer));
    }
  });
  driver.join();
  validate_round(previous, res);
  const counter_value_t final_value = c.value_lower_bound();
  if (final_value != previous.regs[previous.size - 1].level) {
    res.violate("onreach counter reads " + std::to_string(final_value) +
                ", want " +
                std::to_string(previous.regs[previous.size - 1].level));
  }
  return out;
}

}  // namespace

Result run_inproc(const Settings& s, const Placement& p, Tracer& tracer) {
  Result res;
  State st;
  const double setup_s = median_setup(kSetupReps, [&](bool keep) {
    const std::int64_t t0 = now_ns();
    State built = build(s.seed, tracer);
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    if (keep) st = std::move(built);
    return secs;
  });
  double incr_rate = 0;
  std::vector<double> batch_ns;
  contended_phase(st, p, 0.3 * s.seconds, tracer, res, &incr_rate, &batch_ns);

  const int cpu_a = p.load[0];
  const int cpu_b = p.load[1 % p.load.size()];
  HandoffSample hs = handoff_phase(*st.handoff, cpu_a, cpu_b, s.seed,
                                        0.5 * s.seconds, tracer, res);
  OnReachSample os =
      onreach_phase(st, cpu_a, s.seed, 0.2 * s.seconds, tracer, res);

  res.put("setup_s", setup_s, "s");
  res.put("incr_per_s", incr_rate, "1/s");
  res.put("wake_p50_us", hs.wake.percentile_us(0.5), "us");
  res.put("wake_p90_us", hs.wake.percentile_us(0.9), "us");
  if (s.trace) {
    // Same-CPU handoff on a fresh counter: the wake with no cross-CPU
    // transfer at all.
    auto same = monotonic::make_counter(kSpec);
    const HandoffSample same_cpu = handoff_phase(
        *same, cpu_a, cpu_a, s.seed, std::min(1.0, 0.1 * s.seconds), tracer,
        res);
    const auto hot = st.hot->stats();
    const auto ho = st.handoff->stats();
    std::vector<double> arm = st.arm_ns;
    arm.insert(arm.end(), os.arm_ns.begin(), os.arm_ns.end());
    std::uint64_t max_live = 0;
    for (const AnyCounter* c :
         {st.hot.get(), st.handoff.get(), st.onreach.get()}) {
      max_live = std::max(max_live, c->stats().max_live_nodes);
    }
    res.put("core.increment_ns", median(batch_ns), "ns");
    res.put("core.fast_path_ratio",
            static_cast<double>(hot.fast_path_increments) /
                static_cast<double>(std::max<std::uint64_t>(1, hot.increments)),
            "ratio");
    res.put("core.park_us", median(hs.park_us), "us");
    res.put("core.wake_same_cpu_p50_us", same_cpu.wake.percentile_us(0.5),
            "us");
    res.put("core.suspensions_per_release",
            static_cast<double>(ho.suspensions) /
                static_cast<double>(std::max<std::uint64_t>(1, ho.wakeups)),
            "ratio");
    res.put("core.spurious_wakeups",
            static_cast<double>(ho.spurious_wakeups), "count");
    res.put("core.onreach_arm_ns", median(arm), "ns");
    res.put("core.completion_delay_us", os.delay.percentile_us(0.5), "us");
    res.put("core.max_live_nodes", static_cast<double>(max_live), "count");
  }
  // Counters (and their pending registrations) go before the pool they
  // post to.
  st.hot.reset();
  st.handoff.reset();
  st.onreach.reset();
  st.pool.reset();
  res.put("peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

}  // namespace mcbench
