// harness.hpp — shared pieces of the mcbench workloads: thread
// placement, the in-memory span recorder, latency samples, the
// throughput slicer and the result record each workload fills in.
//
// Everything here belongs to the benchmark, not to the library: spans
// are recorded around the calls the benchmark makes INTO the library's
// public functions, never from inside it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace mcbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Command-line settings of one workload process.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool pin = true;        ///< false: the unpinned reference run
  std::string trace_out;  ///< span file written at exit (trace mode)
};

// ---- placement ----------------------------------------------------

/// Which CPUs the load threads own and which the library's own threads
/// (server event loop, completion pools) may use.  Load thread i is
/// pinned to load[i % load.size()]; the main thread confines itself to
/// `rest` before it creates any library thread, and those inherit it.
struct Placement {
  std::vector<int> load;
  std::vector<int> rest;
};

/// Splits the CPUs this process may run on: up to three for load,
/// the remainder (at least one) for the library's threads.  With one
/// CPU both sets are that CPU.  The server workloads use two of the
/// load CPUs and leave the third idle: their server stays on one CPU,
/// where its loop and completion pool hand off without crossing CPUs.
Placement plan_placement();

/// Pins the calling thread to one CPU; throws on failure.
void pin_to(int cpu);
/// Confines the calling thread to a CPU set; throws on failure.
void confine_to(const std::vector<int>& cpus);
/// Makes pin_to/confine_to no-ops for the rest of the process (the
/// unpinned reference run); host_stamp then reports "pinned": false.
void disable_pinning();

/// One-line JSON object: nproc, CPU model, compiler, build type, the
/// stats flag and the pin map.
std::string host_stamp(const Placement& placement);

// ---- spans --------------------------------------------------------

/// One recorded interval.  `cause` is the id of the span that caused
/// this one (0 = none): the enclosing call, or for a released wait the
/// Increment that released it.
struct Span {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::uint64_t id;
  std::uint64_t cause;
};

/// In-memory span recorder.  Each thread that records owns a buffer
/// (attach()); buffers are only read after every recording thread has
/// been joined.  Disabled, every call is a single branch.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpansPerThread = 1u << 19;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Gives the calling thread its own buffer; call once per thread
  /// before recording.
  void attach();

  /// Allocates a span id without recording anything yet (so a cause
  /// can be published before the call it names returns).
  std::uint64_t next_id() noexcept;

  void record(const char* name, std::int64_t start, std::int64_t end,
              std::uint64_t id, std::uint64_t cause) noexcept;

  std::uint64_t dropped() const noexcept { return dropped_.load(); }

  /// Writes at most `limit` spans as CSV (name,start_ns,end_ns,id,cause)
  /// after a header line carrying `stamp`.
  void write(const std::string& path, const std::string& stamp,
             std::size_t limit) const;

 private:
  struct Buffer {
    std::uint64_t thread_index = 0;
    std::uint64_t next = 0;
    std::vector<Span> spans;
  };
  static thread_local Buffer* tls_;

  bool enabled_;
  mutable std::mutex m_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by m_
  std::atomic<std::uint64_t> dropped_{0};
};

/// Records [construction, destruction) as one span when tracing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::uint64_t cause = 0)
      : t_(t), name_(name), cause_(cause) {
    if (t_.enabled()) {
      id_ = t_.next_id();
      start_ = now_ns();
    }
  }
  ~ScopedSpan() {
    if (t_.enabled()) t_.record(name_, start_, now_ns(), id_, cause_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& t_;
  const char* name_;
  std::uint64_t cause_;
  std::uint64_t id_ = 0;
  std::int64_t start_ = 0;
};

// ---- statistics ---------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (p in [0,1]); 0 when
/// empty.  Sorts a copy.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Latency histogram with fixed storage: 512 sub-buckets per power of
/// two (0.2% resolution), each keeping the sum of its samples so a
/// percentile reads the mean of the samples in its bucket.  Allocated
/// and zeroed up front: recording never allocates, so the process's
/// peak RSS does not depend on how many samples a run takes.
class LatencyHistogram {
 public:
  LatencyHistogram() : count_(kBuckets, 0), sum_(kBuckets, 0) {}
  void add(std::int64_t ns) noexcept {
    const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
    const std::size_t i = index(v);
    ++count_[i];
    sum_[i] += v;
    ++total_;
  }
  void merge(const LatencyHistogram& o) noexcept;
  std::uint64_t count() const noexcept { return total_; }
  /// Nearest-rank percentile in microseconds (p in [0,1]); 0 when empty.
  double percentile_us(double p) const noexcept;

 private:
  static constexpr int kSubBits = 9;
  static constexpr std::size_t kBuckets = std::size_t{64 - kSubBits + 1}
                                          << kSubBits;
  static std::size_t index(std::uint64_t v) noexcept {
    if (v < (std::uint64_t{1} << kSubBits)) return static_cast<std::size_t>(v);
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    return (static_cast<std::size_t>(shift + 1) << kSubBits) +
           static_cast<std::size_t>((v >> shift) &
                                    ((std::uint64_t{1} << kSubBits) - 1));
  }
  std::vector<std::uint64_t> count_;
  std::vector<std::uint64_t> sum_;
  std::uint64_t total_ = 0;
};

/// Samples completion counters on a fixed cadence from the main thread
/// and reports the median per-slice rate, so a short stall in one
/// slice does not move the result.
class RateSlicer {
 public:
  /// `total` sums the load threads' completion counters.
  explicit RateSlicer(std::function<std::uint64_t()> total)
      : total_(std::move(total)) {}
  /// Blocks the caller for `seconds`, sampling `slices` times.
  void run(double seconds, int slices);
  double median_rate() const;

 private:
  std::function<std::uint64_t()> total_;
  std::vector<double> rates_;
};

// ---- result -------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload process reports: op accounting, the correctness
/// verdict with the reasons it failed, and its metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::map<std::string, Metric> metrics;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a violated correctness condition (capped list).
  void violate(const std::string& what) {
    if (violations.size() < 16) violations.push_back(what);
    else violations.back() = "... and more";
  }
  bool correct() const { return violations.empty(); }
};

/// Median of `reps` timed set-ups; `once(keep)` performs one set-up and
/// returns its seconds; `keep` is true on the last repetition, whose
/// state the timed phase then uses.
double median_setup(int reps, const std::function<double(bool keep)>& once);

/// Process peak resident set in MB (VmHWM).
double peak_rss_mb();

/// Polls `fd` without sleeping until it is readable or `max_ns` passed:
/// load threads own their CPUs, and a CPU that idles in a blocking read
/// pays the host's wake-up latency, which is not the library's.  The
/// caller's blocking read follows either way.
void spin_until_readable(int fd, std::int64_t max_ns);

/// Deterministic generator for one workload's inputs.
inline std::mt19937_64 make_rng(std::uint64_t seed, std::uint64_t salt) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(salt)};
  return std::mt19937_64(seq);
}

// ---- workloads (one translation unit each) -------------------------

Result run_inproc(const Settings& s, const Placement& p, Tracer& tracer);
Result run_remote_wait(const Settings& s, const Placement& p, Tracer& tracer);
Result run_durable_write(const Settings& s, const Placement& p,
                         Tracer& tracer);

}  // namespace mcbench
