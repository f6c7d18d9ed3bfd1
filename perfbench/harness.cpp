// harness.cpp — placement, span recorder, statistics and the process
// entry point of mcbench.  See README.md for what each workload does.

#include "harness.hpp"

#include <poll.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "monotonic/support/config.hpp"

#ifndef MCBENCH_BUILD_TYPE
#define MCBENCH_BUILD_TYPE "unknown"
#endif

namespace mcbench {

namespace {

std::string join(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

// ---- placement ----------------------------------------------------

Placement plan_placement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "sched_getaffinity");
  }
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
  }
  if (allowed.empty()) throw std::runtime_error("no usable CPU");
  Placement p;
  const std::size_t n_load =
      allowed.size() == 1 ? 1 : std::min<std::size_t>(3, allowed.size() - 1);
  p.load.assign(allowed.begin(), allowed.begin() + n_load);
  if (allowed.size() == 1) {
    p.rest = allowed;
  } else {
    p.rest.assign(allowed.begin() + n_load, allowed.end());
  }
  return p;
}

namespace {
bool g_pinning = true;
}  // namespace

void disable_pinning() { g_pinning = false; }

void confine_to(const std::vector<int>& cpus) {
  if (!g_pinning) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  const int rc = pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  if (rc != 0) {
    throw std::system_error(rc, std::generic_category(),
                            "pthread_setaffinity_np");
  }
}

void pin_to(int cpu) { confine_to({cpu}); }

std::string host_stamp(const Placement& placement) {
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\""
    << ", \"compiler\": \"g++ " << json_escape(__VERSION__) << "\""
    << ", \"build_type\": \"" << MCBENCH_BUILD_TYPE << "\""
    << ", \"MONOTONIC_ENABLE_STATS\": " << MONOTONIC_ENABLE_STATS
    << ", \"pinned\": " << (g_pinning ? "true" : "false")
    << ", \"pin_map\": {\"load\": [" << join(placement.load)
    << "], \"library\": [" << join(placement.rest) << "]}}";
  return o.str();
}

// ---- spans --------------------------------------------------------

thread_local Tracer::Buffer* Tracer::tls_ = nullptr;

void Tracer::attach() {
  if (!enabled_) return;
  auto buf = std::make_unique<Buffer>();
  // Reserved whole so recording never reallocates mid-run; pages are
  // only touched as spans land.
  buf->spans.reserve(kMaxSpansPerThread);
  std::scoped_lock lock(m_);
  buf->thread_index = buffers_.size() + 1;
  tls_ = buf.get();
  buffers_.push_back(std::move(buf));
}

std::uint64_t Tracer::next_id() noexcept {
  if (tls_ == nullptr) return 0;
  return (tls_->thread_index << 40) | ++tls_->next;
}

void Tracer::record(const char* name, std::int64_t start, std::int64_t end,
                    std::uint64_t id, std::uint64_t cause) noexcept {
  Buffer* b = tls_;
  if (b == nullptr) return;
  if (b->spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b->spans.push_back(Span{name, start, end, id, cause});
}

void Tracer::write(const std::string& path, const std::string& stamp,
                   std::size_t limit) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "mcbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "# host " << stamp << "\n";
  out << "name,start_ns,end_ns,id,cause\n";
  std::scoped_lock lock(m_);
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->spans.size();
  // Keep every k-th span so a long run still covers its whole length.
  const std::size_t stride = total <= limit ? 1 : (total + limit - 1) / limit;
  std::size_t i = 0;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (i++ % stride != 0) continue;
      out << s.name << ',' << s.start << ',' << s.end << ',' << s.id << ','
          << s.cause << '\n';
    }
  }
}

// ---- statistics ---------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

void LatencyHistogram::merge(const LatencyHistogram& o) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    count_[i] += o.count_[i];
    sum_[i] += o.sum_[i];
  }
  total_ += o.total_;
}

double LatencyHistogram::percentile_us(double p) const noexcept {
  if (total_ == 0) return 0;
  const double want = std::ceil(p * static_cast<double>(total_));
  const auto rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(want));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += count_[i];
    if (seen >= rank) {
      return static_cast<double>(sum_[i]) / static_cast<double>(count_[i]) /
             1e3;
    }
  }
  return 0;
}

void spin_until_readable(int fd, std::int64_t max_ns) {
  const std::int64_t until = now_ns() + max_ns;
  pollfd pfd{fd, POLLIN, 0};
  while (::poll(&pfd, 1, 0) == 0 && now_ns() < until) {
  }
}

void RateSlicer::run(double seconds, int slices) {
  const auto slice = std::chrono::duration<double>(seconds / slices);
  auto t_prev = Clock::now();
  std::uint64_t c_prev = total_();
  for (int i = 0; i < slices; ++i) {
    std::this_thread::sleep_until(t_prev + std::chrono::duration_cast<
                                               Clock::duration>(slice));
    const auto t = Clock::now();
    const std::uint64_t c = total_();
    const double dt = std::chrono::duration<double>(t - t_prev).count();
    if (dt > 0) rates_.push_back(static_cast<double>(c - c_prev) / dt);
    t_prev = t;
    c_prev = c;
  }
}

double RateSlicer::median_rate() const { return median(rates_); }

double median_setup(int reps, const std::function<double(bool keep)>& once) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) times.push_back(once(i + 1 == reps));
  return median(times);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so a process started
  // from a larger parent would report the parent's peak.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  return 0;
}

}  // namespace mcbench

// ---- entry point --------------------------------------------------

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mcbench: %s\n"
               "usage: mcbench --workload inproc|remote_wait|durable_write "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--pin 0|1]\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcbench;
  Settings s;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") s.workload = v;
    else if (a == "--seed") s.seed = std::stoull(v);
    else if (a == "--seconds") s.seconds = std::stod(v);
    else if (a == "--trace") s.trace = (v == "1");
    else if (a == "--trace-out") s.trace_out = v;
    else if (a == "--pin") s.pin = (v != "0");
    else usage(("unknown flag " + a).c_str());
  }
  if (!(s.seconds > 0)) usage("--seconds must be positive");
  if (MONOTONIC_ENABLE_STATS == 0) {
    // The in-process handoff learns that its waiter parked from the
    // counter's suspension count; without stats it would never start.
    std::fprintf(stderr, "mcbench: needs MONOTONIC_ENABLE_STATS=1\n");
    return 2;
  }

  if (!s.pin) disable_pinning();
  const Placement placement = plan_placement();
  // Library threads (completion pools, the server's loop and pool)
  // are created by this thread and inherit this mask.
  confine_to(placement.rest);
  const std::string stamp = host_stamp(placement);
  std::printf("host %s\n", stamp.c_str());
  std::fflush(stdout);

  Tracer tracer(s.trace);
  tracer.attach();
  Result r;
  try {
    if (s.workload == "inproc") {
      r = run_inproc(s, placement, tracer);
    } else if (s.workload == "remote_wait") {
      r = run_remote_wait(s, placement, tracer);
    } else if (s.workload == "durable_write") {
      r = run_durable_write(s, placement, tracer);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcbench: %s failed: %s\n", s.workload.c_str(),
                 e.what());
    return 1;
  }
  if (s.trace && !s.trace_out.empty()) {
    tracer.write(s.trace_out, stamp, 200000);
  }
  for (const std::string& v : r.violations) {
    std::fprintf(stderr, "mcbench: correctness violation: %s\n", v.c_str());
  }
  if (tracer.dropped() != 0) {
    std::fprintf(stderr, "mcbench: %llu spans dropped (buffer cap)\n",
                 static_cast<unsigned long long>(tracer.dropped()));
  }
  std::string line = "{\"correct\": ";
  line += r.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
