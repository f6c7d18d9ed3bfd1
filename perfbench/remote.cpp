// remote.cpp — the two workloads that reach the engine through the
// shard server over a UNIX-domain socket.
//
//   remote_wait    in-memory server (no state file).  Connection B
//                  parks a check on one of 3000 named counters and
//                  confirms it parked with a check at a level already
//                  reached (the server answers one connection's frames
//                  in order); connection A's acked increment then
//                  releases it.  One round at a time: the latency path.
//   durable_write  journal + fsync on.  Two connections each keep a
//                  window of 64 acked increments in flight over their
//                  own half of 100k named counters (Zipf 0.99 keys) and
//                  park 4 checks at levels their own writes will cross.
//                  Set-up seeds every counter, drains the server and
//                  restarts it from the snapshot.
//
// Raw request ids start at kRawBase so they never collide with the ids
// ServerClient assigns its own tracked requests.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "harness.hpp"
#include "monotonic/server/client.hpp"
#include "monotonic/server/server.hpp"

namespace mcbench {
namespace {

using monotonic::server::CounterServer;
using monotonic::server::Op;
using monotonic::server::Reader;
using monotonic::server::ServerClient;
using monotonic::server::ServerOptions;
using monotonic::server::Status;
using monotonic::server::make_frame;
using monotonic::server::put_str16;
using monotonic::server::put_u64;
using monotonic::server::put_u8;
using Response = ServerClient::Response;

constexpr std::uint64_t kRawBase = std::uint64_t{1} << 40;
// How long a load thread spins on its socket before a blocking read.
constexpr std::int64_t kSpinNs = 20'000'000;

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

void append_increment(std::string& out, std::uint64_t req, std::uint64_t id,
                      std::uint64_t amount) {
  std::string body;
  put_u64(body, id);
  put_u64(body, amount);
  put_u8(body, 0);  // acked, no dedup seq
  out += make_frame(static_cast<std::uint8_t>(Op::kIncrement), req, body);
}

std::string wait_body(std::uint64_t id, std::uint64_t level) {
  std::string body;
  put_u64(body, id);
  put_u64(body, level);
  return body;
}

std::uint64_t reached_value(const Response& r) {
  Reader rd(r.body);
  std::uint64_t v = 0;
  rd.get_u64(v);
  return v;
}

/// A client connection plus the raw request ids it has used.
struct Conn {
  ServerClient client;
  std::uint64_t next_raw = kRawBase;

  /// await_response after spinning until the socket has data.  An
  /// answer already stashed by an earlier await only costs the spin.
  Response await(std::uint64_t req) {
    spin_until_readable(client.fd(), kSpinNs);
    return client.await_response(req);
  }
  Response read() {
    spin_until_readable(client.fd(), kSpinNs);
    return client.read_response();
  }
};

Conn connect(const std::string& path) {
  return Conn{ServerClient::connect_uds(path), kRawBase};
}

/// Sends n requests through `c` with up to `window` in flight.
/// `build(i, out)` appends request i's frame using id `req`;
/// `done(i, resp)` sees each answer.  Every request must be answered
/// in order (Open and Increment are).
void pipeline(Conn& c, std::size_t n,
              const std::function<void(std::size_t, std::uint64_t,
                                       std::string&)>& build,
              const std::function<void(std::size_t, const Response&)>& done,
              std::size_t window = 256) {
  const std::uint64_t base = c.next_raw;
  c.next_raw += n;
  std::size_t sent = 0, got = 0;
  std::string buf;
  while (got < n) {
    if (sent < n && sent - got <= window / 2) {
      buf.clear();
      const std::size_t end = std::min(n, got + window);
      for (; sent < end; ++sent) build(sent, base + sent, buf);
      c.client.send_raw(buf);
    }
    const Response r = c.read();
    if (r.req_id != base + got) {
      throw std::runtime_error("pipeline: answer " + std::to_string(r.req_id) +
                               " out of order");
    }
    done(got, r);
    ++got;
  }
}

/// Opens `names[idx[i]]` for every i through `c`, pipelined; fills
/// ids/values at those indexes.  Returns seconds taken.
double open_pipelined(Conn& c, const std::vector<std::string>& names,
                      std::string_view spec,
                      const std::vector<std::uint32_t>& idx,
                      std::vector<std::uint64_t>& ids,
                      std::vector<std::uint64_t>& values, Result& res) {
  const std::int64_t t0 = now_ns();
  pipeline(
      c, idx.size(),
      [&](std::size_t i, std::uint64_t req, std::string& out) {
        std::string body;
        put_str16(body, names[idx[i]]);
        put_str16(body, spec);
        out += make_frame(static_cast<std::uint8_t>(Op::kOpen), req, body);
      },
      [&](std::size_t i, const Response& r) {
        Reader rd(r.body);
        std::uint64_t id = 0, value = 0;
        if (r.status != Status::kOk || !rd.get_u64(id) || !rd.get_u64(value)) {
          ++res.failed;
          res.violate("open " + names[idx[i]] + " answered " +
                      std::string(to_string(r.status)));
          return;
        }
        ids[idx[i]] = id;
        values[idx[i]] = value;
      });
  res.attempted += idx.size();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Server-wide Stats pairs; absent keys read 0.
struct ServerFigures {
  std::map<std::string, std::uint64_t> kv;
  double get(const char* k) const {
    auto it = kv.find(k);
    return it == kv.end() ? 0.0 : static_cast<double>(it->second);
  }
};

void put_server_ratios(const ServerFigures& f, Result& res) {
  const double batched = f.get("batched_increments");
  res.put("server.increments_per_flush",
          batched / std::max(1.0, f.get("flushes")), "count");
  res.put("server.batched_ratio",
          batched > 0 ? (batched - f.get("flushes")) / batched : 0.0, "ratio");
  res.put("server.bytes_per_request",
          (f.get("bytes_in") + f.get("bytes_out")) /
              std::max(1.0, f.get("requests")),
          "B");
}

// ================================================================
// remote_wait
// ================================================================

constexpr std::size_t kWaitCounters = 3000;
constexpr int kWaitSetupReps = 3;

struct WaitState {
  std::unique_ptr<CounterServer> server;
  std::unique_ptr<Conn> inc, wait;
  std::vector<std::uint64_t> ids;
};

}  // namespace

Result run_remote_wait(const Settings& s, const Placement& p, Tracer& tracer) {
  Result res;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kWaitCounters; ++i) {
    names.push_back("rw/" + std::to_string(i));
  }
  std::vector<double> open_us;
  WaitState st;
  const double setup_s = median_setup(kWaitSetupReps, [&](bool keep) {
    const std::int64_t t0 = now_ns();
    WaitState w;
    ServerOptions opts;
    opts.uds_path = "rw.sock";
    w.server = std::make_unique<CounterServer>(opts);
    {
      ScopedSpan span(tracer, "server.Start");
      w.server->Start();
    }
    w.inc = std::make_unique<Conn>(connect(opts.uds_path));
    w.wait = std::make_unique<Conn>(connect(opts.uds_path));
    w.ids.resize(kWaitCounters);
    for (std::size_t i = 0; i < kWaitCounters; ++i) {
      Conn& c = (i % 2 == 0) ? *w.inc : *w.wait;
      const std::int64_t t = now_ns();
      {
        ScopedSpan span(tracer, "server.open");
        w.ids[i] = c.client.open(names[i]).id;
      }
      open_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
    }
    res.attempted += kWaitCounters;
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    if (keep) st = std::move(w);
    else w.server->Stop();
    return secs;
  });

  // Round r: key and delta come from the same seeded stream on both
  // sides, so neither has to tell the other what it is about to do.
  struct alignas(64) Shared {
    std::atomic<std::uint64_t> round{0};
    std::atomic<std::int64_t> t0{0};
    std::atomic<std::uint64_t> cause{0};
    std::atomic<bool> stop{false};
  } sh;
  std::vector<std::atomic<std::uint64_t>> issued(kWaitCounters);
  std::vector<std::uint64_t> tally(kWaitCounters, 0);  // acked, by A
  std::uint64_t rounds = 0;
  LatencyHistogram wake, period;
  std::vector<double> probe_us, ack_us;  // traced runs only
  std::uint64_t parked_max = 0;
  std::vector<std::string> wait_violations;
  std::uint64_t wait_failed = 0, inc_failed = 0;
  const std::int64_t deadline = deadline_after(s.seconds);
  auto draw = [&](std::mt19937_64& rng) {
    std::uniform_int_distribution<std::size_t> key(0, kWaitCounters - 1);
    std::uniform_int_distribution<std::uint64_t> delta(1, 4);
    const std::size_t k = key(rng);
    return std::pair<std::size_t, std::uint64_t>(k, delta(rng));
  };

  std::thread waiter([&] {
    pin_to(p.load[1 % p.load.size()]);
    tracer.attach();
    auto rng = make_rng(s.seed, 0x2201);
    std::vector<std::uint64_t> expect(kWaitCounters, 0);
    Conn& c = *st.wait;
    for (std::uint64_t r = 1;; ++r) {
      const auto [k, d] = draw(rng);
      expect[k] += d;
      const std::uint64_t level = expect[k];
      const std::uint64_t req = c.next_raw++;
      const std::uint64_t probe = c.next_raw++;
      const std::int64_t t_park = now_ns();
      c.client.send_frame(Op::kCheck, req, wait_body(st.ids[k], level));
      const std::int64_t t_probe = now_ns();
      c.client.send_frame(Op::kCheck, probe, wait_body(st.ids[k], 0));
      const Response pr = c.await(probe);
      const std::int64_t t_probed = now_ns();
      if (pr.status != Status::kReached) ++wait_failed;
      if (tracer.enabled()) {
        tracer.record("server.check[reached]", t_probe, t_probed,
                      tracer.next_id(), 0);
        probe_us.push_back(static_cast<double>(t_probed - t_probe) / 1e3);
        ScopedSpan span(tracer, "server.stats");
        parked_max = std::max(parked_max, st.server->stats().parked_waits);
      }
      sh.round.store(r, std::memory_order_release);
      const Response wr = c.await(req);
      const std::int64_t t_ret = now_ns();
      const std::int64_t t0 = sh.t0.load(std::memory_order_acquire);
      tracer.record("server.check[parked]", t_park, t_ret, tracer.next_id(),
                    sh.cause.load(std::memory_order_acquire));
      if (wr.status != Status::kReached) {
        ++wait_failed;
      } else {
        wake.add(t_ret - t0);
        if (reached_value(wr) < level ||
            issued[k].load(std::memory_order_acquire) < level) {
          if (wait_violations.size() < 4) {
            wait_violations.push_back("check(" + names[k] + ", " +
                                      std::to_string(level) +
                                      ") released before its level");
          }
        }
      }
      if (sh.stop.load(std::memory_order_acquire)) break;
    }
  });

  std::thread incrementer([&] {
    pin_to(p.load[0]);
    tracer.attach();
    auto rng = make_rng(s.seed, 0x2201);
    Conn& c = *st.inc;
    std::int64_t t_prev = 0;
    for (std::uint64_t r = 1;; ++r) {
      const auto [k, d] = draw(rng);
      while (sh.round.load(std::memory_order_acquire) < r) {
        std::this_thread::yield();
      }
      const bool last = now_ns() >= deadline;
      if (last) sh.stop.store(true, std::memory_order_release);
      const std::int64_t t0 = now_ns();
      if (t_prev != 0) period.add(t0 - t_prev);
      t_prev = t0;
      {
        ScopedSpan span(tracer, "server.increment");
        sh.cause.store(span.id(), std::memory_order_release);
        issued[k].store(tally[k] + d, std::memory_order_release);
        sh.t0.store(t0, std::memory_order_release);
        std::string frame;
        const std::uint64_t req = c.next_raw++;
        append_increment(frame, req, st.ids[k], d);
        c.client.send_raw(frame);
        if (c.await(req).status == Status::kOk) {
          tally[k] += d;
        } else {
          ++inc_failed;
        }
      }
      if (tracer.enabled()) {
        ack_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      }
      ++rounds;
      if (last) break;
    }
  });

  incrementer.join();
  waiter.join();
  for (auto& v : wait_violations) res.violate(v);
  res.attempted += 3 * rounds;  // parked check + probe + increment
  res.failed += wait_failed + inc_failed;

  // Every counter must equal what A saw acked.
  for (std::size_t i = 0; i < kWaitCounters; ++i) {
    const auto v = st.inc->client.open(names[i]).value;
    if (v != tally[i]) {
      res.violate(names[i] + " reads " + std::to_string(v) + ", acked " +
                  std::to_string(tally[i]));
    }
  }
  res.attempted += kWaitCounters;
  ServerFigures figures{st.inc->client.stats(0)};
  if (figures.get("parked_waits") != 0) {
    res.violate("server still holds " +
                std::to_string(figures.kv["parked_waits"]) + " parked waits");
  }

  res.put("setup_s", setup_s, "s");
  // One increment completes per round, so the rate is one over the
  // median round: a round the host stalls for milliseconds (VM steal)
  // does not decide it, as it would a count per second.
  res.put("incr_per_s", 1e6 / period.percentile_us(0.5), "1/s");
  res.put("wake_p50_us", wake.percentile_us(0.5), "us");
  res.put("wake_p90_us", wake.percentile_us(0.9), "us");
  if (s.trace) {
    res.put("server.check_reached_rtt_us", median(probe_us), "us");
    res.put("server.increment_ack_us", median(ack_us), "us");
    res.put("server.open_us", median(open_us), "us");
    res.put("server.parked_waits_max", static_cast<double>(parked_max),
            "count");
  }
  st.inc.reset();
  st.wait.reset();
  st.server->Stop();
  st.server.reset();
  res.put("peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

// ================================================================
// durable_write
// ================================================================

namespace {

constexpr std::size_t kDurableCounters = 100'000;
constexpr double kZipfExponent = 0.99;
constexpr std::size_t kWindow = 64;   // acked increments in flight per conn
constexpr std::size_t kRefill = 16;   // refill when this many slots free
constexpr std::size_t kParked = 4;    // parked checks per connection
constexpr std::size_t kWatchRanks = 256;  // checks watch the hottest keys
constexpr int kDurableSetupReps = 3;
// Ack-rate slices: short enough that a host stall spoils few of them.
constexpr int kDurableSlices = 100;
// The server's default spec preallocates 64 wait nodes per counter,
// about 16 KB a counter and 1.6 GB for 100k names; this workload is
// about the write path, so its counters carry no node pool.
constexpr std::string_view kDurableSpec = "hybrid";

/// Zipf(s) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Connection c owns the keys with k % 2 == c; rank r maps to key
/// 2 * perm_c[r] + c, so each seed puts the hot keys elsewhere.
struct KeySpace {
  std::vector<std::uint32_t> perm[2];
  std::vector<std::uint32_t> owned[2];  // all keys of each connection
  std::uint32_t key(int c, std::size_t rank) const {
    return 2 * perm[c][rank] + static_cast<std::uint32_t>(c);
  }
};

struct DurableState {
  std::string dir;
  std::unique_ptr<CounterServer> server;
  std::unique_ptr<Conn> conn[2];
  std::vector<std::uint64_t> ids;

  void connect_both(const std::string& path) {
    for (auto& c : conn) c = std::make_unique<Conn>(connect(path));
  }
};

ServerOptions durable_options(const std::string& dir) {
  ServerOptions o;
  o.uds_path = dir + "/dw.sock";
  o.state_file = dir + "/state";
  o.journal_fsync = true;
  return o;
}

/// Opens every counter through both connections (each its own half).
double open_all(DurableState& d, const std::vector<std::string>& names,
                const KeySpace& ks, std::vector<std::uint64_t>& values,
                Result& res) {
  d.ids.assign(kDurableCounters, 0);
  values.assign(kDurableCounters, 0);
  double secs = 0;
  for (int c = 0; c < 2; ++c) {
    secs += open_pipelined(*d.conn[c], names, kDurableSpec, ks.owned[c], d.ids,
                           values, res);
  }
  return secs;
}

struct SetupFigures {
  double drain_s = 0;
  double restore_us_per_counter = 0;
  double open_us = 0;
};

/// One set-up: seed every counter on a fresh server, drain it, restart
/// from the snapshot, re-open every name.  `tally` receives the seeded
/// values.
DurableState durable_setup(const std::string& dir,
                           const std::vector<std::string>& names,
                           const KeySpace& ks, std::uint64_t seed,
                           std::vector<std::uint64_t>& tally, Tracer& tracer,
                           Result& res, SetupFigures& fig) {
  std::filesystem::create_directories(dir);
  const ServerOptions opts = durable_options(dir);
  DurableState d;
  d.dir = dir;
  std::vector<std::uint64_t> values;
  double open_s = 0;
  std::uint64_t seeded_epoch = 0;
  {
    CounterServer seeding(opts);
    {
      ScopedSpan span(tracer, "server.Start");
      seeding.Start();
    }
    d.connect_both(opts.uds_path);
    open_s += open_all(d, names, ks, values, res);
    auto rng = make_rng(seed, 0x3301);
    std::uniform_int_distribution<std::uint64_t> initial(0, 3);
    tally.assign(kDurableCounters, 0);
    for (auto& t : tally) t = initial(rng);
    for (int c = 0; c < 2; ++c) {
      const auto& keys = ks.owned[c];
      pipeline(
          *d.conn[c], keys.size(),
          [&](std::size_t i, std::uint64_t req, std::string& out) {
            // Amount 0 is a valid no-op increment; keep every key in
            // the pass so the op count does not depend on the seed.
            append_increment(out, req, d.ids[keys[i]], tally[keys[i]]);
          },
          [&](std::size_t, const Response& r) {
            if (r.status != Status::kOk) ++res.failed;
          });
      res.attempted += keys.size();
    }
    seeded_epoch = seeding.epoch();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer, "server.Drain");
      seeding.Drain();
    }
    fig.drain_s = static_cast<double>(now_ns() - t0) / 1e9;
    d.conn[0].reset();
    d.conn[1].reset();
  }
  d.server = std::make_unique<CounterServer>(opts);
  const std::int64_t t1 = now_ns();
  {
    ScopedSpan span(tracer, "server.Start");
    d.server->Start();
  }
  const double restore_s = static_cast<double>(now_ns() - t1) / 1e9;
  const double restored =
      static_cast<double>(d.server->stats().restored_counters);
  fig.restore_us_per_counter = restore_s * 1e6 / std::max(1.0, restored);
  if (d.server->epoch() != seeded_epoch + 1) {
    res.violate("restore moved the epoch from " +
                std::to_string(seeded_epoch) + " to " +
                std::to_string(d.server->epoch()));
  }
  d.connect_both(opts.uds_path);
  open_s += open_all(d, names, ks, values, res);
  fig.open_us = open_s * 1e6 / (2.0 * kDurableCounters);
  for (std::size_t i = 0; i < kDurableCounters; ++i) {
    if (values[i] != tally[i]) {
      res.violate("after restore " + names[i] + " reads " +
                  std::to_string(values[i]) + ", seeded " +
                  std::to_string(tally[i]));
      break;
    }
  }
  return d;
}

/// One parked check and the send time of the increment that crossed it.
struct Watch {
  bool active = false;
  std::uint64_t req = 0;
  std::uint32_t key = 0;
  std::uint64_t level = 0;
  std::int64_t t_cross = 0;
};

struct WriterOut {
  LatencyHistogram wake;
  std::vector<std::uint64_t> acked;  // by key (own half only)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
};

/// One connection's timed loop.  Stops issuing at the deadline, then
/// crosses its remaining parked checks and waits for every answer.
void writer(Conn& conn, int c, const KeySpace& ks, const Zipf& zipf,
            const std::vector<std::uint64_t>& ids,
            const std::vector<std::uint64_t>& seeded, std::uint64_t seed,
            std::int64_t deadline, std::atomic<std::uint64_t>& acks,
            Tracer& tracer, WriterOut& out) {
  auto rng = make_rng(seed, 0x3310 + static_cast<std::uint64_t>(c));
  std::uniform_int_distribution<std::uint64_t> delta(1, 3);
  std::vector<std::uint64_t> issued = seeded;  // values the server will reach
  out.acked.assign(kDurableCounters, 0);
  struct Sent {
    std::uint32_t key;
    std::uint64_t amount;
  };
  std::unordered_map<std::uint64_t, Sent> pending;  // by req id
  pending.reserve(4 * kWindow);
  Watch watches[kParked];
  bool stopping = false;
  std::string buf;

  auto send_increment = [&](std::uint32_t k, std::uint64_t amount) {
    const std::uint64_t req = conn.next_raw++;
    append_increment(buf, req, ids[k], amount);
    issued[k] += amount;
    pending.emplace(req, Sent{k, amount});
    ++out.attempted;
  };
  auto flush = [&] {
    if (buf.empty()) return;
    const std::int64_t t = now_ns();
    for (Watch& w : watches) {
      if (w.active && w.t_cross == 0 && issued[w.key] >= w.level) w.t_cross = t;
    }
    ScopedSpan span(tracer, "server.send[increments]");
    conn.client.send_raw(buf);
    buf.clear();
  };

  for (;;) {
    if (!stopping && now_ns() >= deadline) {
      stopping = true;
      for (Watch& w : watches) {
        if (w.active && issued[w.key] < w.level) {
          send_increment(w.key, w.level - issued[w.key]);
        }
      }
      flush();
    }
    if (!stopping && pending.size() <= kWindow - kRefill) {
      while (pending.size() < kWindow) {
        send_increment(ks.key(c, zipf(rng)), 1);
      }
      flush();
      for (Watch& w : watches) {
        if (w.active) continue;
        std::size_t rank = zipf(rng);
        while (rank >= kWatchRanks) rank = zipf(rng);
        w = Watch{true, conn.next_raw++, ks.key(c, rank), 0, 0};
        w.level = issued[w.key] + delta(rng);
        ++out.attempted;
        ScopedSpan span(tracer, "server.send[check]");
        conn.client.send_frame(Op::kCheck, w.req,
                               wait_body(ids[w.key], w.level));
      }
    }
    bool watching = false;
    for (const Watch& w : watches) watching |= w.active;
    if (stopping && pending.empty() && !watching) break;

    Response r;
    {
      ScopedSpan span(tracer, "server.read_response");
      r = conn.read();
    }
    if (auto it = pending.find(r.req_id); it != pending.end()) {
      if (r.status == Status::kOk) {
        out.acked[it->second.key] += it->second.amount;
        acks.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++out.failed;
      }
      pending.erase(it);
      continue;
    }
    Watch* w = nullptr;
    for (Watch& cand : watches) {
      if (cand.active && cand.req == r.req_id) w = &cand;
    }
    if (w == nullptr) {
      throw std::runtime_error("durable_write: unexpected answer " +
                               std::to_string(r.req_id));
    }
    const std::int64_t t_ret = now_ns();
    if (r.status != Status::kReached) {
      ++out.failed;
    } else if (w->t_cross == 0 || reached_value(r) < w->level) {
      if (out.violations.size() < 4) {
        out.violations.push_back("check at " + std::to_string(w->level) +
                                 " released before its crossing increment");
      }
    } else {
      out.wake.add(t_ret - w->t_cross);
    }
    w->active = false;
  }
}

/// Acked increments needed to measure journal bytes per ack between
/// two snapshots.
constexpr std::size_t kJournalProbe = 512;

double journal_bytes_per_ack(DurableState& d, std::uint32_t key,
                             std::vector<std::uint64_t>& acked, Result& res) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto before = d.server->stats();
    pipeline(
        *d.conn[0], kJournalProbe,
        [&](std::size_t, std::uint64_t req, std::string& out) {
          append_increment(out, req, d.ids[key], 1);
        },
        [&](std::size_t, const Response& r) {
          if (r.status == Status::kOk) ++acked[key];
          else ++res.failed;
        },
        64);
    res.attempted += kJournalProbe;
    const auto after = d.server->stats();
    if (after.snapshots_written == before.snapshots_written) {
      return static_cast<double>(after.journal_bytes - before.journal_bytes) /
             kJournalProbe;
    }
  }
  return 0;  // a snapshot landed inside every probe
}

}  // namespace

Result run_durable_write(const Settings& s, const Placement& p,
                         Tracer& tracer) {
  Result res;
  std::vector<std::string> names;
  names.reserve(kDurableCounters);
  for (std::size_t i = 0; i < kDurableCounters; ++i) {
    names.push_back("dw/" + std::to_string(i));
  }
  KeySpace ks;
  {
    auto rng = make_rng(s.seed, 0x3300);
    for (int c = 0; c < 2; ++c) {
      ks.perm[c].resize(kDurableCounters / 2);
      for (std::uint32_t i = 0; i < ks.perm[c].size(); ++i) ks.perm[c][i] = i;
      std::shuffle(ks.perm[c].begin(), ks.perm[c].end(), rng);
      for (std::uint32_t i = 0; i < kDurableCounters / 2; ++i) {
        ks.owned[c].push_back(2 * i + static_cast<std::uint32_t>(c));
      }
    }
  }
  const Zipf zipf(kDurableCounters / 2, kZipfExponent);

  std::vector<std::uint64_t> seeded;
  DurableState st;
  std::vector<SetupFigures> figs;
  int rep = 0;
  const double setup_s = median_setup(kDurableSetupReps, [&](bool keep) {
    const std::string dir = "dw" + std::to_string(rep++);
    const std::int64_t t0 = now_ns();
    SetupFigures fig;
    DurableState d =
        durable_setup(dir, names, ks, s.seed, seeded, tracer, res, fig);
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    figs.push_back(fig);
    if (keep) {
      st = std::move(d);
    } else {
      d.conn[0].reset();
      d.conn[1].reset();
      d.server->Stop();
      d.server.reset();
      std::filesystem::remove_all(dir);
    }
    return secs;
  });

  std::atomic<std::uint64_t> acks{0};
  WriterOut out[2];
  const std::int64_t deadline = deadline_after(s.seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      pin_to(p.load[static_cast<std::size_t>(c) % p.load.size()]);
      tracer.attach();
      try {
        writer(*st.conn[c], c, ks, zipf, st.ids, seeded, s.seed, deadline, acks,
               tracer, out[c]);
      } catch (const std::exception& e) {
        out[c].violations.push_back(std::string("writer: ") + e.what());
      }
    });
  }
  RateSlicer slicer([&] { return acks.load(std::memory_order_relaxed); });
  slicer.run(s.seconds, kDurableSlices);
  for (auto& t : threads) t.join();

  std::vector<std::uint64_t> expect = seeded;
  LatencyHistogram wake;
  for (int c = 0; c < 2; ++c) {
    res.attempted += out[c].attempted;
    res.failed += out[c].failed;
    for (auto& v : out[c].violations) res.violate(v);
    for (std::size_t k = 0; k < kDurableCounters; ++k) {
      expect[k] += out[c].acked[k];
    }
    wake.merge(out[c].wake);
  }

  double bytes_per_ack = 0;
  if (s.trace) {
    std::vector<std::uint64_t> probe_acked(kDurableCounters, 0);
    bytes_per_ack =
        journal_bytes_per_ack(st, ks.key(0, 0), probe_acked, res);
    for (std::size_t k = 0; k < kDurableCounters; ++k) {
      expect[k] += probe_acked[k];
    }
  }
  const ServerFigures figures{st.conn[0]->client.stats(0)};

  // Closing drain and restart: every counter must come back exactly at
  // its acked tally, one epoch later.
  st.conn[0].reset();
  st.conn[1].reset();
  {
    ScopedSpan span(tracer, "server.Drain");
    st.server->Drain();
  }
  const std::uint64_t epoch_before = st.server->epoch();
  st.server.reset();
  {
    const ServerOptions opts = durable_options(st.dir);
    CounterServer restarted(opts);
    restarted.Start();
    if (restarted.epoch() != epoch_before + 1) {
      res.violate("closing restart moved the epoch from " +
                  std::to_string(epoch_before) + " to " +
                  std::to_string(restarted.epoch()));
    }
    DurableState check;
    check.connect_both(opts.uds_path);
    std::vector<std::uint64_t> values;
    open_all(check, names, ks, values, res);
    std::size_t wrong = 0;
    for (std::size_t k = 0; k < kDurableCounters; ++k) {
      if (values[k] != expect[k] && wrong++ == 0) {
        res.violate("after restart " + names[k] + " reads " +
                    std::to_string(values[k]) + ", acked " +
                    std::to_string(expect[k]));
      }
    }
    if (wrong > 1) res.violate(std::to_string(wrong) + " counters differ");
    check.conn[0].reset();
    check.conn[1].reset();
    restarted.Stop();
  }
  std::filesystem::remove_all(st.dir);

  res.put("setup_s", setup_s, "s");
  res.put("incr_per_s", slicer.median_rate(), "1/s");
  res.put("wake_p50_us", wake.percentile_us(0.5), "us");
  res.put("wake_p90_us", wake.percentile_us(0.9), "us");
  res.put("peak_rss_mb", peak_rss_mb(), "MB");
  if (s.trace) {
    std::vector<double> drain, restore, open;
    for (const auto& f : figs) {
      drain.push_back(f.drain_s);
      restore.push_back(f.restore_us_per_counter);
      open.push_back(f.open_us);
    }
    res.put("server.open_us", median(open), "us");
    res.put("server.state_file.journal_bytes_per_ack", bytes_per_ack, "B");
    res.put("server.state_file.restore_us_per_counter", median(restore), "us");
    res.put("server.state_file.drain_s", median(drain), "s");
    put_server_ratios(figures, res);
  }
  return res;
}

}  // namespace mcbench
