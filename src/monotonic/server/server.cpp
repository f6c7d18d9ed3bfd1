// server.cpp — event-loop implementation of the counter shard server.
//
// Single-threaded by construction: every map, buffer and timer below
// is owned by the event-loop thread.  The only cross-thread traffic is
// (a) the completion queue, fed by executor workers when a parked
// wait's OnReach fires, drained by the loop after a wakeup-pipe poke,
// and (b) the atomic stats gauges.  Wait registrations are shared
// with the engine through WaitReg tombstones: whoever settles a wait
// first — the completion firing, a CheckFor timer, a disconnect sweep
// — claims it with one atomic exchange, and every later party sees a
// settled reg and does nothing.  That claim is what makes "client died
// while parked" leak-free without an engine-side deregistration API.
//
// Lifetime note: the lambdas handed to OnReach capture a
// shared_ptr<LoopShared>, never the Impl — the engine's completion
// plane may run them on an executor worker at any point up to the
// executor's own destruction, and LoopShared (completion queue, wakeup
// fd, parked gauge) is the only state they may touch.  ~Impl tears
// down in the one safe order: stop the loop, destroy the counters
// (dropping their executor refs), then the executor (drains + joins),
// then the wakeup pipe.

#include "monotonic/server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include "monotonic/core/any_counter.hpp"
#include "monotonic/core/batching_counter.hpp"
#include "monotonic/core/completion.hpp"
#include "monotonic/core/counter_error.hpp"
#include "monotonic/server/protocol.hpp"
#include "monotonic/server/state_file.hpp"

namespace monotonic::server {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

std::string exception_message(std::exception_ptr ep) {
  try {
    std::rethrow_exception(std::move(ep));
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "counter poisoned (non-std::exception cause)";
  }
}

// SIGTERM → graceful drain (ServerOptions::drain_on_sigterm).  The
// handler may only touch async-signal-safe state: a flag the event
// loop polls and a write() to the wakeup pipe that makes it poll NOW.
// Process-wide by necessity — one drain-on-signal server per process.
// The flag is a lock-free atomic, not a volatile sig_atomic_t: the
// handler runs on whichever thread took the signal while the loop
// thread reads it, and sig_atomic_t only orders a handler against the
// thread it interrupted.
std::atomic<bool> g_sigterm_pending{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the SIGTERM flag must be async-signal-safe");
std::atomic<int> g_sigterm_wake_fd{-1};

void sigterm_handler(int) {
  g_sigterm_pending.store(true, std::memory_order_relaxed);
  const int fd = g_sigterm_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

}  // namespace

struct CounterServer::Impl {
  // ---- wait registrations -----------------------------------------

  /// Shared between the loop, the engine's completion plane and the
  /// timer wheel.  `settled` starts false; the first settler (fire /
  /// timeout / disconnect) claims the reg, owns the response (or the
  /// silence, for disconnects), and decrements the matching gauge.
  struct WaitReg {
    std::atomic<bool> settled{false};
    int fd = -1;
    std::uint64_t gen = 0;  ///< connection generation, guards fd reuse
    std::uint64_t req_id = 0;
    std::uint64_t counter_id = 0;
    counter_value_t level = 0;
    bool degraded = false;  ///< on the tick poll list, not in the engine

    /// True for exactly one caller.
    bool claim() { return !settled.exchange(true, std::memory_order_acq_rel); }
  };

  /// Record posted by an executor worker when a parked wait fires;
  /// the loop turns it into a response frame.
  struct Completion {
    std::shared_ptr<WaitReg> reg;
    bool poisoned = false;
    std::string message;  // poison reason
  };

  /// The state an engine-fired completion may touch.  Owned jointly by
  /// the Impl and every registered OnReach lambda, so a fire that
  /// outraces (or outlives) the event loop still lands on live memory.
  struct LoopShared {
    std::mutex cq_mutex;
    std::vector<Completion> cq;
    std::atomic<int> wake_fd{-1};
    std::atomic<std::uint64_t> parked{0};  ///< live engine-parked waits

    void enqueue(Completion c) {
      {
        std::lock_guard<std::mutex> lk(cq_mutex);
        cq.push_back(std::move(c));
      }
      poke();
    }

    void poke() {
      const int fd = wake_fd.load(std::memory_order_acquire);
      if (fd >= 0) {
        const char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
      }
    }
  };

  // ---- logical counters -------------------------------------------

  struct Entry {
    std::string name;
    std::string spec;           ///< as resolved at creation (snapshotted)
    std::string poison_reason;  ///< wire poison reason (snapshotted)
    std::unique_ptr<AnyCounter> counter;
    std::unique_ptr<BatchingIncrementer<AnyCounter>> batcher;
    bool dirty = false;  ///< has buffered increments this tick
  };

  struct Shard {
    std::unordered_map<std::string, std::uint64_t> names;  // name -> id
    std::vector<Entry> entries;                            // local index
  };

  // ---- connections ------------------------------------------------

  struct Connection {
    int fd = -1;
    std::uint64_t gen = 0;
    std::string rbuf;
    std::size_t roff = 0;  ///< parsed prefix of rbuf
    std::string wbuf;
    std::size_t woff = 0;  ///< written prefix of wbuf
    bool gated = false;    ///< kBlockIncrementers backpressure engaged
    std::deque<std::string> gated_frames;  ///< payloads deferred while gated
    std::vector<std::shared_ptr<WaitReg>> waits;  ///< for the death sweep
    bool dead = false;
    bool has_session = false;  ///< Hello received
    std::uint64_t session_hi = 0;
    std::uint64_t session_lo = 0;
  };

  // ---- client sessions (idempotent retries) -----------------------

  /// Dedup state for one Hello session UUID.  Sessions outlive
  /// connections — that is the point: the reconnected client re-sends
  /// its unacknowledged increments under the same session, and the
  /// window absorbs the ones that had already landed.
  struct Session {
    DedupWindow window;
    std::uint64_t last_used = 0;  ///< LRU clock value
  };

  struct SessionKeyHash {
    std::size_t operator()(
        const std::pair<std::uint64_t, std::uint64_t>& k) const noexcept {
      return static_cast<std::size_t>(k.first ^ (k.second * 0x9e3779b97f4a7c15ULL));
    }
  };

  struct Timer {
    std::chrono::steady_clock::time_point deadline;
    std::shared_ptr<WaitReg> reg;
    bool operator>(const Timer& o) const { return deadline > o.deadline; }
  };

  // ---- state ------------------------------------------------------

  ServerOptions opts;
  std::shared_ptr<LoopShared> shared = std::make_shared<LoopShared>();
  std::vector<Shard> shards;
  std::shared_ptr<CompletionExecutor> executor;
  std::unordered_map<int, Connection> conns;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers;
  std::vector<std::shared_ptr<WaitReg>> degraded;  ///< tick poll list
  std::vector<std::pair<std::size_t, std::size_t>> dirty;  ///< (shard, idx)

  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, Session,
                     SessionKeyHash>
      sessions;
  std::uint64_t lru_clock = 0;

  int uds_fd = -1;
  int tcp_fd = -1;
  int wake_r = -1;
  int wake_w = -1;
  std::uint16_t bound_tcp_port = 0;
  std::thread loop;
  std::atomic<bool> stopping{false};
  std::atomic<bool> drain_requested{false};
  std::atomic<bool> drained{false};
  bool started = false;

  // Durable state (opts.state_file).  All loop-thread-owned except the
  // atomics stats() reads.
  std::atomic<std::uint64_t> epoch{1};
  std::uint64_t generation = 1;  ///< snapshot/journal glue
  int journal_fd = -1;
  std::string journal_pending;        ///< this tick's records
  std::size_t journal_since_rotate = 0;
  std::size_t snapshot_bytes = 0;     ///< size of the last snapshot written
  std::size_t snapshot_due = 0;       ///< journal bytes that trigger the next
  bool journal_write_failed = false;  ///< warn-once latch

  // Loop-side counters; atomics only because stats() reads them from
  // other threads.
  std::atomic<std::uint64_t> s_accepted{0}, s_conns{0}, s_counters{0},
      s_requests{0}, s_responses{0}, s_degraded{0}, s_gated{0},
      s_rejections{0}, s_batched{0}, s_flushes{0}, s_proto_errors{0},
      s_bytes_in{0}, s_bytes_out{0}, s_restored{0}, s_snapshots{0},
      s_journal_records{0}, s_journal_bytes{0}, s_sessions{0}, s_dedup{0},
      s_slow_consumer{0}, s_shutdown_replies{0}, s_snapshot_bytes{0},
      s_snapshot_failures{0};

  explicit Impl(ServerOptions o) : opts(std::move(o)) {
    if (opts.shards == 0) opts.shards = 1;
    if (opts.batch_size == 0) opts.batch_size = 1;
    if (opts.max_sessions == 0) opts.max_sessions = 1;
    shards.resize(opts.shards);
    executor = std::make_shared<ThreadPoolExecutor>(
        opts.executor_threads == 0 ? 1 : opts.executor_threads);
  }

  ~Impl() {
    stop();
    // Counters drop their executor refs, then the (now sole) executor
    // ref drains and joins the workers, then the pipe the workers were
    // poking can close.  See the lifetime note atop this file.
    shards.clear();
    executor.reset();
    if (journal_fd >= 0) ::close(journal_fd);
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0) ::close(wake_w);
  }

  bool persist() const { return !opts.state_file.empty(); }
  std::string journal_path() const { return opts.state_file + ".journal"; }

  // ---- id mapping -------------------------------------------------
  // id = local_index * nshards + shard + 1; 0 is reserved (Stats:
  // server-wide), so ids are opaque-but-stable handles.

  std::uint64_t id_of(std::size_t shard, std::size_t idx) const {
    return idx * shards.size() + shard + 1;
  }

  Entry* entry_of(std::uint64_t id) {
    if (id == 0) return nullptr;
    const std::size_t shard = (id - 1) % shards.size();
    const std::size_t idx = (id - 1) / shards.size();
    if (idx >= shards[shard].entries.size()) return nullptr;
    return &shards[shard].entries[idx];
  }

  std::size_t shard_of(std::string_view name) const {
    return std::hash<std::string_view>{}(name) % shards.size();
  }

  /// Current id of a named counter, 0 when unknown.
  std::uint64_t id_of_entry(std::string_view name) const {
    const Shard& sh = shards[shard_of(name)];
    const auto it = sh.names.find(std::string(name));
    return it == sh.names.end() ? 0 : it->second;
  }

  /// The shared open path (wire Open, snapshot restore, journal
  /// replay): returns the existing entry for `name` or creates one
  /// with `spec` (empty = default).  nullptr = the spec failed to
  /// parse — the caller decides whether that is kBadRequest (wire) or
  /// a skip (restore of a spec written by a newer binary).
  Entry* find_or_create(std::string_view name, std::string_view spec) {
    Shard& sh = shards[shard_of(name)];
    if (auto it = sh.names.find(std::string(name)); it != sh.names.end()) {
      return entry_of(it->second);
    }
    Entry entry;
    entry.name = std::string(name);
    entry.spec =
        spec.empty() ? opts.default_spec : std::string(spec);
    try {
      // The shared executor is ambient: every logical counter's
      // completions drain through one pool, so a million counters do
      // not mean a million threads.
      entry.counter = make_counter(entry.spec, executor);
    } catch (const std::invalid_argument&) {
      return nullptr;
    }
    entry.batcher = std::make_unique<BatchingIncrementer<AnyCounter>>(
        *entry.counter, opts.batch_size);
    sh.entries.push_back(std::move(entry));
    const std::uint64_t id =
        id_of(shard_of(name), sh.entries.size() - 1);
    sh.names.emplace(std::string(name), id);
    s_counters.fetch_add(1, std::memory_order_relaxed);
    return entry_of(id);
  }

  // ---- lifecycle --------------------------------------------------

  void start() {
    if (started) return;
    if (wake_r < 0) {
      int pipefd[2];
      if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) throw_errno("pipe2");
      wake_r = pipefd[0];
      wake_w = pipefd[1];
      shared->wake_fd.store(wake_w, std::memory_order_release);
    }
    // Restore BEFORE the listeners bind: no client can observe a
    // partially restored name table.
    if (persist()) restore_state();
    if (opts.drain_on_sigterm) {
      g_sigterm_pending.store(false, std::memory_order_relaxed);
      g_sigterm_wake_fd.store(wake_w, std::memory_order_relaxed);
      struct sigaction sa{};
      sa.sa_handler = sigterm_handler;
      ::sigemptyset(&sa.sa_mask);
      ::sigaction(SIGTERM, &sa, nullptr);
    }
    if (!opts.uds_path.empty()) bind_uds();
    if (opts.tcp_port != 0 || opts.tcp_any_port) bind_tcp();
    started = true;
    stopping.store(false);
    drain_requested.store(false);
    drained.store(false);
    loop = std::thread([this] { run(); });
  }

  // ---- durable state: restore / journal / snapshot ----------------

  /// Start-time restore: snapshot, then journal replay, then an
  /// immediate compacting snapshot under a fresh generation.  Runs on
  /// the caller's thread before the loop exists, so it may touch
  /// everything freely.
  void restore_state() {
    StateSnapshot snap;
    std::unordered_map<std::uint64_t, std::uint64_t> id_map;  // old → new
    const bool have_snap = load_snapshot(opts.state_file, snap);
    if (have_snap) {
      epoch.store(snap.epoch + 1, std::memory_order_relaxed);
      generation = snap.generation;
      for (const CounterRecord& rec : snap.counters) {
        Entry* entry = find_or_create(rec.name, rec.spec);
        if (entry == nullptr) continue;  // spec no longer parses: skip
        id_map[rec.id] = id_of_entry(rec.name);
        if (rec.value > 0) entry->counter->Increment(rec.value);
        if (rec.poisoned) poison_entry(*entry, rec.poison_reason);
      }
      for (const SessionRecord& rec : snap.sessions) {
        Session& s = touch_session(rec.hi, rec.lo);
        s.window.restore(rec);
      }
    }
    std::vector<JournalRecord> records;
    if (load_journal(journal_path(), generation, records)) {
      for (const JournalRecord& rec : records) {
        switch (rec.op) {
          case JournalOp::kOpen: {
            Entry* entry = find_or_create(rec.name, rec.spec);
            if (entry != nullptr) id_map[rec.id] = id_of_entry(rec.name);
            break;
          }
          case JournalOp::kIncrement: {
            auto it = id_map.find(rec.id);
            if (it == id_map.end()) break;
            Entry* entry = entry_of(it->second);
            if (entry == nullptr || entry->counter->poisoned()) break;
            if ((rec.session_hi | rec.session_lo) != 0) {
              Session& s = touch_session(rec.session_hi, rec.session_lo);
              if (s.window.seen(rec.seq)) break;  // snapshot had it
              s.window.record(rec.seq);
            }
            entry->counter->Increment(rec.amount);
            break;
          }
          case JournalOp::kPoison: {
            auto it = id_map.find(rec.id);
            if (it == id_map.end()) break;
            Entry* entry = entry_of(it->second);
            if (entry != nullptr) poison_entry(*entry, rec.reason);
            break;
          }
        }
      }
    }
    s_restored.store(s_counters.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    // Compact: everything just replayed becomes the new snapshot; the
    // journal restarts empty under generation+1 (the old journal can
    // no longer be double-applied).  A server that cannot write it
    // would ack increments it cannot journal, so it refuses to start.
    if (!write_snapshot()) {
      const int err = errno;
      throw std::system_error(err, std::generic_category(),
                              "cannot write snapshot " + opts.state_file);
    }
  }

  /// Poisons an entry with a wire-style reason, recording the reason
  /// for the next snapshot.
  void poison_entry(Entry& entry, const std::string& reason) {
    entry.poison_reason = reason;
    entry.counter->Poison(std::make_exception_ptr(CounterPoisonedError(
        reason.empty() ? "poisoned via wire" : reason)));
  }

  /// Appends one record to this tick's journal buffer, encoded in place
  /// by `append` (one of state_file.hpp's append_journal_*).  The buffer
  /// is written + fsynced by commit_journal() BEFORE flush_writes() —
  /// the group-commit ordering that makes "acked" imply "durable".
  template <typename Append, typename... Args>
  void journal_append(Append append, const Args&... args) {
    if (!persist()) return;
    append(journal_pending, args...);
    s_journal_records.fetch_add(1, std::memory_order_relaxed);
  }

  void commit_journal() {
    if (journal_pending.empty()) return;
    if (journal_fd < 0 || !detail::write_all(journal_fd, journal_pending)) {
      if (!journal_write_failed) {
        journal_write_failed = true;
        std::fprintf(stderr,
                     "monotonic-server: journal write to %s failed (%s); "
                     "durability degraded until the next snapshot\n",
                     journal_path().c_str(), std::strerror(errno));
      }
    } else if (opts.journal_fsync) {
      ::fsync(journal_fd);
    }
    journal_since_rotate += journal_pending.size();
    s_journal_bytes.store(journal_since_rotate, std::memory_order_relaxed);
    journal_pending.clear();
  }

  /// Full snapshot + journal rotation, streamed straight from the name
  /// table into one buffer sized by the previous snapshot.  Callers
  /// settle every batcher first (flush_dirty), so each engine value is
  /// exact.  The tick's un-committed journal records are superseded by
  /// the snapshot (their effects are already applied to the engines),
  /// so they are dropped, not synced.  false (errno set) = the
  /// snapshot or the fresh journal could not be written.
  bool write_snapshot() {
    assert(dirty.empty());
    SnapshotEncoder enc(epoch.load(std::memory_order_relaxed), generation + 1,
                        DedupWindow(opts.dedup_window).window(),
                        snapshot_bytes + snapshot_bytes / 8);
    for (std::size_t sh = 0; sh < shards.size(); ++sh) {
      for (std::size_t i = 0; i < shards[sh].entries.size(); ++i) {
        const Entry& entry = shards[sh].entries[i];
        assert(entry.batcher->pending() == 0);
        enc.add_counter(id_of(sh, i), entry.name, entry.spec,
                        entry.counter->value_lower_bound(),
                        entry.counter->poisoned(), entry.poison_reason);
      }
    }
    for (const auto& [key, session] : sessions) {
      enc.add_session(key.first, key.second, session.window.max_seq(),
                      session.window.bits());
    }
    const std::string bytes = std::move(enc).finish();
    if (!save_snapshot(opts.state_file, bytes)) {
      return snapshot_failed("snapshot", opts.state_file);
    }
    ++generation;
    journal_pending.clear();
    snapshot_bytes = bytes.size();
    s_snapshot_bytes.store(snapshot_bytes, std::memory_order_relaxed);
    s_snapshots.fetch_add(1, std::memory_order_relaxed);
    if (!rotate_journal()) return snapshot_failed("journal", journal_path());
    return true;
  }

  /// Reports and counts a failed snapshot or journal rotation; returns
  /// false with errno kept for the caller.
  bool snapshot_failed(const char* what, const std::string& path) {
    const int err = errno;
    std::fprintf(stderr, "monotonic-server: %s write to %s failed (%s)\n",
                 what, path.c_str(), std::strerror(err));
    s_snapshot_failures.fetch_add(1, std::memory_order_relaxed);
    errno = err;
    return false;
  }

  /// Journal bytes a snapshot is allowed to cost: never less than the
  /// configured floor, and never less than the snapshot it would
  /// rewrite, so snapshot bytes written stay bounded by journal bytes
  /// written (and crash replay by about one snapshot's worth).
  std::size_t compaction_budget() const {
    return std::max(opts.snapshot_journal_bytes, snapshot_bytes);
  }

  bool rotate_journal() {
    if (journal_fd >= 0) ::close(journal_fd);
    journal_fd = ::open(journal_path().c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                        0644);
    if (journal_fd >= 0) {
      detail::write_all(journal_fd, encode_journal_header(generation));
      ::fsync(journal_fd);
      journal_write_failed = false;
    }
    journal_since_rotate = 0;
    snapshot_due = compaction_budget();
    s_journal_bytes.store(0, std::memory_order_relaxed);
    return journal_fd >= 0;
  }

  // ---- sessions ---------------------------------------------------

  Session& touch_session(std::uint64_t hi, std::uint64_t lo) {
    const auto key = std::make_pair(hi, lo);
    auto it = sessions.find(key);
    if (it == sessions.end()) {
      if (sessions.size() >= opts.max_sessions) evict_lru_session();
      it = sessions.emplace(key, Session{DedupWindow(opts.dedup_window), 0})
               .first;
      s_sessions.store(sessions.size(), std::memory_order_relaxed);
    }
    it->second.last_used = ++lru_clock;
    return it->second;
  }

  void evict_lru_session() {
    auto victim = sessions.begin();
    for (auto it = sessions.begin(); it != sessions.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    if (victim != sessions.end()) sessions.erase(victim);
    s_sessions.store(sessions.size(), std::memory_order_relaxed);
  }

  void bind_uds() {
    uds_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (uds_fd < 0) throw_errno("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.uds_path.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument("uds_path too long: " + opts.uds_path);
    }
    std::memcpy(addr.sun_path, opts.uds_path.c_str(), opts.uds_path.size() + 1);
    ::unlink(opts.uds_path.c_str());
    if (::bind(uds_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("bind(AF_UNIX)");
    }
    if (::listen(uds_fd, 128) != 0) throw_errno("listen(AF_UNIX)");
  }

  void bind_tcp() {
    tcp_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (tcp_fd < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts.tcp_port);
    if (::bind(tcp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("bind(127.0.0.1)");
    }
    if (::listen(tcp_fd, 128) != 0) throw_errno("listen(tcp)");
    socklen_t len = sizeof(addr);
    ::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_tcp_port = ntohs(addr.sin_port);
  }

  void stop() {
    if (!started) return;
    stopping.store(true);
    shared->poke();
    if (loop.joinable()) loop.join();
    for (auto& [fd, conn] : conns) ::close(fd);
    conns.clear();
    auto close_if = [](int& fd) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    };
    close_if(uds_fd);
    close_if(tcp_fd);
    if (!opts.uds_path.empty()) ::unlink(opts.uds_path.c_str());
    started = false;
  }

  // ---- event loop -------------------------------------------------

  void run() {
    std::vector<pollfd> pfds;
    std::vector<int> ready;
    while (!stopping.load(std::memory_order_relaxed)) {
      pfds.clear();
      pfds.push_back({wake_r, POLLIN, 0});
      if (uds_fd >= 0) pfds.push_back({uds_fd, POLLIN, 0});
      if (tcp_fd >= 0) pfds.push_back({tcp_fd, POLLIN, 0});
      for (auto& [fd, conn] : conns) {
        short events = 0;
        if (!conn.gated) events |= POLLIN;
        if (conn.woff < conn.wbuf.size()) events |= POLLOUT;
        pfds.push_back({fd, events, 0});
      }
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), poll_timeout_ms());
      if (stopping.load(std::memory_order_relaxed)) break;

      // Wakeup pipe: drain, then take the completion queue.
      if (pfds[0].revents & POLLIN) {
        char buf[256];
        while (::read(wake_r, buf, sizeof(buf)) > 0) {
        }
      }
      drain_completions();

      std::size_t i = 1;
      if (uds_fd >= 0 && (pfds[i++].revents & POLLIN)) accept_all(uds_fd);
      if (tcp_fd >= 0 && (pfds[i++].revents & POLLIN)) accept_all(tcp_fd);

      // Snapshot ready fds: dispatch may open/close connections, which
      // mutates `conns` under us otherwise.
      ready.clear();
      for (; i < pfds.size(); ++i) {
        if (pfds[i].revents != 0) ready.push_back(pfds[i].fd);
      }
      for (int fd : ready) {
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        handle_io(it->second);
      }

      poll_degraded();
      expire_timers();
      retry_gated();
      flush_dirty();
      // Group commit: this tick's journal records hit disk BEFORE any
      // of this tick's responses leave in flush_writes() — an acked
      // increment (or an observed kReached) is durable by the time the
      // client sees it.
      commit_journal();
      maybe_snapshot();
      flush_writes();
      reap_dead();

      if (drain_requested.load(std::memory_order_relaxed) ||
          (opts.drain_on_sigterm &&
           g_sigterm_pending.load(std::memory_order_relaxed))) {
        perform_drain();
        break;
      }
    }
  }

  /// Rewrite the snapshot once the journal outgrows compaction_budget()
  /// — bounds crash-replay time without fsync-per-request cost.  After a
  /// failure the old snapshot + journal pair stays authoritative, and
  /// the retry waits for another budget's worth of journal instead of
  /// re-encoding the whole table every tick.
  void maybe_snapshot() {
    if (!persist() || journal_since_rotate <= snapshot_due) return;
    if (!write_snapshot()) {
      snapshot_due = journal_since_rotate + compaction_budget();
    }
  }

  /// The orderly exit (Drain() / SIGTERM): everything a crash would
  /// lose or a client would have to discover the hard way is settled
  /// explicitly — waits answered kShuttingDown (typed, so retry-aware
  /// clients back off instead of storming the dead listener), state
  /// snapshotted, response buffers flushed best-effort.
  void perform_drain() {
    // Refuse new work first: close + unlink the listeners.
    auto close_if = [](int& fd) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    };
    close_if(uds_fd);
    close_if(tcp_fd);
    if (!opts.uds_path.empty()) ::unlink(opts.uds_path.c_str());

    drain_completions();  // settle anything already fired
    for (auto& [fd, conn] : conns) {
      for (const auto& reg : conn.waits) {
        if (!reg->claim()) continue;
        on_loop_claim(*reg);
        respond(conn, Status::kShuttingDown, reg->req_id);
        s_shutdown_replies.fetch_add(1, std::memory_order_relaxed);
      }
      // Frames deferred under backpressure get the same answer: their
      // req_id is at a fixed offset in the deferred payload.
      while (!conn.gated_frames.empty()) {
        const std::string frame = std::move(conn.gated_frames.front());
        conn.gated_frames.pop_front();
        Reader r(frame);
        std::uint8_t op = 0;
        std::uint64_t req_id = 0;
        if (r.get_u8(op) && r.get_u64(req_id)) {
          respond(conn, Status::kShuttingDown, req_id);
          s_shutdown_replies.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (conn.gated) {
        conn.gated = false;
        s_gated.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    degraded.clear();  // every reg above is claimed; drop the poll list

    flush_dirty();
    commit_journal();
    if (persist()) write_snapshot();

    // Best-effort flush of the kShuttingDown replies: bounded, so a
    // stuck client cannot hold the drain hostage.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    for (;;) {
      flush_writes();
      reap_dead();
      bool pending = false;
      for (auto& [fd, conn] : conns) {
        if (conn.woff < conn.wbuf.size()) pending = true;
      }
      if (!pending || std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    drained.store(true, std::memory_order_release);
    stopping.store(true, std::memory_order_relaxed);
  }

  int poll_timeout_ms() {
    using namespace std::chrono;
    // The degraded poll list needs a tick cadence even when the
    // sockets are quiet; 1ms mirrors the engine gate's bounded nap.
    if (!degraded.empty()) return 1;
    if (timers.empty()) return 1000;
    const auto now = steady_clock::now();
    if (timers.top().deadline <= now) return 0;
    const auto ms = duration_cast<milliseconds>(timers.top().deadline - now);
    return static_cast<int>(std::clamp<long long>(ms.count() + 1, 1, 1000));
  }

  void accept_all(int listen_fd) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      set_nonblocking(fd);
      Connection conn;
      conn.fd = fd;
      conn.gen = ++next_gen_;
      conns.emplace(fd, std::move(conn));
      s_accepted.fetch_add(1, std::memory_order_relaxed);
      s_conns.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::uint64_t next_gen_ = 0;

  // ---- per-connection I/O -----------------------------------------

  void handle_io(Connection& conn) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        s_bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                             std::memory_order_relaxed);
        conn.rbuf.append(buf, static_cast<std::size_t>(n));
        if (n < static_cast<ssize_t>(sizeof(buf))) break;
        continue;
      }
      if (n == 0) {
        conn.dead = true;
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.dead = true;
      return;
    }
    parse_frames(conn);
  }

  void parse_frames(Connection& conn) {
    while (!conn.dead) {
      const std::size_t avail = conn.rbuf.size() - conn.roff;
      if (avail < 4) break;
      Reader len_r(conn.rbuf.data() + conn.roff, 4);
      std::uint32_t len = 0;
      len_r.get_u32(len);
      // A frame must at least carry opcode + req_id; an oversized or
      // runt length word means the stream cannot be resynchronized —
      // name the offense in a final kBadRequest (req_id 0: the frame
      // header never parsed, so there is no id to echo), then drop the
      // connection.  The reply still flushes: the tick's flush_writes
      // runs before reap_dead closes the fd.
      if (len < 9 || len > kMaxFramePayload) {
        s_proto_errors.fetch_add(1, std::memory_order_relaxed);
        respond_message(
            conn, Status::kBadRequest, 0,
            "unframeable length " + std::to_string(len) + " (frames carry " +
                std::to_string(kMaxFramePayload) +
                " payload bytes at most, 9 at least); closing connection");
        conn.dead = true;
        return;
      }
      if (avail < 4 + len) break;
      const std::string_view payload(conn.rbuf.data() + conn.roff + 4, len);
      conn.roff += 4 + len;
      dispatch(conn, payload);
      if (conn.gated) break;  // backpressure: stop consuming input
    }
    if (conn.roff == conn.rbuf.size()) {
      conn.rbuf.clear();
      conn.roff = 0;
    } else if (conn.roff > 64 * 1024) {
      conn.rbuf.erase(0, conn.roff);
      conn.roff = 0;
    }
  }

  void respond(Connection& conn, Status status, std::uint64_t req_id,
               std::string_view body = {}) {
    conn.wbuf += make_frame(static_cast<std::uint8_t>(status), req_id, body);
    s_responses.fetch_add(1, std::memory_order_relaxed);
    // A consumer that stops reading does not get to grow wbuf without
    // bound: past the cap the connection is dropped, not the server.
    if (opts.max_outbound_bytes != 0 &&
        conn.wbuf.size() - conn.woff > opts.max_outbound_bytes && !conn.dead) {
      s_slow_consumer.fetch_add(1, std::memory_order_relaxed);
      conn.dead = true;
    }
  }

  void respond_message(Connection& conn, Status status, std::uint64_t req_id,
                       std::string_view message) {
    std::string body;
    put_str16(body, message);
    respond(conn, status, req_id, body);
  }

  // ---- request dispatch -------------------------------------------

  void dispatch(Connection& conn, std::string_view payload) {
    s_requests.fetch_add(1, std::memory_order_relaxed);
    Reader r(payload);
    std::uint8_t op = 0;
    std::uint64_t req_id = 0;
    r.get_u8(op);       // parse_frames guaranteed 9 bytes,
    r.get_u64(req_id);  // so these cannot fail
    switch (static_cast<Op>(op)) {
      case Op::kOpen:
        return do_open(conn, req_id, r);
      case Op::kIncrement:
        return do_increment(conn, req_id, r);
      case Op::kCheck:
      case Op::kOnReach:
        return do_wait(conn, req_id, r, /*timed=*/false, payload);
      case Op::kCheckFor:
        return do_wait(conn, req_id, r, /*timed=*/true, payload);
      case Op::kPoison:
        return do_poison(conn, req_id, r);
      case Op::kStats:
        return do_stats(conn, req_id, r);
      case Op::kHello:
        return do_hello(conn, req_id, r);
      case Op::kResolve:
        return do_resolve(conn, req_id, r);
    }
    bad_request(conn, req_id, "unknown opcode " + std::to_string(op));
  }

  void bad_request(Connection& conn, std::uint64_t req_id,
                   std::string_view what) {
    s_proto_errors.fetch_add(1, std::memory_order_relaxed);
    respond_message(conn, Status::kBadRequest, req_id, what);
  }

  void do_open(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::string_view name, spec;
    if (!r.get_str16(name) || !r.get_str16(spec) || name.empty()) {
      return bad_request(conn, req_id, "Open: want name+spec, non-empty name");
    }
    std::uint64_t id = id_of_entry(name);
    if (id == 0) {
      // Fresh create (reopen returns the same id, spec ignored —
      // names are the identity).
      if (opts.max_counters != 0 &&
          s_counters.load(std::memory_order_relaxed) >= opts.max_counters) {
        s_rejections.fetch_add(1, std::memory_order_relaxed);
        return respond_message(conn, Status::kOverloaded, req_id,
                               "counter limit reached");
      }
      Entry* created = find_or_create(name, spec);
      if (created == nullptr) {
        return bad_request(conn, req_id,
                           "Open: unparseable spec '" + std::string(spec) +
                               "'");
      }
      id = id_of_entry(name);
      journal_append(append_journal_open, id, name, created->spec);
    }
    Entry* entry = entry_of(id);
    std::string body;
    put_u64(body, id);
    put_u64(body, entry->counter->value_lower_bound());
    respond(conn, Status::kOk, req_id, body);
  }

  void do_hello(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::uint64_t hi = 0, lo = 0;
    if (!r.get_u64(hi) || !r.get_u64(lo)) {
      return bad_request(conn, req_id, "Hello: want session_hi+session_lo");
    }
    conn.has_session = (hi | lo) != 0;
    conn.session_hi = hi;
    conn.session_lo = lo;
    std::uint64_t window = 0;
    if (conn.has_session) window = touch_session(hi, lo).window.window();
    std::string body;
    put_u64(body, epoch.load(std::memory_order_relaxed));
    put_u64(body, window);
    respond(conn, Status::kOk, req_id, body);
  }

  void do_resolve(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::string_view name;
    if (!r.get_str16(name) || name.empty()) {
      return bad_request(conn, req_id, "Resolve: want non-empty name");
    }
    const std::uint64_t id = id_of_entry(name);
    if (id == 0) {
      return respond_message(conn, Status::kUnknownCounter, req_id,
                             "no counter named '" + std::string(name) + "'");
    }
    Entry* entry = entry_of(id);
    flush_entry(*entry);
    std::string body;
    put_u64(body, id);
    put_u64(body, entry->counter->value_lower_bound());
    respond(conn, Status::kOk, req_id, body);
  }

  void do_increment(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::uint64_t id = 0, amount = 0;
    std::uint8_t flags = 0;
    if (!r.get_u64(id) || !r.get_u64(amount) || !r.get_u8(flags)) {
      return bad_request(conn, req_id, "Increment: want id+amount+flags");
    }
    const bool ack = (flags & kIncrementNoAck) == 0;
    std::uint64_t seq = 0;
    if ((flags & kIncrementHasSeq) != 0 && !r.get_u64(seq)) {
      return bad_request(conn, req_id,
                         "Increment: has-seq flag set but no trailing seq");
    }
    Entry* entry = entry_of(id);
    if (entry == nullptr) {
      if (ack) {
        respond_message(conn, Status::kUnknownCounter, req_id,
                        "no counter with id " + std::to_string(id));
      }
      return;
    }
    if (entry->counter->poisoned()) {
      // The engine absorbs post-poison increments as counted drops;
      // an acked client gets the typed error instead of a silent ok.
      // Checked before dedup on purpose: the seq is NOT recorded, and
      // a retried pre-poison increment that did land answers through
      // the seen() branch below — the frozen value already counts it.
      if (ack) {
        respond_message(conn, Status::kPoisoned, req_id,
                        "counter '" + entry->name + "' is poisoned");
      }
      return;
    }
    if (seq != 0 && conn.has_session) {
      Session& session = touch_session(conn.session_hi, conn.session_lo);
      if (session.window.seen(seq)) {
        // A retry of an increment that already landed: ack as if it
        // just succeeded — at-least-once delivery, exactly-once apply.
        s_dedup.fetch_add(1, std::memory_order_relaxed);
        if (ack) respond(conn, Status::kOk, req_id);
        return;
      }
      session.window.record(seq);
    }
    journal_append(append_journal_increment, id, amount, conn.session_hi,
                   conn.session_lo, seq);
    // Per-tick batching: the BatchingIncrementer flushes itself every
    // `batch_size` units (the decorator's sub-batch logic); whatever
    // remains flushes at tick end (flush_dirty) or on the next read.
    entry->batcher->Increment(amount);
    s_batched.fetch_add(1, std::memory_order_relaxed);
    if (!entry->dirty) {
      entry->dirty = true;
      dirty.emplace_back((id - 1) % shards.size(), (id - 1) / shards.size());
    }
    if (ack) respond(conn, Status::kOk, req_id);
  }

  /// Read-your-writes: any operation that observes a counter's value
  /// flushes its batch first.
  void flush_entry(Entry& entry) {
    if (entry.batcher->pending() > 0) {
      entry.batcher->flush();
      s_flushes.fetch_add(1, std::memory_order_relaxed);
    }
    entry.dirty = false;
  }

  void do_wait(Connection& conn, std::uint64_t req_id, Reader& r, bool timed,
               std::string_view payload) {
    std::uint64_t id = 0, level = 0, timeout_ns = 0;
    if (!r.get_u64(id) || !r.get_u64(level) ||
        (timed && !r.get_u64(timeout_ns))) {
      return bad_request(conn, req_id, "wait: want id+level[+timeout_ns]");
    }
    Entry* entry = entry_of(id);
    if (entry == nullptr) {
      return respond_message(conn, Status::kUnknownCounter, req_id,
                             "no counter with id " + std::to_string(id));
    }
    flush_entry(*entry);
    // Fast path: already reached — answer inline, no registration.
    const counter_value_t value = entry->counter->value_lower_bound();
    if (value >= level) {
      std::string body;
      put_u64(body, value);
      return respond(conn, Status::kReached, req_id, body);
    }
    if (entry->counter->poisoned()) {
      return respond_message(
          conn, Status::kPoisoned, req_id,
          "counter '" + entry->name + "' poisoned below level");
    }
    if (timed && timeout_ns == 0) {
      return respond(conn, Status::kTimedOut, req_id);
    }

    // Admission control over parked waits: PR 5's policy triple mapped
    // onto connections (see server.hpp).
    if (opts.max_parked_waits != 0 &&
        shared->parked.load(std::memory_order_relaxed) >=
            opts.max_parked_waits) {
      switch (opts.overload_policy) {
        case OverloadPolicy::kThrow:
          s_rejections.fetch_add(1, std::memory_order_relaxed);
          return respond_message(
              conn, Status::kOverloaded, req_id,
              "wait admission: " + std::to_string(opts.max_parked_waits) +
                  " waits already parked");
        case OverloadPolicy::kSpinFallback: {
          // Degraded wait: no engine registration; the tick loop polls
          // the value.  Timed degraded waits still get a timer.
          s_rejections.fetch_add(1, std::memory_order_relaxed);
          auto reg = make_reg(conn, req_id, id, level);
          reg->degraded = true;
          degraded.push_back(reg);
          s_degraded.fetch_add(1, std::memory_order_relaxed);
          if (timed) arm_timer(reg, timeout_ns);
          return;
        }
        case OverloadPolicy::kBlockIncrementers:
          // Backpressure: defer this frame and stop reading the
          // connection; retry_gated() re-dispatches when capacity
          // frees.  The client's pipelined traffic stalls in the
          // socket buffer — its incrementers feel the overload.
          if (!conn.gated) {
            conn.gated = true;
            s_gated.fetch_add(1, std::memory_order_relaxed);
          }
          conn.gated_frames.emplace_back(payload);
          return;
      }
    }

    auto reg = make_reg(conn, req_id, id, level);
    shared->parked.fetch_add(1, std::memory_order_relaxed);
    if (timed) arm_timer(reg, timeout_ns);
    // Parked connection: the engine holds the registration; the fire
    // runs on the shared executor, posts a completion and pokes the
    // loop.  A settled (timed-out / disconnected) reg makes the fire
    // a no-op, and the lambdas touch only LoopShared (lifetime note
    // atop this file).
    entry->counter->OnReach(
        level,
        [sh = shared, reg] {
          if (!reg->claim()) return;
          sh->parked.fetch_sub(1, std::memory_order_relaxed);
          sh->enqueue({reg, false, {}});
        },
        [sh = shared, reg](std::exception_ptr ep) {
          if (!reg->claim()) return;
          sh->parked.fetch_sub(1, std::memory_order_relaxed);
          sh->enqueue({reg, true, exception_message(std::move(ep))});
        });
  }

  std::shared_ptr<WaitReg> make_reg(Connection& conn, std::uint64_t req_id,
                                    std::uint64_t id, counter_value_t level) {
    auto reg = std::make_shared<WaitReg>();
    reg->fd = conn.fd;
    reg->gen = conn.gen;
    reg->req_id = req_id;
    reg->counter_id = id;
    reg->level = level;
    conn.waits.push_back(reg);
    return reg;
  }

  void arm_timer(const std::shared_ptr<WaitReg>& reg,
                 std::uint64_t timeout_ns) {
    timers.push(Timer{std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(timeout_ns),
                      reg});
  }

  /// Gauge bookkeeping for a claim made on the loop thread.
  void on_loop_claim(const WaitReg& reg) {
    if (reg.degraded) {
      s_degraded.fetch_sub(1, std::memory_order_relaxed);
    } else {
      shared->parked.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  void do_poison(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::uint64_t id = 0;
    std::string_view reason;
    if (!r.get_u64(id) || !r.get_str16(reason)) {
      return bad_request(conn, req_id, "Poison: want id+reason");
    }
    Entry* entry = entry_of(id);
    if (entry == nullptr) {
      return respond_message(conn, Status::kUnknownCounter, req_id,
                             "no counter with id " + std::to_string(id));
    }
    flush_entry(*entry);  // increments before the freeze still count
    poison_entry(*entry, std::string(reason));
    journal_append(append_journal_poison, id, reason);
    respond(conn, Status::kOk, req_id);
  }

  void do_stats(Connection& conn, std::uint64_t req_id, Reader& r) {
    std::uint64_t id = 0;
    if (!r.get_u64(id)) return bad_request(conn, req_id, "Stats: want id");
    if (id == 0) {
      const ServerStats s = snapshot();
      return respond_pairs(conn, req_id,
                           {
                               {"connections_accepted", s.connections_accepted},
                               {"connections_open", s.connections_open},
                               {"counters_open", s.counters_open},
                               {"requests", s.requests},
                               {"responses", s.responses},
                               {"parked_waits", s.parked_waits},
                               {"degraded_polls", s.degraded_polls},
                               {"gated_connections", s.gated_connections},
                               {"overload_rejections", s.overload_rejections},
                               {"batched_increments", s.batched_increments},
                               {"flushes", s.flushes},
                               {"protocol_errors", s.protocol_errors},
                               {"bytes_in", s.bytes_in},
                               {"bytes_out", s.bytes_out},
                               {"epoch", s.epoch},
                               {"restored_counters", s.restored_counters},
                               {"snapshots_written", s.snapshots_written},
                               {"snapshot_bytes", s.snapshot_bytes},
                               {"snapshot_failures", s.snapshot_failures},
                               {"journal_records", s.journal_records},
                               {"journal_bytes", s.journal_bytes},
                               {"sessions_open", s.sessions_open},
                               {"dedup_hits", s.dedup_hits},
                               {"slow_consumer_disconnects",
                                s.slow_consumer_disconnects},
                               {"shutdown_replies", s.shutdown_replies},
                           });
    }
    Entry* entry = entry_of(id);
    if (entry == nullptr) {
      return respond_message(conn, Status::kUnknownCounter, req_id,
                             "no counter with id " + std::to_string(id));
    }
    flush_entry(*entry);
    const CounterStatsSnapshot snap = entry->counter->stats();
    respond_pairs(conn, req_id,
                  {
                      {"value", entry->counter->value_lower_bound()},
                      {"increments", snap.increments},
                      {"checks", snap.checks},
                      {"suspensions", snap.suspensions},
                      {"wakeups", snap.wakeups},
                      {"live_nodes", snap.live_nodes},
                      {"max_live_nodes", snap.max_live_nodes},
                      {"max_live_waiters", snap.max_live_waiters},
                      {"poisons", snap.poisons},
                      {"dropped_increments", snap.dropped_increments},
                      {"overload_rejections", snap.overload_rejections},
                      {"degraded_waits", snap.degraded_waits},
                      {"async_completions", snap.async_completions},
                      {"stripe_count", snap.stripe_count},
                      {"poisoned", entry->counter->poisoned() ? 1u : 0u},
                  });
  }

  void respond_pairs(
      Connection& conn, std::uint64_t req_id,
      const std::vector<std::pair<std::string_view, std::uint64_t>>& pairs) {
    std::string body;
    put_u32(body, static_cast<std::uint32_t>(pairs.size()));
    for (const auto& [key, value] : pairs) {
      put_str16(body, key);
      put_u64(body, value);
    }
    respond(conn, Status::kOk, req_id, body);
  }

  // ---- tick work --------------------------------------------------

  void drain_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lk(shared->cq_mutex);
      batch.swap(shared->cq);
    }
    for (Completion& c : batch) {
      auto it = conns.find(c.reg->fd);
      if (it == conns.end() || it->second.gen != c.reg->gen) continue;
      if (c.poisoned) {
        respond_message(it->second, Status::kPoisoned, c.reg->req_id,
                        c.message);
      } else {
        std::string body;
        Entry* entry = entry_of(c.reg->counter_id);
        put_u64(body, entry != nullptr ? entry->counter->value_lower_bound()
                                       : c.reg->level);
        respond(it->second, Status::kReached, c.reg->req_id, body);
      }
    }
  }

  /// Degraded (kSpinFallback) waits: probe the value once per tick.
  /// Mirrors the engine's degraded wait — no registration to leak, and
  /// poison/deadline stay live because every probe checks them.
  void poll_degraded() {
    if (degraded.empty()) return;
    std::size_t kept = 0;
    for (auto& reg : degraded) {
      if (reg->settled.load(std::memory_order_acquire)) {
        continue;  // a timer or the death sweep settled (and counted) it
      }
      Entry* entry = entry_of(reg->counter_id);
      auto it = conns.find(reg->fd);
      Connection* conn = (it != conns.end() && it->second.gen == reg->gen)
                             ? &it->second
                             : nullptr;
      if (conn == nullptr || entry == nullptr) {
        if (reg->claim()) on_loop_claim(*reg);
        continue;
      }
      flush_entry(*entry);
      const counter_value_t value = entry->counter->value_lower_bound();
      if (value >= reg->level) {
        if (reg->claim()) {
          on_loop_claim(*reg);
          std::string body;
          put_u64(body, value);
          respond(*conn, Status::kReached, reg->req_id, body);
        }
        continue;
      }
      if (entry->counter->poisoned()) {
        if (reg->claim()) {
          on_loop_claim(*reg);
          respond_message(*conn, Status::kPoisoned, reg->req_id,
                          "counter '" + entry->name + "' poisoned below level");
        }
        continue;
      }
      degraded[kept++] = std::move(reg);
    }
    degraded.resize(kept);
  }

  void expire_timers() {
    const auto now = std::chrono::steady_clock::now();
    while (!timers.empty() && timers.top().deadline <= now) {
      std::shared_ptr<WaitReg> reg = timers.top().reg;
      timers.pop();
      if (!reg->claim()) continue;
      on_loop_claim(*reg);
      auto it = conns.find(reg->fd);
      if (it != conns.end() && it->second.gen == reg->gen) {
        respond(it->second, Status::kTimedOut, reg->req_id);
      }
    }
  }

  /// kBlockIncrementers: when capacity frees, re-dispatch deferred
  /// frames and resume reading the gated connections.
  void retry_gated() {
    if (s_gated.load(std::memory_order_relaxed) == 0) return;
    for (auto& [fd, conn] : conns) {
      if (!conn.gated) continue;
      while (!conn.gated_frames.empty()) {
        if (opts.max_parked_waits != 0 &&
            shared->parked.load(std::memory_order_relaxed) >=
                opts.max_parked_waits) {
          break;  // still over capacity; stay gated
        }
        const std::string frame = std::move(conn.gated_frames.front());
        conn.gated_frames.pop_front();
        conn.gated = false;  // dispatch may re-gate (and re-defer)
        s_gated.fetch_sub(1, std::memory_order_relaxed);
        dispatch(conn, frame);
        if (conn.gated) break;
      }
      if (!conn.gated && conn.gated_frames.empty()) {
        // Input deferred while gated is still in rbuf; parse it now.
        parse_frames(conn);
      }
    }
  }

  void flush_dirty() {
    for (const auto& [shard, idx] : dirty) {
      Entry& entry = shards[shard].entries[idx];
      if (entry.dirty) flush_entry(entry);
    }
    dirty.clear();
  }

  void flush_writes() {
    for (auto& [fd, conn] : conns) {
      while (conn.woff < conn.wbuf.size()) {
        // MSG_NOSIGNAL: a client that vanished mid-response is an
        // EPIPE (conn.dead below), not a process-killing SIGPIPE.
        const ssize_t n = ::send(fd, conn.wbuf.data() + conn.woff,
                                 conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
        if (n > 0) {
          conn.woff += static_cast<std::size_t>(n);
          s_bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;  // signal landed mid-write
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        conn.dead = true;
        break;
      }
      if (conn.woff == conn.wbuf.size()) {
        conn.wbuf.clear();
        conn.woff = 0;
      } else if (conn.woff > 256 * 1024) {
        conn.wbuf.erase(0, conn.woff);
        conn.woff = 0;
      }
    }
  }

  /// The death sweep: a connection that disconnected while parked on
  /// OnReach must not leak its registrations.  Claiming each live reg
  /// tombstones it — the engine's eventual fire is a no-op — and the
  /// parked_waits gauge drops NOW, which is what the Stats op reports
  /// and the robustness test asserts.
  void reap_dead() {
    for (auto it = conns.begin(); it != conns.end();) {
      Connection& conn = it->second;
      if (!conn.dead) {
        ++it;
        continue;
      }
      for (const auto& reg : conn.waits) {
        if (reg->claim()) on_loop_claim(*reg);
      }
      if (conn.gated) s_gated.fetch_sub(1, std::memory_order_relaxed);
      ::close(conn.fd);
      s_conns.fetch_sub(1, std::memory_order_relaxed);
      it = conns.erase(it);
    }
  }

  ServerStats snapshot() const {
    ServerStats s;
    s.connections_accepted = s_accepted.load(std::memory_order_relaxed);
    s.connections_open = s_conns.load(std::memory_order_relaxed);
    s.counters_open = s_counters.load(std::memory_order_relaxed);
    s.requests = s_requests.load(std::memory_order_relaxed);
    s.responses = s_responses.load(std::memory_order_relaxed);
    s.parked_waits = shared->parked.load(std::memory_order_relaxed);
    s.degraded_polls = s_degraded.load(std::memory_order_relaxed);
    s.gated_connections = s_gated.load(std::memory_order_relaxed);
    s.overload_rejections = s_rejections.load(std::memory_order_relaxed);
    s.batched_increments = s_batched.load(std::memory_order_relaxed);
    s.flushes = s_flushes.load(std::memory_order_relaxed);
    s.protocol_errors = s_proto_errors.load(std::memory_order_relaxed);
    s.bytes_in = s_bytes_in.load(std::memory_order_relaxed);
    s.bytes_out = s_bytes_out.load(std::memory_order_relaxed);
    s.epoch = epoch.load(std::memory_order_relaxed);
    s.restored_counters = s_restored.load(std::memory_order_relaxed);
    s.snapshots_written = s_snapshots.load(std::memory_order_relaxed);
    s.snapshot_bytes = s_snapshot_bytes.load(std::memory_order_relaxed);
    s.snapshot_failures = s_snapshot_failures.load(std::memory_order_relaxed);
    s.journal_records = s_journal_records.load(std::memory_order_relaxed);
    s.journal_bytes = s_journal_bytes.load(std::memory_order_relaxed);
    s.sessions_open = s_sessions.load(std::memory_order_relaxed);
    s.dedup_hits = s_dedup.load(std::memory_order_relaxed);
    s.slow_consumer_disconnects =
        s_slow_consumer.load(std::memory_order_relaxed);
    s.shutdown_replies = s_shutdown_replies.load(std::memory_order_relaxed);
    return s;
  }
};

CounterServer::CounterServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

CounterServer::~CounterServer() = default;

void CounterServer::Start() { impl_->start(); }

void CounterServer::Stop() { impl_->stop(); }

void CounterServer::Drain() {
  // NOT stop(): stop's `stopping` flag would end the loop before the
  // tick reaches the drain check.  Request the drain, wake the loop,
  // join it (the drain itself sets `stopping` when it finishes), then
  // run stop() for the fd cleanup.
  impl_->drain_requested.store(true, std::memory_order_relaxed);
  impl_->shared->poke();
  if (impl_->loop.joinable()) impl_->loop.join();
  impl_->stop();
}

bool CounterServer::drained() const noexcept {
  return impl_->drained.load(std::memory_order_acquire);
}

std::uint64_t CounterServer::epoch() const noexcept {
  return impl_->epoch.load(std::memory_order_relaxed);
}

std::uint16_t CounterServer::tcp_port() const noexcept {
  return impl_->bound_tcp_port;
}

ServerStats CounterServer::stats() const { return impl_->snapshot(); }

}  // namespace monotonic::server
