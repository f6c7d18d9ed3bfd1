// server_recovery_test.cpp — the fault-tolerant service plane, proven
// the hard way: state files torn and checksummed, servers SIGKILLed
// mid-workload and restarted from snapshot + journal, clients
// reconnecting through seeded chaos, increments retried and applied
// exactly once, drains answered typed.
//
// The suite leans on one invariant for every assertion: monotonicity.
// A restore may only land a counter at an EQUAL-OR-GREATER value than
// any value a client was shown (a reached Check must never un-reach),
// and a retried increment must move the value by its amount AT MOST
// once.  Everything here is some concrete violation of one of those
// two, injected and shown not to happen.
//
// The kill-point schedule is seed-swept: MONOTONIC_SERVER_KILL_SEEDS
// ("3" or "1 2 7") widens the sweep in CI's chaos job; each seed
// shifts where in the workload the SIGKILL lands.  A failing run
// prints its seed.

#include <gtest/gtest.h>

#include <libgen.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "monotonic/core/counter_error.hpp"
#include "monotonic/server/chaos_proxy.hpp"
#include "monotonic/server/client.hpp"
#include "monotonic/server/protocol.hpp"
#include "monotonic/server/server.hpp"
#include "monotonic/server/state_file.hpp"

namespace ms = monotonic::server;
using monotonic::CounterEpochChangedError;
using monotonic::CounterShutdownError;
using monotonic::CounterTimeoutError;

namespace {

/// Every test runs in its own mkdtemp directory, removed with all it
/// holds (sockets, snapshots, journals, temp paths) in TearDown — which
/// gtest runs after a failed assertion too, so a failing or killed-child
/// test leaves nothing behind in /tmp.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mc_recovery_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr) << std::strerror(errno);
    dir_ = tmpl;
  }
  void TearDown() override {
    if (dir_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    EXPECT_FALSE(ec) << "could not remove " << dir_ << ": " << ec.message();
  }

  /// A fresh path inside the test's directory.
  std::string unique_path(const char* tag) {
    return dir_ + "/" + tag + "_" + std::to_string(seq_++);
  }

 private:
  std::string dir_;
  int seq_ = 0;
};

using StateFile = TempDirTest;
using Recovery = TempDirTest;
using Compaction = TempDirTest;
using Deadlines = TempDirTest;
using Drain = TempDirTest;
using ForkedRecovery = TempDirTest;
using Chaos = TempDirTest;

std::vector<std::uint64_t> seeds_from_env(const char* var,
                                          std::vector<std::uint64_t> dflt) {
  const char* env = std::getenv(var);
  if (env == nullptr || *env == '\0') return dflt;
  std::vector<std::uint64_t> seeds;
  std::istringstream in(env);
  std::uint64_t s;
  while (in >> s) seeds.push_back(s);
  return seeds.empty() ? dflt : seeds;
}

/// Path of the exec'd server child: sibling of this test binary.
std::string child_binary() {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return "./server_recovery_child";
  self[n] = '\0';
  return std::string(::dirname(self)) + "/server_recovery_child";
}

/// A forked+exec'd drainable server process on (sock, state); `flags`
/// are passed through to server_recovery_child.
class ServerProcess {
 public:
  ServerProcess(std::string sock, std::string state,
                std::vector<std::string> flags = {})
      : sock_(std::move(sock)),
        state_(std::move(state)),
        flags_(std::move(flags)) {
    spawn();
  }
  ~ServerProcess() { kill9(); }

  void spawn() {
    const std::string bin = child_binary();
    // argv is built before fork: the child of a threaded parent must not
    // allocate.
    std::vector<char*> argv{const_cast<char*>(bin.c_str()), sock_.data(),
                            state_.data()};
    for (std::string& f : flags_) argv.push_back(f.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::execv(bin.c_str(), argv.data());
      std::perror("execv(server_recovery_child)");
      ::_exit(127);
    }
    ASSERT_GT(pid_, 0);
    wait_listening();
  }

  /// The crash: SIGKILL, no goodbye, no snapshot.
  void kill9() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  /// The rolling restart: SIGTERM → drain → exit 0.
  int sigterm_and_wait() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }

  void restart() { spawn(); }

  const std::string& sock() const { return sock_; }
  pid_t pid() const { return pid_; }

 private:
  void wait_listening() {
    for (int i = 0; i < 1000; ++i) {
      try {
        ms::ServerClient probe = ms::ServerClient::connect_uds(sock_);
        return;
      } catch (...) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    FAIL() << "server child never started listening on " << sock_;
  }

  std::string sock_;
  std::string state_;
  std::vector<std::string> flags_;
  pid_t pid_ = -1;
};

std::string from_hex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

void write_file(const std::string& path, std::string_view bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

std::string read_file(const std::string& path) {
  std::string bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

ms::ClientOptions retry_options() {
  ms::ClientOptions o;
  o.retry.enabled = true;
  o.retry.backoff_initial = std::chrono::milliseconds(5);
  o.retry.backoff_max = std::chrono::milliseconds(100);
  o.retry.overall_deadline = std::chrono::milliseconds(20000);
  return o;
}

// ---- state_file.hpp: the durability primitives ----------------------

TEST_F(StateFile, SnapshotRoundTripsAndRejectsCorruption) {
  ms::StateSnapshot snap;
  snap.epoch = 7;
  snap.generation = 42;
  snap.dedup_window = 4096;
  snap.counters.push_back({3, "jobs/done", "pooled:64+hybrid", 123, false, ""});
  snap.counters.push_back({9, "failed", "basic", 5, true, "boom"});
  snap.sessions.push_back({0xa, 0xb, 77, std::vector<std::uint64_t>(64, 1)});

  const std::string path = unique_path("snap");
  ASSERT_TRUE(ms::save_snapshot(path, ms::encode_snapshot(snap)));
  ms::StateSnapshot back;
  ASSERT_TRUE(ms::load_snapshot(path, back));
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.generation, 42u);
  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counters[0].name, "jobs/done");
  EXPECT_EQ(back.counters[0].value, 123u);
  EXPECT_TRUE(back.counters[1].poisoned);
  EXPECT_EQ(back.counters[1].poison_reason, "boom");
  ASSERT_EQ(back.sessions.size(), 1u);
  EXPECT_EQ(back.sessions[0].max_seq, 77u);

  // Flip one byte in the middle: the checksum must reject the file.
  std::string bytes = ms::encode_snapshot(snap);
  bytes[bytes.size() / 2] ^= 0x40;
  ms::StateSnapshot corrupt;
  EXPECT_FALSE(ms::decode_snapshot(bytes, corrupt));
}

TEST_F(StateFile, JournalTornTailStopsReplayCleanly) {
  std::string journal = ms::encode_journal_header(5);
  ms::append_journal_open(journal, 1, "c", "basic");
  ms::append_journal_increment(journal, 1, 10, 0, 0, 0);
  const std::size_t intact = journal.size();
  ms::append_journal_increment(journal, 1, 99, 0, 0, 0);
  journal.resize(intact + 7);  // the crash landed mid-append

  const std::string path = unique_path("journal");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(journal.data(), 1, journal.size(), f);
    std::fclose(f);
  }
  std::vector<ms::JournalRecord> records;
  ASSERT_TRUE(ms::load_journal(path, 5, records));
  ASSERT_EQ(records.size(), 2u);  // torn third record: replay stops, no error
  EXPECT_EQ(records[1].amount, 10u);

  // Generation mismatch = a journal already folded into a snapshot:
  // the double-apply guard must refuse it outright.
  EXPECT_FALSE(ms::load_journal(path, 6, records));
}

TEST_F(StateFile, DedupWindowAppliesEachSeqAtMostOnce) {
  ms::DedupWindow w(128);
  EXPECT_FALSE(w.seen(1));
  w.record(1);
  EXPECT_TRUE(w.seen(1));
  EXPECT_FALSE(w.seen(2));
  w.record(100);
  EXPECT_TRUE(w.seen(100));
  EXPECT_FALSE(w.seen(99));  // skipped, still claimable
  w.record(99);
  EXPECT_TRUE(w.seen(99));
  // Ancient seqs are conservatively "seen": dropping a duplicate is
  // safe for at-least-once delivery, double-applying is not.
  w.record(10'000);
  EXPECT_TRUE(w.seen(1));
  EXPECT_TRUE(w.seen(9'000));
  EXPECT_FALSE(w.seen(10'001));
  // seq 0 = "no seq": never deduped.
  EXPECT_FALSE(w.seen(0));
}

// The fixed state below, encoded by the snapshot and journal writers
// that predate the streaming encoder (state version 1).  The bytes are
// the format: any change to them is a format change, which needs a new
// kStateVersion.
ms::StateSnapshot golden_snapshot() {
  ms::StateSnapshot snap;
  snap.epoch = 7;
  snap.generation = 42;
  snap.dedup_window = 128;
  snap.counters.push_back({3, "jobs/done", "hybrid", 123, false, ""});
  snap.counters.push_back({9, "failed", "list", 5, true, "boom"});
  snap.sessions.push_back({0xa, 0xb, 77, {1, 0x8000000000000001ULL}});
  return snap;
}

constexpr std::string_view kGoldenSnapshotHex =
    "4d4353530100000007000000000000002a000000000000008000000000000000"
    "02000000030000000000000009006a6f62732f646f6e6506006879627269647b"
    "00000000000000000000090000000000000006006661696c656404006c697374"
    "0500000000000000010400626f6f6d010000000a000000000000000b00000000"
    "0000004d00000000000000020000000100000000000000010000000000008021"
    "3e6f43a3f21977";

constexpr std::string_view kGoldenEmptySnapshotHex =
    "4d43535301000000000000000000000000000000000000000000000000000000"
    "0000000000000000de9030f6946e7e32";

constexpr std::string_view kGoldenJournalHex =
    "4d434a4c01000000050000000000000013000000010100000000000000010063"
    "050062617369636e545e8b38767748290000000201000000000000000a000000"
    "000000000a000000000000000b0000000000000003000000000000006c371be0"
    "5fe9ceea0c0000000301000000000000000100780ed320947213bb71";

TEST_F(StateFile, StreamedEncodingMatchesTheVersion1Format) {
  EXPECT_EQ(ms::encode_snapshot(golden_snapshot()),
            from_hex(kGoldenSnapshotHex));
  EXPECT_EQ(ms::encode_snapshot(ms::StateSnapshot{}),
            from_hex(kGoldenEmptySnapshotHex));

  std::string journal = ms::encode_journal_header(5);
  ms::append_journal_open(journal, 1, "c", "basic");
  ms::append_journal_increment(journal, 1, 10, 0xa, 0xb, 3);
  ms::append_journal_poison(journal, 1, "x");
  EXPECT_EQ(journal, from_hex(kGoldenJournalHex));

  // And the version-1 bytes still decode to the state they encode.
  ms::StateSnapshot back;
  ASSERT_TRUE(ms::decode_snapshot(from_hex(kGoldenSnapshotHex), back));
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.generation, 42u);
  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counters[0].spec, "hybrid");
  EXPECT_EQ(back.counters[1].poison_reason, "boom");
  ASSERT_EQ(back.sessions.size(), 1u);
  EXPECT_EQ(back.sessions[0].bits[1], 0x8000000000000001ULL);
}

// ---- crash-shaped restarts (in-process) -----------------------------

TEST_F(Recovery, Version1SnapshotRestoresUnderBumpedEpoch) {
  const std::string sock = unique_path("golden.sock");
  const std::string state = unique_path("golden.state");
  write_file(state, from_hex(kGoldenSnapshotHex));
  {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    ms::CounterServer server(std::move(o));
    server.Start();
    EXPECT_EQ(server.epoch(), 8u);
    ms::ServerClient c = ms::ServerClient::connect_uds(sock);
    EXPECT_EQ(c.resolve("jobs/done").value, 123u);
    const auto failed = c.resolve("failed");
    EXPECT_EQ(failed.value, 5u);
    EXPECT_THROW(c.increment(failed.id, 1), monotonic::CounterPoisonedError);
    server.Drain();
  }
  // The drain's snapshot, streamed from the name table, is byte-equal
  // to encode_snapshot() of what it decodes to: one encoder, one format.
  const std::string bytes = read_file(state);
  ms::StateSnapshot snap;
  ASSERT_TRUE(ms::decode_snapshot(bytes, snap));
  EXPECT_EQ(snap.epoch, 8u);
  EXPECT_EQ(snap.generation, 44u);  // +1 at Start, +1 at Drain
  EXPECT_EQ(ms::encode_snapshot(snap), bytes);
}

// Specs are persisted verbatim, and restore skips a counter whose spec
// no longer parses.  One written while the grammar still selected a
// wait-plane representation ("waitplane=heap:4") must therefore keep
// parsing, or its value would be silently dropped on restart.
TEST_F(Recovery, LegacyWaitPlaneSpecRestoresItsExactValue) {
  const std::string sock = unique_path("legacy.sock");
  const std::string state = unique_path("legacy.state");
  const std::string spec = "pooled:64+hybrid,waitplane=heap:4";
  ms::StateSnapshot snap;
  snap.epoch = 7;
  snap.generation = 42;
  snap.counters.push_back({3, "legacy/snap", spec, 40, false, ""});
  write_file(state, ms::encode_snapshot(snap));
  std::string journal = ms::encode_journal_header(42);
  ms::append_journal_increment(journal, 3, 2, 0, 0, 0);
  ms::append_journal_open(journal, 5, "legacy/journal", spec);
  ms::append_journal_increment(journal, 5, 17, 0, 0, 0);
  write_file(state + ".journal", journal);

  ms::ServerOptions o;
  o.uds_path = sock;
  o.state_file = state;
  ms::CounterServer server(std::move(o));
  server.Start();
  EXPECT_EQ(server.epoch(), 8u);
  ms::ServerClient c = ms::ServerClient::connect_uds(sock);
  EXPECT_EQ(c.resolve("legacy/snap").value, 42u);
  EXPECT_EQ(c.resolve("legacy/journal").value, 17u);
  server.Stop();
}

TEST_F(Recovery, CrashRestartRestoresValuesUnderBumpedEpoch) {
  const std::string sock = unique_path("crash.sock");
  const std::string state = unique_path("crash.state");
  std::uint64_t old_epoch = 0;
  {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    ms::CounterServer server(std::move(o));
    server.Start();
    old_epoch = server.epoch();
    ms::ServerClient c = ms::ServerClient::connect_uds(sock);
    const auto a = c.open("alpha");
    const auto b = c.open("beta", "list");
    c.increment(a.id, 41);
    c.increment(a.id, 1);
    EXPECT_EQ(c.check(a.id, 42), 42u);  // REACHED — must never regress
    c.increment(b.id, 7);
    c.poison(b.id, "producer exploded");
    server.Stop();  // the crash-shaped stop: no snapshot, journal only
  }
  {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    ms::CounterServer server(std::move(o));
    server.Start();
    EXPECT_EQ(server.epoch(), old_epoch + 1);
    EXPECT_GE(server.stats().restored_counters, 2u);
    ms::ServerClient c = ms::ServerClient::connect_uds(sock);
    EXPECT_EQ(c.epoch(), old_epoch + 1);
    const auto a = c.resolve("alpha");  // Resolve: no create
    EXPECT_GE(a.value, 42u);            // equal-or-greater, the contract
    EXPECT_EQ(c.check(a.id, 42), a.value);  // the reached level holds
    const auto b = c.resolve("beta");
    EXPECT_GE(b.value, 7u);
    try {
      c.increment(b.id, 1);
      FAIL() << "poison must survive the restart";
    } catch (const monotonic::CounterPoisonedError&) {
    }
    EXPECT_THROW(c.resolve("never-existed"), std::invalid_argument);
    server.Stop();
  }
}

TEST_F(Recovery, DuplicateRetriedIncrementsApplyExactlyOnce) {
  const std::string sock = unique_path("dedup.sock");
  const std::string state = unique_path("dedup.state");
  const std::uint64_t hi = 0x1111, lo = 0x2222;

  auto helloed_client = [&] {
    ms::ClientOptions o;
    o.session_hi = hi;
    o.session_lo = lo;
    return ms::ServerClient::connect_uds(sock, o);
  };
  auto send_seq_increment = [](ms::ServerClient& c, std::uint64_t id,
                               std::uint64_t amount, std::uint64_t seq) {
    std::string body;
    ms::put_u64(body, id);
    ms::put_u64(body, amount);
    ms::put_u8(body, ms::kIncrementHasSeq);
    ms::put_u64(body, seq);
    const auto resp = c.request(ms::Op::kIncrement, body);
    EXPECT_EQ(resp.status, ms::Status::kOk);
  };

  {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    ms::CounterServer server(std::move(o));
    server.Start();
    ms::ServerClient c = helloed_client();
    const auto opened = c.open("exactly-once");
    send_seq_increment(c, opened.id, 5, /*seq=*/1);
    send_seq_increment(c, opened.id, 5, /*seq=*/1);  // duplicate: absorbed
    send_seq_increment(c, opened.id, 3, /*seq=*/2);
    EXPECT_EQ(c.check(opened.id, 8), 8u);  // 5 + 3, not 13
    EXPECT_EQ(server.stats().dedup_hits, 1u);
    server.Stop();  // crash-shaped
  }
  {
    // The dedup window survives the crash (journaled): a retry of a
    // pre-crash increment after restart must still be absorbed.
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    ms::CounterServer server(std::move(o));
    server.Start();
    ms::ServerClient c = helloed_client();
    const auto opened = c.resolve("exactly-once");
    EXPECT_EQ(opened.value, 8u);
    send_seq_increment(c, opened.id, 5, /*seq=*/1);  // ancient retry
    send_seq_increment(c, opened.id, 3, /*seq=*/2);  // ditto
    EXPECT_EQ(c.check(opened.id, 8), 8u);            // still 8
    EXPECT_EQ(server.stats().dedup_hits, 2u);
    server.Stop();
  }
}

TEST_F(Recovery, EpochChangeSurfacesTypedWhenTransparencyDeclined) {
  const std::string sock = unique_path("epoch.sock");
  const std::string state = unique_path("epoch.state");
  auto server = std::make_optional<ms::CounterServer>([&] {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    return o;
  }());
  server->Start();

  ms::ClientOptions copts = retry_options();
  copts.retry.transparent_reresolve = false;  // the opt-out under test
  ms::ServerClient c = ms::ServerClient::connect_uds(sock, copts);
  const auto opened = c.open("ids-are-my-problem");
  c.increment(opened.id, 1);
  const std::uint64_t first_epoch = c.epoch();

  server->Stop();  // crash
  server.emplace([&] {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    return o;
  }());
  server->Start();  // restore → epoch bump

  try {
    c.increment(opened.id, 1);
    FAIL() << "epoch change must surface when transparency is declined";
  } catch (const CounterEpochChangedError& e) {
    EXPECT_EQ(e.old_epoch(), first_epoch);
    EXPECT_EQ(e.new_epoch(), first_epoch + 1);
  }
  server->Stop();
}

// ---- compaction cadence and snapshot failures -----------------------

ms::ServerOptions compaction_options(const std::string& sock,
                                     const std::string& state) {
  ms::ServerOptions o;
  o.uds_path = sock;
  o.state_file = state;
  o.snapshot_journal_bytes = 4096;  // the floor; the table outgrows it
  return o;
}

TEST_F(Compaction, SnapshotCadenceIsAmortisedAndLongJournalReplaysExact) {
  const std::string sock = unique_path("cadence.sock");
  const std::string state = unique_path("cadence.state");
  constexpr std::size_t kCounters = 2000;
  auto name_of = [](std::size_t i) { return "k/" + std::to_string(i); };
  // One client session across both servers, so the session table (and
  // with it the snapshot size) stays fixed once the counters exist.
  ms::ClientOptions session;
  session.session_hi = 0xcade;
  session.session_lo = 0x1;
  {
    ms::CounterServer server(compaction_options(sock, state));
    server.Start();
    ms::ServerClient c = ms::ServerClient::connect_uds(sock, session);
    for (std::size_t i = 0; i < kCounters; ++i) c.open(name_of(i), "list");
    server.Stop();
  }

  std::vector<std::uint64_t> want(kCounters, 0);
  std::uint64_t old_epoch = 0;
  {
    // Restart with the whole table in place: from here on every
    // snapshot has the same size, and the one Start wrote is the "1".
    ms::CounterServer server(compaction_options(sock, state));
    server.Start();
    old_epoch = server.epoch();
    const std::uint64_t snapshot_bytes = server.stats().snapshot_bytes;
    ASSERT_GT(snapshot_bytes, 4u * 4096);
    ms::ServerClient c = ms::ServerClient::connect_uds(sock, session);
    std::vector<std::uint64_t> ids(kCounters);
    for (std::size_t i = 0; i < kCounters; ++i) {
      ids[i] = c.resolve(name_of(i)).id;
    }

    // Acked increments until three snapshots' worth of journal is
    // written.  Every record is an increment of the same size.
    std::string one;
    ms::append_journal_increment(one, 0, 0, 0, 0, 0);
    const std::uint64_t target = 3 * snapshot_bytes;
    std::uint64_t journal_written = 0, k = 0;
    for (; journal_written <= target; ++k) {
      const std::size_t i = (k * 7919) % kCounters;
      c.increment(ids[i], 1 + k % 3);
      want[i] += 1 + k % 3;
      journal_written += one.size();
    }
    ms::ServerStats st = server.stats();
    EXPECT_EQ(st.snapshot_bytes, snapshot_bytes);
    EXPECT_GE(st.snapshots_written, 3u);  // the trigger did fire
    EXPECT_LE(st.snapshots_written, 1 + journal_written / snapshot_bytes);

    // Grow the journal past the floor, then crash: no drain, no final
    // snapshot, so the restart replays a journal longer than the floor.
    // At most one more snapshot can land on the way.
    const std::uint64_t max_more = (snapshot_bytes + 4096) / one.size() + 2;
    for (std::uint64_t n = 0;
         n < max_more && server.stats().journal_bytes <= 4096; ++n, ++k) {
      const std::size_t i = (k * 7919) % kCounters;
      c.increment(ids[i], 1);
      want[i] += 1;
    }
    st = server.stats();
    ASSERT_GT(st.journal_bytes, 4096u);
    EXPECT_EQ(st.snapshot_failures, 0u);
    server.Stop();
  }
  {
    ms::CounterServer server(compaction_options(sock, state));
    server.Start();
    EXPECT_EQ(server.epoch(), old_epoch + 1);
    EXPECT_EQ(server.stats().restored_counters, kCounters);
    ms::ServerClient c = ms::ServerClient::connect_uds(sock);
    const std::map<std::string, std::uint64_t> wire = c.stats();
    EXPECT_EQ(wire.at("snapshot_bytes"), server.stats().snapshot_bytes);
    EXPECT_EQ(wire.at("snapshot_failures"), 0u);
    for (std::size_t i = 0; i < kCounters; ++i) {
      ASSERT_EQ(c.resolve(name_of(i)).value, want[i]) << name_of(i);
    }
    server.Stop();
  }
}

TEST_F(Compaction, StartRefusesWhenItsSnapshotCannotBeWritten) {
  const std::string sock = unique_path("nosnap.sock");
  const std::string state = unique_path("nosnap.state");
  {
    ms::CounterServer server(compaction_options(sock, state));
    server.Start();
    ms::ServerClient c = ms::ServerClient::connect_uds(sock);
    c.increment(c.open("kept").id, 5);
    server.Stop();
  }
  // A directory where the snapshot's temp file goes: the write fails
  // without any privilege games.
  ASSERT_EQ(::mkdir((state + ".tmp").c_str(), 0755), 0);
  {
    ms::CounterServer server(compaction_options(sock, state));
    EXPECT_THROW(server.Start(), std::system_error);
    EXPECT_EQ(server.stats().snapshot_failures, 1u);
  }
  ASSERT_EQ(::rmdir((state + ".tmp").c_str()), 0);
  {
    // The refused start touched neither snapshot nor journal.
    ms::CounterServer server(compaction_options(sock, state));
    server.Start();
    ms::ServerClient c = ms::ServerClient::connect_uds(sock);
    EXPECT_EQ(c.resolve("kept").value, 5u);
    server.Stop();
  }
}

TEST_F(Compaction, FailedPeriodicSnapshotBacksOffAndKeepsTheJournal) {
  const std::string sock = unique_path("backoff.sock");
  const std::string state = unique_path("backoff.state");
  constexpr std::uint64_t kIncrements = 600;
  std::uint64_t old_epoch = 0;
  {
    ms::CounterServer server(compaction_options(sock, state));
    server.Start();
    old_epoch = server.epoch();
    ms::ServerClient c = ms::ServerClient::connect_uds(sock);
    const auto opened = c.open("backoff");
    ASSERT_EQ(::mkdir((state + ".tmp").c_str(), 0755), 0);
    for (std::uint64_t k = 0; k < kIncrements; ++k) c.increment(opened.id, 1);
    const ms::ServerStats st = server.stats();
    // Every attempt failed, and each waited for another floor's worth
    // of journal: a handful of failures, not one per tick.
    EXPECT_EQ(st.snapshots_written, 1u);  // Start's only
    EXPECT_GE(st.snapshot_failures, 2u);
    EXPECT_LE(st.snapshot_failures, 1 + st.journal_bytes / 4096);
    EXPECT_GT(st.journal_bytes, kIncrements * 50);  // nothing rotated away
    server.Stop();  // crash-shaped
  }
  ASSERT_EQ(::rmdir((state + ".tmp").c_str()), 0);
  {
    ms::CounterServer server(compaction_options(sock, state));
    server.Start();
    EXPECT_EQ(server.epoch(), old_epoch + 1);
    ms::ServerClient c = ms::ServerClient::connect_uds(sock);
    EXPECT_EQ(c.resolve("backoff").value, kIncrements);
    server.Stop();
  }
}

// ---- deadlines (satellite: no more blocking forever) ----------------

TEST_F(Deadlines, SilentServerSurfacesTimeoutNotHang) {
  // A blackhole proxy in front of a live server: the connection is
  // alive at the socket level, dead at the protocol level (every byte
  // discarded, nothing ever answered) — the shape io_timeout exists
  // for, and the shape that used to block a client forever.
  const std::string sock = unique_path("blackhole_up.sock");
  ms::ServerOptions so;
  so.uds_path = sock;
  ms::CounterServer server(std::move(so));
  server.Start();

  ms::ChaosProxyOptions po;
  po.listen_path = unique_path("blackhole.sock");
  po.upstream_path = sock;
  po.blackhole = true;
  ms::ChaosProxy proxy(po);
  proxy.Start();

  ms::ClientOptions copts;
  copts.io_timeout = std::chrono::milliseconds(150);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    ms::ServerClient c = ms::ServerClient::connect_uds(po.listen_path, copts);
    FAIL() << "the Hello await must time out against a blackhole";
  } catch (const CounterTimeoutError&) {
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(5));  // bounded, not a hang
  proxy.Stop();
  server.Stop();
}

// ---- graceful drain -------------------------------------------------

TEST_F(Drain, AnswersParkedWaitsTypedAndWritesSnapshot) {
  const std::string sock = unique_path("drain.sock");
  const std::string state = unique_path("drain.state");
  auto server = std::make_optional<ms::CounterServer>([&] {
    ms::ServerOptions o;
    o.uds_path = sock;
    o.state_file = state;
    return o;
  }());
  server->Start();

  ms::ServerClient c = ms::ServerClient::connect_uds(sock);
  const auto opened = c.open("drainee");
  c.increment(opened.id, 9);
  const std::uint64_t rid = c.on_reach_async(opened.id, 1'000'000);  // parks
  for (int i = 0; i < 400 && server->stats().parked_waits == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server->stats().parked_waits, 1u);

  server->Drain();
  EXPECT_TRUE(server->drained());
  EXPECT_GE(server->stats().shutdown_replies, 1u);
  EXPECT_GE(server->stats().snapshots_written, 1u);
  try {
    c.await_reach(rid);
    FAIL() << "a drained wait must surface the typed shutdown error";
  } catch (const CounterShutdownError&) {
  }
  // The listener is gone: a fresh connect is refused, not parked.
  EXPECT_THROW(ms::ServerClient::connect_uds(sock), std::exception);

  // The snapshot it wrote restores the value without journal replay.
  ms::StateSnapshot snap;
  ASSERT_TRUE(ms::load_snapshot(state, snap));
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 9u);
  server.reset();
}

// ---- forked-process suite: real SIGKILL, real SIGTERM ---------------

TEST_F(ForkedRecovery, Kill9MidWorkloadClientFinishesExactlyOnce) {
  for (const std::uint64_t seed :
       seeds_from_env("MONOTONIC_SERVER_KILL_SEEDS", {1, 2})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string sock = unique_path("kill9.sock");
    const std::string state = unique_path("kill9.state");
    // A floor far below one snapshot (~0.6 KiB: one counter and the
    // client's dedup window) puts a snapshot + journal rotation every
    // dozen increments, so the seed-swept kill lands around them.
    ServerProcess server(sock, state, {"--snapshot-journal-bytes", "256"});

    ms::ServerClient c = ms::ServerClient::connect_uds(sock, retry_options());
    const auto opened = c.open("survivor");
    const std::uint64_t first_epoch = c.epoch();

    constexpr std::uint64_t kTotal = 60;
    const std::uint64_t kill_at = 10 + (seed * 13) % 35;  // seed-swept point
    std::uint64_t reached_before_kill = 0;
    for (std::uint64_t i = 1; i <= kTotal; ++i) {
      c.increment(opened.id, 1);  // acked, seq-tagged, replayed on loss
      if (i == kill_at) {
        reached_before_kill = c.check(opened.id, i);  // REACHED: pinned below
        server.kill9();
        server.restart();
      }
    }
    EXPECT_GE(reached_before_kill, kill_at);

    // Zero app-visible errors above; now the books must balance
    // EXACTLY — every retried increment applied once, none lost.
    const std::uint64_t final_value = c.check(opened.id, kTotal);
    EXPECT_EQ(final_value, kTotal);
    EXPECT_EQ(c.epoch(), first_epoch + 1);  // the restore was observed
    // And the name re-resolved to a live id under the new epoch.
    ms::ServerClient fresh = ms::ServerClient::connect_uds(sock);
    EXPECT_EQ(fresh.resolve("survivor").value, kTotal);
  }
}

TEST_F(ForkedRecovery, SigtermDrainsParkedWaitsAndExitsZero) {
  const std::string sock = unique_path("term.sock");
  const std::string state = unique_path("term.state");
  ServerProcess server(sock, state);

  ms::ServerClient c = ms::ServerClient::connect_uds(sock);
  const auto opened = c.open("drain-me");
  const std::uint64_t rid = c.on_reach_async(opened.id, 1'000'000);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it park

  EXPECT_EQ(server.sigterm_and_wait(), 0);  // drained() gated the exit
  try {
    c.await_reach(rid);
    FAIL() << "SIGTERM drain must answer the parked wait kShuttingDown";
  } catch (const CounterShutdownError&) {
  }
}

TEST_F(ForkedRecovery, RetryClientRidesRollingRestartTransparently) {
  const std::string sock = unique_path("rolling.sock");
  const std::string state = unique_path("rolling.state");
  ServerProcess server(sock, state);

  ms::ServerClient c = ms::ServerClient::connect_uds(sock, retry_options());
  const auto opened = c.open("rolling");
  for (int i = 0; i < 5; ++i) c.increment(opened.id, 1);

  EXPECT_EQ(server.sigterm_and_wait(), 0);  // drain + final snapshot
  server.restart();                         // the rolling restart

  c.increment(opened.id, 1);  // reconnects, re-resolves, succeeds
  EXPECT_EQ(c.check(opened.id, 6), 6u);
}

// ---- chaos proxy: protocol robustness under injected faults ---------

TEST_F(Chaos, FramesSplitIntoSingleBytesStillRoundTrip) {
  const std::string sock = unique_path("split.sock");
  ms::ServerOptions so;
  so.uds_path = sock;
  ms::CounterServer server(std::move(so));
  server.Start();

  ms::ChaosProxyOptions po;
  po.listen_path = unique_path("split_proxy.sock");
  po.upstream_path = sock;
  po.max_chunk = 1;  // every frame crosses one byte at a time
  ms::ChaosProxy proxy(po);
  proxy.Start();

  ms::ServerClient c = ms::ServerClient::connect_uds(po.listen_path);
  const auto opened = c.open("byte-at-a-time");
  c.increment(opened.id, 3);
  EXPECT_EQ(c.check(opened.id, 3), 3u);
  EXPECT_GT(proxy.bytes_forwarded(), 0u);
  proxy.Stop();
  server.Stop();
}

TEST_F(Chaos, TruncatedMidFrameConnectionsLeakNothing) {
  const std::string sock = unique_path("trunc.sock");
  ms::ServerOptions so;
  so.uds_path = sock;
  ms::CounterServer server(std::move(so));
  server.Start();

  for (const std::uint64_t seed :
       seeds_from_env("MONOTONIC_CHAOS_SEEDS", {1, 2, 3})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ms::ChaosProxyOptions po;
    po.listen_path = unique_path("trunc_proxy.sock");
    po.upstream_path = sock;
    po.seed = seed;
    po.cut_after_min = 5;  // inside the Hello frame most of the time
    po.cut_after_max = 60;
    ms::ChaosProxy proxy(po);
    proxy.Start();

    // Drive traffic until the cut lands; every outcome is acceptable
    // EXCEPT a hang or a leak.
    try {
      ms::ClientOptions copts;
      copts.io_timeout = std::chrono::milliseconds(2000);
      ms::ServerClient c =
          ms::ServerClient::connect_uds(po.listen_path, copts);
      for (int i = 0; i < 100; ++i) c.increment(1, 1);
    } catch (const std::exception&) {
      // the cut, surfacing as EOF/timeout — expected
    }
    EXPECT_GE(proxy.connections_cut(), 1u);
    proxy.Stop();

    // The server itself: unharmed, nothing parked, still serving.
    ms::ServerClient direct = ms::ServerClient::connect_uds(sock);
    const auto opened = direct.open("post-chaos-" + std::to_string(seed));
    direct.increment(opened.id, 1);
    EXPECT_EQ(direct.check(opened.id, 1), 1u);
    EXPECT_EQ(server.stats().parked_waits, 0u);
  }
  server.Stop();
}

TEST_F(Chaos, RetryClientThroughCuttingProxyAppliesExactlyOnce) {
  const std::string sock = unique_path("cutretry.sock");
  const std::string state = unique_path("cutretry.state");
  ms::ServerOptions so;
  so.uds_path = sock;
  so.state_file = state;
  ms::CounterServer server(std::move(so));
  server.Start();

  for (const std::uint64_t seed :
       seeds_from_env("MONOTONIC_CHAOS_SEEDS", {7, 8})) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ms::ChaosProxyOptions po;
    po.listen_path = unique_path("cutretry_proxy.sock");
    po.upstream_path = sock;
    po.seed = seed;
    po.cut_after_min = 100;  // several frames in, then sever
    po.cut_after_max = 400;
    ms::ChaosProxy proxy(po);
    proxy.Start();

    ms::ServerClient c =
        ms::ServerClient::connect_uds(po.listen_path, retry_options());
    const std::string name = "chaos-exact-" + std::to_string(seed);
    const auto opened = c.open(name);
    constexpr std::uint64_t kN = 40;
    for (std::uint64_t i = 0; i < kN; ++i) {
      c.increment(opened.id, 1);  // survives any number of proxy cuts
    }
    EXPECT_EQ(c.check(opened.id, kN), kN);  // exactly once, every one
    EXPECT_GE(proxy.connections_cut(), 1u) << "chaos schedule never fired";
    proxy.Stop();

    ms::ServerClient direct = ms::ServerClient::connect_uds(sock);
    EXPECT_EQ(direct.resolve(name).value, kN);
  }
  server.Stop();
}

}  // namespace
