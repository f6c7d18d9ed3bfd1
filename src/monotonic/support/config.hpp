// config.hpp — library-wide configuration and version information.
//
// Part of libmonotonic, a reproduction of:
//   John Thornley and K. Mani Chandy,
//   "Monotonic Counters: A New Mechanism for Thread Synchronization",
//   IPPS 2000.
#pragma once

#include <cstdint>

namespace monotonic {

/// Library semantic version.
struct Version {
  int major;
  int minor;
  int patch;
};

/// Returns the version of libmonotonic this translation unit was built
/// against.
constexpr Version version() noexcept { return Version{1, 0, 0}; }

/// When nonzero, counters and barriers maintain structural statistics
/// (wakeups, broadcasts, live wait-node high-water marks); benches rely
/// on them to reproduce the paper's structural claims (DESIGN.md
/// E5/E6/E9).  Each is a relaxed atomic, but every bump is still a
/// read-modify-write on a line the counter's threads share.  The
/// lock-free Increment fast path makes exactly one such bump: a tally
/// on the value plane's own line, beside the add (counter_stats.hpp).
/// On a 4-vCPU Xeon VM, 4 threads pay ~45 ns per Increment on the
/// word plane with stats on against ~35 ns with stats off, and ~5 ns
/// against ~4 ns on an 8-stripe plane (bench_counter_ops --quick, E11).
#ifndef MONOTONIC_ENABLE_STATS
#define MONOTONIC_ENABLE_STATS 1
#endif

/// Counter values are unsigned 64-bit throughout.  The paper uses
/// `unsigned int`; we widen it so overflow is a non-issue for any
/// realistic program (2^64 increments of 1 at 1ns each is ~580 years).
using counter_value_t = std::uint64_t;

}  // namespace monotonic
