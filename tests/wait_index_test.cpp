// wait_index_test.cpp — structural tests for the level index
// (wait_index.hpp) behind every counter's wait plane and OnReach
// callback index.
//
// These drive WaitList / CallbackListT / LevelShard directly (no
// threads, no policies): the §7 contract — ascending release order,
// released prefix exactness, O(live levels) storage under timeouts —
// must hold at every size, so the heaviest test here is differential:
// one seeded operation stream applied to a wait list and to a plain
// ordered-map model side by side, comparing every observable after
// every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <random>
#include <vector>

#include "monotonic/core/counter_stats.hpp"
#include "monotonic/core/wait_list.hpp"

namespace {

using namespace monotonic;

struct StubSignal {
  void reset() {}
};

using List = WaitList<StubSignal>;
using Node = List::Node;

TEST(WaitIndex, ReleasesAscending) {
  CounterStats stats;
  List heap(WaitListOptions{}, stats);
  // Arm 100 levels in a scrambled order.
  std::vector<counter_value_t> levels;
  for (counter_value_t l = 1; l <= 100; ++l) levels.push_back(l);
  std::mt19937 rng(7);
  std::shuffle(levels.begin(), levels.end(), rng);
  std::vector<Node*> nodes;
  for (counter_value_t l : levels) nodes.push_back(heap.acquire(l));
  EXPECT_EQ(heap.live_level_count(), 100u);
  EXPECT_EQ(heap.min_level(), 1u);

  std::vector<counter_value_t> released;
  heap.release_prefix(50, [&](Node& node) { released.push_back(node.level); });
  ASSERT_EQ(released.size(), 50u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(released.front(), 1u);
  EXPECT_EQ(released.back(), 50u);
  EXPECT_EQ(heap.min_level(), 51u);
  EXPECT_EQ(heap.live_level_count(), 50u);

  // Joining an existing level reuses its node; a new one links fresh.
  Node* join = heap.acquire(60);
  EXPECT_EQ(join->waiters, 2u);
  EXPECT_EQ(heap.live_level_count(), 50u);

  std::vector<counter_value_t> aborted;
  heap.abort_all([&](Node& node) {
    EXPECT_TRUE(node.aborted);
    aborted.push_back(node.level);
  });
  ASSERT_EQ(aborted.size(), 50u);
  EXPECT_TRUE(std::is_sorted(aborted.begin(), aborted.end()));
  EXPECT_TRUE(heap.empty());

  for (Node* node : nodes) heap.leave(node);
  heap.leave(join);
  EXPECT_EQ(heap.waiter_count(), 0u);
}

TEST(WaitIndex, BulkDrainCrossoverKeepsOrderAndSurvivors) {
  // A release past LevelShard::kBulkWakeThreshold levels leaves the
  // pop loop for the sort-split drain: the wake order must stay
  // ascending and the surviving entries must still
  // be a fully working index — back-links intact for timed unlinks,
  // joins finding their nodes, later releases correct.
  CounterStats stats;
  List heap(WaitListOptions{}, stats);
  std::vector<counter_value_t> levels;
  for (counter_value_t l = 1; l <= 300; ++l) levels.push_back(l);
  std::mt19937 rng(11);
  std::shuffle(levels.begin(), levels.end(), rng);
  std::vector<Node*> nodes;
  for (counter_value_t l : levels) nodes.push_back(heap.acquire(l));

  std::vector<counter_value_t> released;
  heap.release_prefix(200, [&](Node& node) { released.push_back(node.level); });
  ASSERT_EQ(released.size(), 200u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(released.front(), 1u);
  EXPECT_EQ(released.back(), 200u);
  EXPECT_EQ(heap.min_level(), 201u);
  EXPECT_EQ(heap.live_level_count(), 100u);

  // The survivors were re-based by discard_prefix: a timed unlink from
  // the middle exercises the heap_pos back-link assertion, and a join
  // must find its node through the hash.
  Node* mid = nullptr;
  for (Node* node : nodes) {
    if (node->level == 250) mid = node;
  }
  ASSERT_NE(mid, nullptr);
  heap.leave(mid);
  EXPECT_EQ(heap.live_level_count(), 99u);
  Node* join = heap.acquire(299);
  EXPECT_EQ(join->waiters, 2u);

  released.clear();
  heap.release_prefix(kNoArmedLevel - 1,
                      [&](Node& node) { released.push_back(node.level); });
  ASSERT_EQ(released.size(), 99u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(released.front(), 201u);
  EXPECT_TRUE(heap.empty());

  for (Node* node : nodes) {
    if (node != mid) heap.leave(node);
  }
  heap.leave(join);
  EXPECT_EQ(heap.waiter_count(), 0u);
}

TEST(WaitIndex, RadixDrainSortsLargeIndices) {
  // Past kRadixMinSort entries the bulk drain's sort switches from
  // introsort to the LSD radix pass — cover it with 20k entries,
  // including a partial release so the radix-sorted survivors stay a
  // working index.
  CounterStats stats;
  List heap(WaitListOptions{}, stats);
  std::vector<counter_value_t> levels;
  for (counter_value_t l = 1; l <= 20'000; ++l) levels.push_back(l);
  std::mt19937 rng(17);
  std::shuffle(levels.begin(), levels.end(), rng);
  std::vector<Node*> nodes;
  for (counter_value_t l : levels) nodes.push_back(heap.acquire(l));

  std::vector<counter_value_t> released;
  heap.release_prefix(15'000,
                      [&](Node& node) { released.push_back(node.level); });
  ASSERT_EQ(released.size(), 15'000u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(released.front(), 1u);
  EXPECT_EQ(released.back(), 15'000u);
  EXPECT_EQ(heap.min_level(), 15'001u);

  released.clear();
  heap.abort_all([&](Node& node) { released.push_back(node.level); });
  ASSERT_EQ(released.size(), 5'000u);
  EXPECT_TRUE(std::is_sorted(released.begin(), released.end()));
  EXPECT_EQ(released.front(), 15'001u);
  EXPECT_TRUE(heap.empty());

  for (Node* node : nodes) heap.leave(node);
  EXPECT_EQ(heap.waiter_count(), 0u);
}

TEST(WaitIndex, CallbackIndexBulkDetachKeepsLevelOrder) {
  // Same crossover for the callback plane: a detach_reached past the
  // threshold must still run callbacks in level order.
  CallbackList callbacks;
  std::vector<counter_value_t> levels;
  for (counter_value_t l = 1; l <= 250; ++l) levels.push_back(l);
  std::mt19937 rng(13);
  std::shuffle(levels.begin(), levels.end(), rng);
  std::vector<counter_value_t> ran;
  for (counter_value_t l : levels) {
    callbacks.insert(l, [&ran, l] { ran.push_back(l); });
  }

  CallbackList::run_chain(callbacks.detach_reached(180));
  ASSERT_EQ(ran.size(), 180u);
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
  EXPECT_EQ(ran.front(), 1u);
  EXPECT_EQ(ran.back(), 180u);
  EXPECT_EQ(callbacks.min_level(), 181u);

  std::vector<counter_value_t> rest;
  CallbackList::Node* chain = callbacks.detach_all();
  for (CallbackList::Node* n = chain; n != nullptr; n = n->next) {
    rest.push_back(n->level);
  }
  EXPECT_TRUE(callbacks.empty());
  ASSERT_EQ(rest.size(), 70u);
  EXPECT_TRUE(std::is_sorted(rest.begin(), rest.end()));
  CallbackList::run_chain(chain);
}

TEST(WaitIndex, TimedOutWaiterUnlinksFromTheMiddle) {
  CounterStats stats;
  List heap(WaitListOptions{}, stats);
  Node* a = heap.acquire(10);
  Node* b = heap.acquire(20);
  Node* c = heap.acquire(30);
  Node* d = heap.acquire(40);
  // b "times out": last waiter at its level, node still linked.
  heap.leave(b);
  EXPECT_EQ(heap.live_level_count(), 3u);
  std::vector<counter_value_t> released;
  heap.release_prefix(kNoArmedLevel - 1,
                      [&](Node& node) { released.push_back(node.level); });
  EXPECT_EQ(released, (std::vector<counter_value_t>{10, 30, 40}));
  heap.leave(a);
  heap.leave(c);
  heap.leave(d);
  EXPECT_TRUE(heap.empty());
}

TEST(WaitIndex, AdmissionBoundsUseTheLevelLookup) {
  CounterStats stats;
  WaitListOptions options;
  options.max_levels = 2;
  List heap(options, stats);
  Node* a = heap.acquire(1);
  Node* b = heap.acquire(2);
  EXPECT_TRUE(heap.admission_would_exceed(3));   // would link a third level
  EXPECT_FALSE(heap.admission_would_exceed(2));  // joining is always fine
  heap.leave(a);
  EXPECT_FALSE(heap.admission_would_exceed(3));
  heap.leave(b);
  EXPECT_TRUE(heap.empty());
}

TEST(WaitIndex, SnapshotIsAscending) {
  CounterStats stats;
  List heap(WaitListOptions{}, stats);
  std::vector<Node*> nodes;
  for (counter_value_t l : {17, 3, 29, 11, 5}) nodes.push_back(heap.acquire(l));
  std::vector<DebugWaitLevel> snap;
  heap.snapshot_into(snap);
  ASSERT_EQ(snap.size(), 5u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].level, snap[i].level);
  }
  heap.release_prefix(kNoArmedLevel - 1, [](Node&) {});
  for (Node* node : nodes) heap.leave(node);
}

#if MONOTONIC_ENABLE_STATS
TEST(WaitIndex, RecordsDepthAndBulkWakes) {
  CounterStats stats;
  List heap(WaitListOptions{}, stats);
  std::vector<Node*> nodes;
  for (counter_value_t l = 1; l <= 15; ++l) nodes.push_back(heap.acquire(l));
  // 15 nodes: a full 4-deep binary heap.
  EXPECT_EQ(stats.snapshot().index_depth, 4u);
  heap.release_prefix(15, [](Node&) {});
  EXPECT_EQ(stats.snapshot().bulk_wakes, 1u);  // one pass, 15 levels
  for (Node* node : nodes) heap.leave(node);

  // A single-level release is not a bulk wake.
  Node* solo = heap.acquire(99);
  heap.release_prefix(99, [](Node&) {});
  heap.leave(solo);
  EXPECT_EQ(stats.snapshot().bulk_wakes, 1u);
}
#endif

// The differential test: one seeded operation stream applied to a
// wait list and to an ordered-map model of §7's list (level -> waiter
// count), every observable compared after every step.  The level
// range spans kSmallLevels, so the stream crosses the index's
// scan/hash threshold in both directions many times.
TEST(WaitIndex, DifferentialAgainstAnOrderedModel) {
  for (std::uint32_t seed : {1u, 2u, 3u, 4u, 5u}) {
    CounterStats stats;
    List list(WaitListOptions{}, stats);
    std::map<counter_value_t, std::size_t> model;  // live level -> waiters
    std::mt19937 rng(seed);
    std::vector<Node*> nodes;  // one entry per logical waiter
    std::vector<bool> left;
    counter_value_t value = 0;  // released levels stay <= value

    const auto compare = [&](const char* what) {
      EXPECT_EQ(list.min_level(),
                model.empty() ? kNoArmedLevel : model.begin()->first)
          << what;
      EXPECT_EQ(list.live_level_count(), model.size()) << what;
      std::size_t waiters = 0;
      for (const auto& [level, n] : model) waiters += n;
      EXPECT_EQ(list.waiter_count(), waiters) << what;
      std::vector<DebugWaitLevel> snap;
      list.snapshot_into(snap);
      ASSERT_EQ(snap.size(), model.size()) << what;
      std::size_t i = 0;
      for (const auto& [level, n] : model) {
        EXPECT_EQ(snap[i].level, level) << what;
        EXPECT_EQ(snap[i].waiters, n) << what;
        ++i;
      }
    };
    const auto leave = [&](std::size_t i) {
      auto it = model.find(nodes[i]->level);
      if (it != model.end() && --it->second == 0) model.erase(it);
      list.leave(nodes[i]);
      left[i] = true;
    };

    for (int step = 0; step < 400; ++step) {
      const int op = static_cast<int>(rng() % 100);
      if (op < 55) {  // acquire a (possibly shared) level above value
        const counter_value_t level = value + 1 + rng() % 40;
        nodes.push_back(list.acquire(level));
        ++model[level];
        left.push_back(false);
      } else if (op < 80) {  // a random live waiter leaves (timeout)
        std::vector<std::size_t> live;
        for (std::size_t i = 0; i < left.size(); ++i) {
          if (!left[i] && !nodes[i]->released) live.push_back(i);
        }
        if (live.empty()) continue;
        leave(live[rng() % live.size()]);
      } else {  // increment: release the prefix
        value += 1 + rng() % 30;
        std::vector<counter_value_t> released, expected;
        for (auto it = model.begin();
             it != model.end() && it->first <= value;) {
          expected.push_back(it->first);
          it = model.erase(it);
        }
        list.release_prefix(value,
                            [&](Node& node) { released.push_back(node.level); });
        EXPECT_EQ(released, expected) << "release order diverged, seed " << seed;
        // Released waiters wake and leave.
        for (std::size_t i = 0; i < left.size(); ++i) {
          if (!left[i] && nodes[i]->released) leave(i);
        }
      }
      compare("after step");
    }
    // Drain: abort everything, then every survivor leaves.
    std::vector<counter_value_t> aborted, expected;
    for (const auto& [level, n] : model) expected.push_back(level);
    model.clear();
    list.abort_all([&](Node& node) { aborted.push_back(node.level); });
    EXPECT_EQ(aborted, expected);
    for (std::size_t i = 0; i < left.size(); ++i) {
      if (left[i]) continue;
      EXPECT_TRUE(nodes[i]->aborted);
      leave(i);
    }
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.waiter_count(), 0u);
  }
}

// ---- LevelShard across the small-index threshold --------------------

struct IndexNode {
  counter_value_t level = 0;
  std::size_t heap_pos = 0;
};
using Index = detail::LevelShard<IndexNode>;

std::vector<counter_value_t> drain_levels(Index& index, counter_value_t value) {
  std::vector<counter_value_t> out;
  const std::size_t n =
      index.drain(value, [&](IndexNode* node) { out.push_back(node->level); });
  EXPECT_EQ(n, out.size());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  return out;
}

TEST(WaitIndex, SmallIndexThresholdCrossedBothWays) {
  constexpr std::size_t kSmall = Index::kSmallLevels;
  constexpr std::size_t kBulk = Index::kBulkWakeThreshold;
  std::vector<IndexNode> nodes(4 * kBulk);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].level = static_cast<counter_value_t>(i + 1);
  }
  const auto noop = [] {};
  Index index;
  std::mt19937 rng(23);

  // Below the threshold: the heap array alone, found by scan.
  std::vector<std::size_t> order(kSmall);
  for (std::size_t i = 0; i < kSmall; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  for (std::size_t i : order) {
    ASSERT_EQ(index.find(nodes[i].level), nullptr);
    index.link(&nodes[i], noop);
  }
  EXPECT_FALSE(index.has_hash_index());
  EXPECT_EQ(index.find(nodes[3].level), &nodes[3]);  // join lookup

  // Crossing up: the next link builds the hash from the heap array.
  index.link(&nodes[kSmall], noop);
  EXPECT_TRUE(index.has_hash_index());
  for (std::size_t i = 0; i <= kSmall; ++i) {
    EXPECT_EQ(index.find(nodes[i].level), &nodes[i]);
  }

  // Timed-out erases from the middle take it back below the
  // threshold; lookups stay exact on the way down.
  for (std::size_t i = 2; i < kSmall; i += 2) index.erase(&nodes[i]);
  EXPECT_LT(index.size(), kSmall);
  EXPECT_EQ(index.find(nodes[4].level), nullptr);
  EXPECT_EQ(index.find(nodes[5].level), &nodes[5]);

  // A small peel, ascending: levels 1, 2 and 4 (3 was erased).
  EXPECT_EQ(drain_levels(index, 4), (std::vector<counter_value_t>{1, 2, 4}));

  // Back up far past the threshold and the bulk crossover.
  for (std::size_t i = kSmall + 1; i < nodes.size(); ++i) {
    index.link(&nodes[i], noop);
  }
  EXPECT_TRUE(index.has_hash_index());
  EXPECT_EQ(index.find(nodes[nodes.size() - 1].level), &nodes.back());

  // Bulk drain of a prefix (more than kBulk levels), then the rest: the
  // survivors of the partial drain must stay a working index.
  const counter_value_t cut = static_cast<counter_value_t>(3 * kBulk);
  std::vector<counter_value_t> first = drain_levels(index, cut);
  EXPECT_GT(first.size(), kBulk);
  EXPECT_EQ(first.back(), cut);
  EXPECT_EQ(index.min_level(), cut + 1);
  index.erase(&nodes[cut + 5]);  // back-links re-based by the drain
  EXPECT_EQ(index.find(nodes[cut + 6].level), &nodes[cut + 6]);
  std::vector<counter_value_t> rest = drain_levels(index, kNoArmedLevel);
  EXPECT_EQ(rest.size(), nodes.size() - cut - 1);
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.has_hash_index()) << "bulk drain kept the hash block";

  // Emptied by pops (a peel below the bulk crossover) and by erases.
  for (std::size_t i = 0; i < 2 * kSmall; ++i) index.link(&nodes[i], noop);
  EXPECT_TRUE(index.has_hash_index());
  EXPECT_EQ(drain_levels(index, kNoArmedLevel).size(), 2 * kSmall);
  EXPECT_FALSE(index.has_hash_index()) << "peel to empty kept the hash block";

  for (std::size_t i = 0; i < 2 * kSmall; ++i) index.link(&nodes[i], noop);
  EXPECT_TRUE(index.has_hash_index());
  for (std::size_t i = 0; i < 2 * kSmall; ++i) index.erase(&nodes[i]);
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.has_hash_index()) << "erase to empty kept the hash block";
}

// ---- CallbackListT over the level index -----------------------------

TEST(WaitIndex, CallbackIndexDetachesAscendingChains) {
  CallbackList callbacks;
  std::vector<counter_value_t> ran;
  for (counter_value_t l : {25, 5, 15, 35, 10, 5}) {
    callbacks.insert(l, [&ran, l] { ran.push_back(l); });
  }
  EXPECT_FALSE(callbacks.empty());
  EXPECT_EQ(callbacks.min_level(), 5u);

  std::vector<counter_value_t> snap;
  callbacks.snapshot_into(snap);
  EXPECT_EQ(snap, (std::vector<counter_value_t>{5, 10, 15, 25, 35}));

  CallbackList::run_chain(callbacks.detach_reached(15));
  // Both level-5 entries ran (registration order), then 10, then 15.
  EXPECT_EQ(ran, (std::vector<counter_value_t>{5, 5, 10, 15}));
  EXPECT_EQ(callbacks.min_level(), 25u);

  std::vector<counter_value_t> errored;
  auto cause = std::make_exception_ptr(std::runtime_error("producer died"));
  CallbackList::Node* rest = callbacks.detach_all();
  EXPECT_TRUE(callbacks.empty());
  for (CallbackList::Node* n = rest; n != nullptr; n = n->next) {
    errored.push_back(n->level);
  }
  EXPECT_EQ(errored, (std::vector<counter_value_t>{25, 35}));
  CallbackList::run_chain_error(rest, cause);
}

TEST(WaitIndex, CallbackIndexDropsUnreachedAtDestruction) {
  // Covers the destructor sweep over still-linked nodes.
  CallbackList callbacks;
  for (counter_value_t l : {8, 2, 4}) {
    callbacks.insert(l, [] { FAIL() << "unreached callback must not run"; });
  }
}

}  // namespace
