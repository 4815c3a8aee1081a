#include "util/lazy_heap.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "util/rng.hpp"

namespace hp {
namespace {

TEST(LazyMinHeap, PopsMinimum) {
  LazyMinHeap heap;
  heap.push(0, 3.0);
  heap.push(1, 1.0);
  heap.push(2, 2.0);
  std::vector<double> keys{3.0, 1.0, 2.0};
  const auto key = [&](index_t v) { return keys[v]; };
  const auto live = [](index_t) { return true; };
  EXPECT_EQ(heap.pop_current(key, live), 1u);
  EXPECT_EQ(heap.pop_current(key, live), 2u);
  EXPECT_EQ(heap.pop_current(key, live), 0u);
}

TEST(LazyMinHeap, StaleEntriesAreRefreshed) {
  LazyMinHeap heap;
  std::vector<double> keys{1.0, 2.0};
  heap.push(0, keys[0]);
  heap.push(1, keys[1]);
  // Item 0's true key grows past item 1's before the pop.
  keys[0] = 5.0;
  const auto key = [&](index_t v) { return keys[v]; };
  const auto live = [](index_t) { return true; };
  EXPECT_EQ(heap.pop_current(key, live), 1u);
  EXPECT_EQ(heap.pop_current(key, live), 0u);
}

TEST(LazyMinHeap, DeadItemsAreSkipped) {
  LazyMinHeap heap;
  heap.push(0, 1.0);
  heap.push(1, 2.0);
  std::vector<bool> alive{false, true};
  const auto key = [](index_t) { return 2.0; };
  const auto live = [&](index_t v) { return alive[v]; };
  EXPECT_EQ(heap.pop_current(key, live), 1u);
}

TEST(LazyMinHeap, ThrowsWhenDrained) {
  LazyMinHeap heap;
  heap.push(0, 1.0);
  const auto key = [](index_t) { return 1.0; };
  const auto dead = [](index_t) { return false; };
  EXPECT_THROW(heap.pop_current(key, dead), std::logic_error);
}

TEST(LazyMinHeap, DeterministicTieBreakByItem) {
  LazyMinHeap heap;
  heap.push(5, 1.0);
  heap.push(2, 1.0);
  heap.push(9, 1.0);
  const auto key = [](index_t) { return 1.0; };
  const auto live = [](index_t) { return true; };
  EXPECT_EQ(heap.pop_current(key, live), 2u);
  EXPECT_EQ(heap.pop_current(key, live), 5u);
  EXPECT_EQ(heap.pop_current(key, live), 9u);
}

TEST(LazyMinHeap, ManyUpdatesConverge) {
  // Keys that repeatedly grow: each pop must return the item whose
  // current key is (weakly) minimal at that moment.
  LazyMinHeap heap;
  std::vector<double> keys{1.0, 1.5, 2.0, 2.5};
  for (index_t v = 0; v < 4; ++v) heap.push(v, keys[v]);
  std::vector<bool> alive(4, true);
  const auto key = [&](index_t v) { return keys[v]; };
  const auto live = [&](index_t v) { return alive[v]; };

  // Grow key of 0 twice before popping.
  keys[0] = 3.0;
  keys[0] = 10.0;
  EXPECT_EQ(heap.pop_current(key, live), 1u);
  alive[1] = false;
  keys[2] = 20.0;
  EXPECT_EQ(heap.pop_current(key, live), 3u);
  alive[3] = false;
  EXPECT_EQ(heap.pop_current(key, live), 0u);
}

TEST(LazyMinHeap, SupersededEntriesAreDroppedAndCounted) {
  // Falling keys (the generalized core's measures): the caller pushes
  // each decrease, and the older, larger snapshot is dropped when it
  // surfaces after its item was popped.
  LazyMinHeap heap;
  std::vector<double> keys{4.0, 3.0};
  std::vector<bool> alive{true, true};
  heap.push(0, keys[0]);
  heap.push(1, keys[1]);
  keys[0] = 1.0;
  heap.push(0, keys[0]);
  const auto key = [&](index_t v) { return keys[v]; };
  const auto live = [&](index_t v) { return alive[v]; };
  EXPECT_EQ(heap.pop_current(key, live), 0u);
  alive[0] = false;
  EXPECT_EQ(heap.pop_current(key, live), 1u);
  EXPECT_EQ(heap.pushes(), 3u);
  EXPECT_EQ(heap.discarded(), 0u);
  alive[1] = false;
  EXPECT_THROW(heap.pop_current(key, live), std::logic_error);
  EXPECT_EQ(heap.discarded(), 1u);  // item 0's stale 4.0 snapshot
}

// --- the seeded form: a sorted run plus a heap of later pushes --------

TEST(LazyMinHeap, SeededRunPopsInKeyThenItemOrder) {
  LazyMinHeap heap{{{3.0, 0}, {1.0, 1}, {2.0, 2}, {1.0, 3}}};
  std::vector<double> keys{3.0, 1.0, 2.0, 1.0};
  const auto key = [&](index_t v) { return keys[v]; };
  const auto live = [](index_t) { return true; };
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.pop_current(key, live), 1u);
  EXPECT_EQ(heap.pop_current(key, live), 3u);
  EXPECT_EQ(heap.pop_current(key, live), 2u);
  EXPECT_EQ(heap.pop_current(key, live), 0u);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.pushes(), 4u);
}

TEST(LazyMinHeap, SeededRunRejectsEntriesOutOfItemOrder) {
  EXPECT_THROW((LazyMinHeap{{{1.0, 2}, {0.5, 1}}}), InvalidInputError);
}

TEST(LazyMinHeap, EqualKeyInRunAndHeapLowerItemWins) {
  const auto key = [](index_t) { return 1.0; };
  const auto live = [](index_t) { return true; };
  // Lower item in the heap: it must beat the run head.
  LazyMinHeap from_heap{{{1.0, 5}}};
  from_heap.push(2, 1.0);
  EXPECT_EQ(from_heap.pop_current(key, live), 2u);
  EXPECT_EQ(from_heap.pop_current(key, live), 5u);
  // Lower item in the run: it must beat the heap top.
  LazyMinHeap from_run{{{1.0, 2}}};
  from_run.push(5, 1.0);
  EXPECT_EQ(from_run.pop_current(key, live), 2u);
  EXPECT_EQ(from_run.pop_current(key, live), 5u);
}

TEST(LazyMinHeap, RefreshOvertakesRunEntries) {
  std::vector<double> keys{1.0, 2.0, 3.0, 4.0};
  LazyMinHeap heap{{{1.0, 0}, {2.0, 1}, {3.0, 2}, {4.0, 3}}};
  const auto key = [&](index_t v) { return keys[v]; };
  const auto live = [](index_t) { return true; };
  // Item 0 grows to 2.5: its run entry is re-pushed into the heap, where
  // it must come out after run entry 1 but ahead of run entries 2 and 3.
  keys[0] = 2.5;
  EXPECT_EQ(heap.pop_current(key, live), 1u);
  EXPECT_EQ(heap.pop_current(key, live), 0u);
  EXPECT_EQ(heap.pop_current(key, live), 2u);
  EXPECT_EQ(heap.pop_current(key, live), 3u);
  EXPECT_EQ(heap.pushes(), 5u);
  EXPECT_EQ(heap.discarded(), 0u);
}

TEST(LazyMinHeap, RunOfOnlyDiscardedEntries) {
  const auto key = [](index_t) { return 1.0; };
  const auto dead = [](index_t v) { return v == 7; };
  // Every run entry is dead; the one live entry sits in the heap behind
  // them in key order.
  LazyMinHeap heap{{{0.5, 0}, {0.5, 1}, {0.75, 2}}};
  heap.push(7, 1.0);
  EXPECT_EQ(heap.pop_current(key, dead), 7u);
  EXPECT_EQ(heap.discarded(), 3u);
  EXPECT_TRUE(heap.empty());

  LazyMinHeap all_dead{{{0.5, 0}, {0.5, 1}, {0.75, 2}}};
  EXPECT_THROW(all_dead.pop_current(key, dead), std::logic_error);
  EXPECT_EQ(all_dead.discarded(), 3u);
  EXPECT_EQ(all_dead.size(), 0u);
}

TEST(LazyMinHeap, SeededQueueThrowsWhenDrained) {
  LazyMinHeap heap{{{2.0, 0}, {1.0, 1}}};
  const auto key = [](index_t v) { return v == 0 ? 2.0 : 1.0; };
  std::vector<bool> alive{true, true};
  const auto live = [&](index_t v) { return alive[v]; };
  EXPECT_EQ(heap.pop_current(key, live), 1u);
  alive[1] = false;
  EXPECT_EQ(heap.pop_current(key, live), 0u);
  alive[0] = false;
  EXPECT_TRUE(heap.empty());
  EXPECT_THROW(heap.pop_current(key, live), std::logic_error);
  EXPECT_THROW(heap.pop_current(key, live), std::logic_error);
}

/// The single-heap loop the run + heap queue replaced, kept as the
/// reference its pop sequence must equal.
class ReferenceHeap {
 public:
  void push(index_t item, double key) {
    heap_.push(LazyMinHeap::Entry{key, item});
    ++pushes;
  }
  template <typename KeyFn, typename LiveFn>
  std::optional<index_t> pop_current(KeyFn&& current_key,
                                     LiveFn&& still_live) {
    while (!heap_.empty()) {
      const LazyMinHeap::Entry top = heap_.top();
      heap_.pop();
      if (still_live(top.item)) {
        const double fresh = current_key(top.item);
        if (fresh == top.key) return top.item;
        if (fresh > top.key) {
          push(top.item, fresh);
          continue;
        }
      }
      ++discarded;
    }
    return std::nullopt;
  }
  count_t pushes = 0;
  count_t discarded = 0;

 private:
  std::priority_queue<LazyMinHeap::Entry, std::vector<LazyMinHeap::Entry>,
                      std::greater<LazyMinHeap::Entry>>
      heap_;
};

TEST(LazyMinHeap, PopSequenceEqualsSingleHeapReference) {
  // Random grow / shrink / kill traffic on few distinct keys (so ties
  // are common): the seeded queue must pop exactly what one heap
  // holding every entry pops, with the same push and discard counts.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng{seed};
    const index_t n = 1 + static_cast<index_t>(rng.uniform(60));
    std::vector<double> keys(n);
    std::vector<bool> alive(n, true);
    std::vector<LazyMinHeap::Entry> initial;
    ReferenceHeap reference;
    for (index_t v = 0; v < n; ++v) {
      keys[v] = static_cast<double>(rng.uniform(6));
      initial.push_back({keys[v], v});
      reference.push(v, keys[v]);
    }
    LazyMinHeap heap{std::move(initial)};
    const auto key = [&](index_t v) { return keys[v]; };
    const auto live = [&](index_t v) { return alive[v]; };
    while (true) {
      const std::optional<index_t> expected = reference.pop_current(key, live);
      if (!expected) {
        EXPECT_THROW(heap.pop_current(key, live), std::logic_error);
        break;
      }
      ASSERT_EQ(heap.pop_current(key, live), *expected) << "seed " << seed;
      alive[*expected] = false;
      for (int touch = 0; touch < 3; ++touch) {
        const index_t v = static_cast<index_t>(rng.uniform(n));
        if (!alive[v]) continue;
        switch (rng.uniform(3)) {
          case 0:  // grows: found stale at pop time, re-pushed there
            keys[v] += static_cast<double>(1 + rng.uniform(3));
            break;
          case 1:  // falls: the caller pushes the decrease
            keys[v] -= static_cast<double>(1 + rng.uniform(2));
            heap.push(v, keys[v]);
            reference.push(v, keys[v]);
            break;
          default:
            alive[v] = false;
        }
      }
    }
    EXPECT_EQ(heap.pushes(), reference.pushes) << "seed " << seed;
    EXPECT_EQ(heap.discarded(), reference.discarded) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hp
