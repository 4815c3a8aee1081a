#include "util/lazy_heap.hpp"

#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace hp
