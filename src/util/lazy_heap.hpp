// Lazy-deletion min-queue keyed by double: the one priority queue
// behind the greedy covers (Fig. 5 of the paper) and the
// generalized-core peel.
//
// Two parts, read as one queue:
//   * a run of the initial entries, sorted once at construction and
//     consumed by a cursor;
//   * a binary heap that receives only the entries pushed afterwards.
// pop_current() takes the smaller of the two heads under the (key,
// lower item) order, so the pop sequence is exactly that of a single
// heap holding every entry. Both users seed all n items up front and
// then refresh only a fraction of them: the cover discards most
// vertices unchanged (all their edges got covered by others), and each
// such discard is a cursor step instead of an O(log n) heap pop.
//
// Entries are (key, item) snapshots; nothing is located or updated in
// place. pop_current() re-checks each surfacing entry against the
// caller's current key:
//   * key grew since the push (the cover's alpha(v) = w(v) / |adj(v) ∩
//     F_i| only increases) -- re-push it with the fresh key;
//   * key shrank since the push -- drop it: the caller pushes every
//     decrease (the generalized core's measures only fall), so a fresher
//     entry exists;
//   * item no longer live -- drop it.
// Each item is re-pushed at most once per key change, so total work is
// O(n log n + U log U) where U is the number of key updates. Ties break
// toward the lower item id, so pop order is deterministic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace hp {

class LazyMinHeap {
 public:
  struct Entry {
    double key;
    index_t item;
    bool operator>(const Entry& other) const {
      if (key != other.key) return key > other.key;
      return item > other.item;  // deterministic tie-break
    }
  };

  LazyMinHeap() = default;

  /// Seed the queue with its initial entries. Precondition: `initial`
  /// lists items in non-decreasing id order (both users fill it in one
  /// pass over the ids). A stable sort by key alone then yields the
  /// full (key, item) order; on the 10^5 surrogate the degree^2 cover
  /// took 6.6 ms with it against 15.6 ms with std::sort and the
  /// two-field comparator.
  explicit LazyMinHeap(std::vector<Entry> initial)
      : run_(std::move(initial)), pushes_(run_.size()) {
    HP_REQUIRE(std::is_sorted(run_.begin(), run_.end(),
                              [](const Entry& a, const Entry& b) {
                                return a.item < b.item;
                              }),
               "LazyMinHeap: initial entries must be in item order");
    std::stable_sort(run_.begin(), run_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.key < b.key;
                     });
  }

  void push(index_t item, double key) {
    heap_.push(Entry{key, item});
    ++pushes_;
  }

  bool empty() const { return next_ == run_.size() && heap_.empty(); }
  std::size_t size() const { return run_.size() - next_ + heap_.size(); }

  /// Entries inserted so far, initial and refreshes included.
  count_t pushes() const { return pushes_; }
  /// Entries dropped as dead or superseded (always <= pushes()).
  count_t discarded() const { return discarded_; }

  /// Pop entries until one whose stored key equals `current_key(item)`
  /// for a `still_live(item)` item surfaces, and return that item (the
  /// live item with the smallest current key, lowest id on ties).
  /// Throws std::logic_error if the queue drains without a live entry.
  template <typename KeyFn, typename LiveFn>
  index_t pop_current(KeyFn&& current_key, LiveFn&& still_live) {
    while (!empty()) {
      const bool from_run = next_ < run_.size() &&
                            (heap_.empty() || heap_.top() > run_[next_]);
      const Entry top = from_run ? run_[next_++] : heap_.top();
      if (!from_run) heap_.pop();
      if (still_live(top.item)) {
        const double fresh = current_key(top.item);
        if (fresh == top.key) return top.item;
        if (fresh > top.key) {
          push(top.item, fresh);
          continue;
        }
      }
      ++discarded_;
    }
    throw std::logic_error{"LazyMinHeap: no live entries"};
  }

 private:
  std::vector<Entry> run_;  // initial entries in (key, item) order
  std::size_t next_ = 0;    // cursor into run_
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  count_t pushes_ = 0;
  count_t discarded_ = 0;
};

}  // namespace hp
