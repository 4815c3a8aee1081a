// Lazy-deletion binary min-heap keyed by double: the one priority queue
// behind the greedy covers (Fig. 5 of the paper) and the
// generalized-core peel.
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
// O(U log U) where U is the number of key updates. Ties break toward
// the lower item id, so pop order is deterministic.
#pragma once

#include <cstddef>
#include <queue>
#include <stdexcept>
#include <vector>

#include "util/common.hpp"

namespace hp {

class LazyMinHeap {
 public:
  void push(index_t item, double key) {
    heap_.push(Entry{key, item});
    ++pushes_;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Entries inserted so far, refreshes included.
  count_t pushes() const { return pushes_; }
  /// Entries dropped as dead or superseded (always <= pushes()).
  count_t discarded() const { return discarded_; }

  /// Pop entries until one whose stored key equals `current_key(item)`
  /// for a `still_live(item)` item surfaces, and return that item (the
  /// live item with the smallest current key, lowest id on ties).
  /// Throws std::logic_error if the heap drains without a live entry.
  template <typename KeyFn, typename LiveFn>
  index_t pop_current(KeyFn&& current_key, LiveFn&& still_live) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
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
  struct Entry {
    double key;
    index_t item;
    bool operator>(const Entry& other) const {
      if (key != other.key) return key > other.key;
      return item > other.item;  // deterministic tie-break
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  count_t pushes_ = 0;
  count_t discarded_ = 0;
};

}  // namespace hp
