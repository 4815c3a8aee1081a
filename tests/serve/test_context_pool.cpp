// ContextPool accounting and eviction regressions (serve/context_pool).
//
// The load-bearing invariant: the bytes the pool charges for an entry
// are exactly the session's own ContextStats accounting (artifacts +
// owned + mapped hypergraph storage), re-measured at lease release --
// so the LRU budget operates on real footprints, not stale estimates,
// across insert, query-driven growth, eviction and re-load.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cli/query.hpp"
#include "serve/context_pool.hpp"
#include "scratch_dir.hpp"

namespace hp::serve {
namespace {

class ContextPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::ofstream a(path_a_);
    a << "Arp23\tARP2\tARP3\tARC15\n"
      << "SAGA\tGCN5\tADA2\tSPT7\tARP2\n"
      << "ADA\tGCN5\tADA2\n";
    std::ofstream b(path_b_);
    b << "CxA\tP1\tP2\tP3\n"
      << "CxB\tP2\tP4\n"
      << "CxC\tP1\tP4\tP5\tP6\n"
      << "CxD\tP6\tP7\n";
  }

  testutil::ScratchDir scratch_;  // removed with everything in it
  std::string dir_ = scratch_.path();
  std::string path_a_ = scratch_.file("pool_a.tsv");
  std::string path_b_ = scratch_.file("pool_b.tsv");
};

TEST_F(ContextPoolTest, HitMissAndSharedSessions) {
  ContextPool pool{std::size_t{1} << 30};
  {
    ContextPool::Lease first = pool.acquire(path_a_);
    EXPECT_FALSE(first.cache_hit());
    ContextPool::Lease second = pool.acquire(path_a_);
    EXPECT_TRUE(second.cache_hit());
    // Same underlying session: artifacts built through one lease are
    // visible through the other.
    EXPECT_EQ(&first.session(), &second.session());
  }
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(ContextPoolTest, CanonicalizationSharesEntries) {
  ContextPool pool{std::size_t{1} << 30};
  { ContextPool::Lease lease = pool.acquire(path_a_); }
  // A ./-prefixed spelling of the same file must hit the same entry.
  const std::string dotted =
      dir_ + "/./" + path_a_.substr(dir_.size() + 1);
  ContextPool::Lease again = pool.acquire(dotted);
  EXPECT_TRUE(again.cache_hit());
  EXPECT_EQ(pool.stats().entries, 1u);
}

TEST_F(ContextPoolTest, ChargedBytesTrackContextStatsExactly) {
  ContextPool pool{std::size_t{1} << 30};

  // Load both and grow one with real queries.
  {
    ContextPool::Lease lease = pool.acquire(path_a_);
    Args args{0, nullptr};
    std::ostringstream out;
    cli::run_query(lease.session(), "stats", args, out);
    cli::run_query(lease.session(), "soverlap", args, out);
  }
  { ContextPool::Lease lease = pool.acquire(path_b_); }

  // Every resident entry's charge equals the session's own accounting,
  // and the pool total is their sum.
  std::size_t expected_total = 0;
  for (const ChargedEntry& entry : pool.charged_entries()) {
    ContextPool::Lease lease = pool.acquire(entry.key);
    ASSERT_TRUE(lease.cache_hit()) << entry.key;
    const std::size_t measured = session_charge_bytes(lease.session());
    EXPECT_EQ(entry.bytes, measured) << entry.key;
    EXPECT_GT(measured, 0u) << entry.key;
    expected_total += measured;
  }
  EXPECT_EQ(pool.stats().charged_bytes, expected_total);
}

TEST_F(ContextPoolTest, QueriesGrowTheCharge) {
  ContextPool pool{std::size_t{1} << 30};
  std::size_t cold = 0;
  {
    ContextPool::Lease lease = pool.acquire(path_a_);
    cold = session_charge_bytes(lease.session());
  }
  {
    ContextPool::Lease lease = pool.acquire(path_a_);
    Args args{0, nullptr};
    std::ostringstream out;
    cli::run_query(lease.session(), "soverlap", args, out);
  }
  // The overlap table built during the query is charged at release.
  const std::vector<ChargedEntry> entries = pool.charged_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_GT(entries[0].bytes, cold);
}

TEST_F(ContextPoolTest, EvictsLeastRecentlyUsedUnderBudget) {
  // A 1-byte budget forces eviction on every new key, but the newest
  // entry always survives (the pool never evicts below one entry).
  ContextPool pool{1};
  { ContextPool::Lease lease = pool.acquire(path_a_); }
  EXPECT_EQ(pool.stats().entries, 1u);
  { ContextPool::Lease lease = pool.acquire(path_b_); }

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(pool.charged_entries()[0].key, canonical_key(path_b_));

  // Re-loading the evicted key is a miss and re-charges from scratch.
  {
    ContextPool::Lease lease = pool.acquire(path_a_);
    EXPECT_FALSE(lease.cache_hit());
    ASSERT_EQ(pool.charged_entries().size(), 1u);
    EXPECT_EQ(session_charge_bytes(lease.session()),
              pool.charged_entries()[0].bytes);
  }
  EXPECT_EQ(pool.stats().misses, 3u);
  EXPECT_EQ(pool.stats().evictions, 2u);
}

TEST_F(ContextPoolTest, LeasedEntriesAreNeverEvicted) {
  ContextPool pool{1};
  ContextPool::Lease held = pool.acquire(path_a_);
  { ContextPool::Lease other = pool.acquire(path_b_); }
  // Both entries exceed the budget but A is pinned by the live lease
  // and B is the newest: nothing evictable.
  EXPECT_EQ(pool.stats().entries, 2u);
  // Releasing A makes it evictable (B is newer).
  { ContextPool::Lease drop = std::move(held); }
  ContextPool::Lease touch = pool.acquire(path_b_);
  EXPECT_TRUE(touch.cache_hit());
  EXPECT_EQ(pool.charged_entries().size(), 1u);
}

TEST_F(ContextPoolTest, LoadFailureLeavesNoEntry) {
  ContextPool pool{std::size_t{1} << 30};
  EXPECT_THROW(pool.acquire(dir_ + "/does_not_exist.tsv"), std::exception);
  EXPECT_EQ(pool.stats().entries, 0u);
  // The pool stays usable.
  ContextPool::Lease lease = pool.acquire(path_a_);
  EXPECT_FALSE(lease.cache_hit());
}

TEST_F(ContextPoolTest, ClearDropsIdleEntries) {
  ContextPool pool{std::size_t{1} << 30};
  { ContextPool::Lease lease = pool.acquire(path_a_); }
  { ContextPool::Lease lease = pool.acquire(path_b_); }
  pool.clear();
  EXPECT_EQ(pool.stats().entries, 0u);
  EXPECT_EQ(pool.stats().evictions, 2u);
}

}  // namespace
}  // namespace hp::serve
