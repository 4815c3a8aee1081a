// Unit coverage for the shared work-stealing runtime (src/par/).
//
// Correctness tests run against *local* pools with an explicit lane
// count, so they exercise real concurrency even when the build machine
// (or HP_THREADS) pins the global pool to one lane. The regression
// tests at the bottom target the two bugs this runtime replaced:
// per-call thread spawning (oversubscription under nesting) and the
// process-global omp_set_num_threads mutation.
#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/generator.hpp"
#include "core/kcore.hpp"
#include "core/traversal.hpp"

namespace hp::par {
namespace {

TEST(ParseThreadCount, FallsBackOnInvalidText) {
  EXPECT_EQ(parse_thread_count(nullptr, 7), 7);
  EXPECT_EQ(parse_thread_count("", 7), 7);
  EXPECT_EQ(parse_thread_count("abc", 7), 7);
  EXPECT_EQ(parse_thread_count("0", 7), 7);
  EXPECT_EQ(parse_thread_count("-3", 7), 7);
  EXPECT_EQ(parse_thread_count("4x", 7), 7);   // trailing garbage
  EXPECT_EQ(parse_thread_count("1e2", 7), 7);  // not an integer literal
}

TEST(ParseThreadCount, AcceptsAndClampsValidValues) {
  EXPECT_EQ(parse_thread_count("1", 7), 1);
  EXPECT_EQ(parse_thread_count("4", 7), 4);
  EXPECT_EQ(parse_thread_count("16", 7), 16);
  // Values beyond the hardware count are honored (race stress on small
  // machines), but never past the kMaxThreads backstop.
  EXPECT_EQ(parse_thread_count("999999", 7), kMaxThreads);
}

TEST(ParseThreadCount, ConfigurationAlwaysYieldsValidPoolSize) {
  EXPECT_GE(hardware_threads(), 1);
  const int configured = configured_threads();
  EXPECT_GE(configured, 1);
  EXPECT_LE(configured, kMaxThreads);
}

TEST(ThreadPoolTest, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().thread_count(), 1);
}

TEST(ThreadPoolTest, SerialPoolSpawnsNoWorkers) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.thread_count(), 1);
  EXPECT_EQ(pool.worker_count(), 0);
}

TEST(ThreadPoolTest, ClampsConstructorArgument) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.thread_count(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  constexpr index_t n = 10'000;
  std::vector<int> hits(n, 0);
  parallel_for(
      index_t{0}, n, /*grain=*/64,
      [&](index_t begin, index_t end, int lane) {
        ASSERT_GE(lane, 0);
        ASSERT_LT(lane, pool.thread_count());
        for (index_t i = begin; i < end; ++i) ++hits[i];
      },
      pool);
  for (index_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, EmptyRangeNeverInvokesBody) {
  ThreadPool pool{4};
  std::atomic<int> calls{0};
  parallel_for(
      index_t{5}, index_t{5}, /*grain=*/1,
      [&](index_t, index_t, int) { calls.fetch_add(1); }, pool);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, GrainLargerThanRangeRunsOneInlineChunk) {
  ThreadPool pool{4};
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for(
      index_t{0}, index_t{10}, /*grain=*/1'000,
      [&](index_t begin, index_t end, int lane) {
        ++calls;
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 10u);
        EXPECT_EQ(lane, 0);
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      pool);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, FirstExceptionPropagatesToCaller) {
  ThreadPool pool{4};
  EXPECT_THROW(
      parallel_for(
          index_t{0}, index_t{1'000}, /*grain=*/1,
          [&](index_t begin, index_t, int) {
            if (begin == 500) throw std::runtime_error{"chunk 500"};
          },
          pool),
      std::runtime_error);
}

TEST(ParallelReduce, SumMatchesClosedFormOnAnyLaneCount) {
  constexpr index_t n = 5'000;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  for (int lanes : {1, 2, 4}) {
    ThreadPool pool{lanes};
    const std::uint64_t sum = parallel_reduce(
        index_t{0}, n, /*grain=*/33, std::uint64_t{0},
        [](index_t begin, index_t end) {
          std::uint64_t s = 0;
          for (index_t i = begin; i < end; ++i) s += i;
          return s;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; }, pool);
    EXPECT_EQ(sum, expected) << "lanes " << lanes;
  }
}

TEST(TaskGroupTest, RunsEveryTaskBeforeWaitReturns) {
  ThreadPool pool{4};
  std::atomic<int> done{0};
  TaskGroup group{pool};
  for (int i = 0; i < 64; ++i) {
    group.run([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(done.load(), 64);
}

TEST(TaskGroupTest, NestedGroupsShareThePoolWithoutDeadlock) {
  // Every task spawns a subgroup on the same pool; wait() must help
  // drain queued work instead of parking, or this deadlocks with more
  // groups than lanes.
  ThreadPool pool{2};
  std::atomic<int> leaves{0};
  TaskGroup outer{pool};
  for (int i = 0; i < 16; ++i) {
    outer.run([&] {
      TaskGroup inner{pool};
      for (int j = 0; j < 8; ++j) {
        inner.run(
            [&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaves.load(), 16 * 8);
}

TEST(TaskGroupTest, ExceptionRethrownByWait) {
  ThreadPool pool{4};
  TaskGroup group{pool};
  group.run([] { throw std::runtime_error{"task failed"}; });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(LaneLimitTest, OneForcesInlineOrderedExecution) {
  ThreadPool pool{4};
  const std::thread::id caller = std::this_thread::get_id();
  LaneLimit serial{1};
  EXPECT_EQ(LaneLimit::current(), 1);
  index_t last_end = 0;
  parallel_for(
      index_t{0}, index_t{100}, /*grain=*/10,
      [&](index_t begin, index_t end, int lane) {
        EXPECT_EQ(lane, 0);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(begin, last_end);  // chunks arrive in order
        last_end = end;
      },
      pool);
  EXPECT_EQ(last_end, 100u);
}

TEST(LaneLimitTest, NestedLimitsComposeByMinimum) {
  EXPECT_EQ(LaneLimit::current(), 0);  // unlimited outside any scope
  {
    LaneLimit outer{4};
    EXPECT_EQ(LaneLimit::current(), 4);
    {
      LaneLimit inner{8};  // looser than the enclosing cap: no effect
      EXPECT_EQ(LaneLimit::current(), 4);
      LaneLimit tighter{2};
      EXPECT_EQ(LaneLimit::current(), 2);
    }
    EXPECT_EQ(LaneLimit::current(), 4);
  }
  EXPECT_EQ(LaneLimit::current(), 0);
}

TEST(PoolStatsTest, CountersAdvanceWithExecutedTasks) {
  ThreadPool pool{4};
  const PoolStats before = pool.stats();
  TaskGroup group{pool};
  for (int i = 0; i < 32; ++i) group.run([] {});
  group.wait();
  const PoolStats after = pool.stats();
  EXPECT_GE(after.tasks, before.tasks + 32);
}

#ifdef __linux__
int process_thread_count() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      std::istringstream fields{line.substr(8)};
      int n = 0;
      fields >> n;
      return n;
    }
  }
  return -1;
}

TEST(Oversubscription, NestedParallelStormSpawnsNoExtraThreads) {
  // Regression for the bug this runtime replaced: each parallel k-core
  // call configured its own thread team, so
  // fuzz-smoke-style nesting (parallel sweep -> parallel kcore ->
  // parallel containment scan) multiplied the process thread count.
  // With the shared pool, the storm below must finish with exactly the
  // threads the pool was born with.
  ThreadPool& pool = ThreadPool::global();
  (void)pool.thread_count();  // force lazy construction before snapshot
  const int baseline = process_thread_count();
  ASSERT_GT(baseline, 0);

  TaskGroup group{pool};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    group.run([seed] {
      const hyper::Hypergraph h = check::generate(seed);
      // Nested parallel regions inside an already-parallel task.
      const auto parallel = [&] {
        LaneLimit eight{8};
        return hyper::core_decomposition(h);
      }();
      const auto serial = [&] {
        LaneLimit one{1};
        return hyper::core_decomposition(h);
      }();
      EXPECT_EQ(parallel.vertex_core, serial.vertex_core)
          << "seed " << seed;
      EXPECT_EQ(parallel.edge_core, serial.edge_core) << "seed " << seed;
      (void)hyper::path_summary(h);
    });
  }
  group.wait();

  EXPECT_EQ(process_thread_count(), baseline)
      << "nested parallel regions grew the process thread count";
}
#endif  // __linux__

TEST(Determinism, KcoreAndPathsIdenticalAcrossLaneCaps) {
  // The HP_THREADS=1 vs =16 contract, exercised in-process via
  // LaneLimit: every cap must produce bit-identical results.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const hyper::Hypergraph h = check::generate(seed);
    hyper::HyperCoreResult serial_cores;
    hyper::HyperPathSummary serial_paths;
    {
      LaneLimit one{1};
      serial_cores = hyper::core_decomposition(h);
      serial_paths = hyper::path_summary(h);
    }
    for (int cap : {1, 2, 16}) {
      LaneLimit limit{cap};
      const auto cores = hyper::core_decomposition(h);
      EXPECT_EQ(cores.vertex_core, serial_cores.vertex_core)
          << "seed " << seed << " cap " << cap;
      EXPECT_EQ(cores.edge_core, serial_cores.edge_core)
          << "seed " << seed << " cap " << cap;
      EXPECT_EQ(cores.max_core, serial_cores.max_core)
          << "seed " << seed << " cap " << cap;
      const hyper::HyperPathSummary paths = hyper::path_summary(h);
      EXPECT_EQ(paths.diameter, serial_paths.diameter)
          << "seed " << seed << " cap " << cap;
      EXPECT_EQ(paths.connected_pairs, serial_paths.connected_pairs)
          << "seed " << seed << " cap " << cap;
      EXPECT_EQ(paths.average_length, serial_paths.average_length)
          << "seed " << seed << " cap " << cap;
    }
  }
}

}  // namespace
}  // namespace hp::par
