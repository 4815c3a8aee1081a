// End-to-end tests of the analysis server over real Unix-domain
// sockets: query dispatch, context-cache hits, eviction, per-request
// timeouts, graceful shutdown draining in-flight work, protocol-error
// handling on a live connection, a multi-client concurrency storm, and
// the per-request trace tree.
//
// The storm and dispatch suites run three times in CI: plain, under
// HP_THREADS=1 (every request executes inline), and HP_THREADS=16
// (oversubscribed work stealing) via the Serve* entry in
// HP_PAR_SUITE_FILTER -- plus once under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "obs/json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/serve_commands.hpp"
#include "serve/server.hpp"
#include "scratch_dir.hpp"

namespace hp::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::ofstream a(data_a_);
    a << "Arp23\tARP2\tARP3\tARC15\n"
      << "SAGA\tGCN5\tADA2\tSPT7\tARP2\n"
      << "ADA\tGCN5\tADA2\n";
    std::ofstream b(data_b_);
    b << "CxA\tP1\tP2\tP3\n"
      << "CxB\tP2\tP4\n";
  }

  /// A running server on a fresh Unix socket. (Scratch paths stay
  /// under the 107-byte sockaddr_un limit for TempDir() = /tmp.)
  ServerOptions options(const char* name) {
    ServerOptions opts;
    opts.endpoint = parse_endpoint(dir_ + "/" + name + ".sock");
    return opts;
  }

  testutil::ScratchDir scratch_;  // removed with everything in it
  std::string dir_ = scratch_.path();
  std::string data_a_ = scratch_.file("serve_a.tsv");
  std::string data_b_ = scratch_.file("serve_b.tsv");
};

TEST_F(ServeTest, QueryMissThenHitSameOutput) {
  Server server{options("hit")};
  server.start();
  Client client{server.endpoint()};

  const proto::Response cold = client.query("stats", data_a_);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_NE(cold.output.find("|V| (vertices)"), std::string::npos);

  const proto::Response warm = client.query("stats", data_a_);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.cache, "hit");
  EXPECT_EQ(warm.output, cold.output);

  server.request_stop();
  server.wait();
  EXPECT_EQ(server.pool().stats().hits, 1u);
  EXPECT_EQ(server.pool().stats().misses, 1u);
}

TEST_F(ServeTest, ArgsReachTheQueryLayer) {
  Server server{options("args")};
  server.start();
  Client client{server.endpoint()};
  const proto::Response limited =
      client.query("core", data_a_, {{"limit", "1"}, {"k", "1"}});
  ASSERT_TRUE(limited.ok) << limited.error;
  EXPECT_NE(limited.output.find("..."), std::string::npos)
      << "limit=1 should elide the member list:\n" << limited.output;
}

TEST_F(ServeTest, EvictionUnderTinyBudget) {
  ServerOptions opts = options("evict");
  opts.cache_budget_bytes = 1;  // every second dataset evicts the first
  Server server{std::move(opts)};
  server.start();
  Client client{server.endpoint()};

  ASSERT_TRUE(client.query("stats", data_a_).ok);
  ASSERT_TRUE(client.query("stats", data_b_).ok);
  const proto::Response reload = client.query("stats", data_a_);
  ASSERT_TRUE(reload.ok);
  EXPECT_EQ(reload.cache, "miss");  // was evicted by data_b_

  const PoolStats stats = server.pool().stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 2u);
}

TEST_F(ServeTest, PerRequestTimeoutProducesErrorReply) {
  Server server{options("timeout")};
  server.start();
  Client client{server.endpoint()};

  proto::Request request;
  request.command = "sleep";
  request.args = {{"ms", "2000"}};
  request.timeout_ms = 30;
  const proto::Response response = client.call(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("timeout"), std::string::npos)
      << response.error;

  // The connection survives a timed-out request.
  const proto::Response after = client.query("ping", "");
  EXPECT_TRUE(after.ok);
  EXPECT_EQ(after.output, "pong\n");
}

TEST_F(ServeTest, HugeTimeoutDoesNotOverflowIntoSpuriousTimeout) {
  // Regression: the deadline used to be computed as
  // start_ns + timeout_ms * 1'000'000 in uint64, which wraps for large
  // client-supplied values -- a huge timeout silently became a short
  // one. Both probes below are accepted by the protocol's integer-field
  // cap (2^53 - 1); the second one's nanosecond product wraps to about
  // 0.45 ms, which pre-fix timed the 50 ms sleep out spuriously.
  Server server{options("timeout_overflow")};
  server.start();
  Client client{server.endpoint()};

  const std::uint64_t timeouts_before =
      obs::counter("server.timeouts").value();
  for (const std::uint64_t timeout_ms :
       {std::uint64_t{9007199254740991ull},    // 2^53 - 1
        std::uint64_t{18446744073710ull}}) {   // * 1e6 wraps to ~0.45ms
    proto::Request request;
    request.command = "sleep";
    request.args = {{"ms", "50"}};
    request.timeout_ms = timeout_ms;
    const proto::Response response = client.call(std::move(request));
    EXPECT_TRUE(response.ok) << "timeout_ms=" << timeout_ms << ": "
                             << response.error;
  }
  EXPECT_EQ(obs::counter("server.timeouts").value(), timeouts_before);
}

TEST_F(ServeTest, ServerDefaultTimeoutApplies) {
  ServerOptions opts = options("timeout_default");
  opts.default_timeout_ms = 30;
  Server server{std::move(opts)};
  server.start();
  Client client{server.endpoint()};
  proto::Request request;
  request.command = "sleep";
  request.args = {{"ms", "2000"}};
  const proto::Response response = client.call(std::move(request));
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("timeout"), std::string::npos);
}

TEST_F(ServeTest, MalformedFrameGetsErrorReplyAndConnectionSurvives) {
  Server server{options("malformed")};
  server.start();
  Client client{server.endpoint()};

  const std::string reply = client.call_raw("{\"cmd\": \"stats\", nope}");
  const proto::Response parsed = proto::parse_response(reply);
  EXPECT_FALSE(parsed.ok);
  EXPECT_FALSE(parsed.has_id());
  EXPECT_FALSE(parsed.error.empty());

  const proto::Response after = client.query("ping", "");
  EXPECT_TRUE(after.ok);
}

TEST_F(ServeTest, UnknownCommandAndMissingPathAreErrors) {
  Server server{options("unknown")};
  server.start();
  Client client{server.endpoint()};
  const proto::Response unknown = client.query("frobnicate", "");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unknown command"), std::string::npos);

  const proto::Response no_path = client.query("stats", "");
  EXPECT_FALSE(no_path.ok);
  EXPECT_NE(no_path.error.find("path"), std::string::npos);

  const proto::Response bad_file =
      client.query("stats", dir_ + "/missing.tsv");
  EXPECT_FALSE(bad_file.ok);
}

TEST_F(ServeTest, ShutdownCommandStopsTheServer) {
  Server server{options("shutdown")};
  server.start();
  Client client{server.endpoint()};
  const proto::Response response = client.shutdown();
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.output, "stopping\n");
  server.wait();  // returns promptly: the command triggered stop
  EXPECT_TRUE(server.stopping());
}

TEST_F(ServeTest, GracefulShutdownDrainsInFlightRequests) {
  Server server{options("drain")};
  server.start();

  std::atomic<bool> got_reply{false};
  proto::Response slow_response;
  std::thread requester([&] {
    Client client{server.endpoint()};
    proto::Request request;
    request.command = "sleep";
    request.args = {{"ms", "200"}};
    slow_response = client.call(std::move(request));
    got_reply.store(true);
  });

  // Let the slow request reach the server, then stop while in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.request_stop();
  server.wait();
  requester.join();

  // The in-flight request completed and its reply was delivered.
  ASSERT_TRUE(got_reply.load());
  EXPECT_TRUE(slow_response.ok) << slow_response.error;
  EXPECT_EQ(slow_response.output, "slept 200ms\n");
}

TEST_F(ServeTest, MultiClientConcurrencyStorm) {
  Server server{options("storm")};
  server.start();

  constexpr int kClients = 8;
  constexpr int kRequests = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client{server.endpoint()};
      std::string expected_stats;
      for (int i = 0; i < kRequests; ++i) {
        const std::string& path = (c % 2 == 0) ? data_a_ : data_b_;
        proto::Response response;
        switch (i % 3) {
          case 0:
            response = client.query("stats", path);
            break;
          case 1:
            response = client.query("soverlap", path);
            break;
          default:
            response = client.query("ping", "");
            break;
        }
        if (!response.ok) {
          ++failures;
          continue;
        }
        // Repeated stats answers over one dataset must be identical.
        if (i % 3 == 0) {
          if (expected_stats.empty()) {
            expected_stats = response.output;
          } else if (response.output != expected_stats) {
            ++failures;
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const PoolStats stats = server.pool().stats();
  EXPECT_EQ(stats.misses, 2u);  // one load per dataset, stampede-safe
  EXPECT_GE(stats.hits, 2u * (kClients / 2) * (kRequests / 3) - 2u);
}

TEST_F(ServeTest, RequestTraceTreeIsSingleRooted) {
  Server server{options("trace")};  // never started: in-process handle()
  obs::reset_tracing();
  obs::set_tracing_enabled(true);

  for (int i = 0; i < 3; ++i) {
    proto::Request request;
    request.id = static_cast<std::uint64_t>(i);
    request.command = "stats";
    request.path = data_a_;
    const proto::Response response = server.handle(request);
    ASSERT_TRUE(response.ok) << response.error;
  }

  std::ostringstream trace;
  obs::write_chrome_trace(trace);
  obs::set_tracing_enabled(false);
  obs::reset_tracing();

  const obs::json::Value root = obs::json::parse(trace.str());
  const obs::TraceSummary summary = obs::summarize_trace(root);
  EXPECT_TRUE(summary.all_balanced());
  EXPECT_TRUE(summary.all_single_rooted());
  EXPECT_TRUE(summary.parent_integrity);

  // Each request is its own causal tree rooted at serve.request.
  std::size_t request_spans = 0;
  const obs::json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const obs::json::Value& event : events->array) {
    const obs::json::Value* ph = event.find("ph");
    const obs::json::Value* name = event.find("name");
    if (ph != nullptr && ph->string == "B" && name != nullptr &&
        name->string == "serve.request") {
      ++request_spans;
    }
  }
  EXPECT_EQ(request_spans, 3u);
  EXPECT_GE(summary.trees.size(), 3u);
}

TEST_F(ServeTest, UsageListsRegisteredServeCommands) {
  // register_cli_commands is idempotent (replace-on-re-register), so
  // the test can call it even when another test already did.
  serve::register_cli_commands();
  const std::string text = cli::usage();
  EXPECT_NE(text.find("serve --socket"), std::string::npos);
  EXPECT_NE(text.find("query --socket"), std::string::npos);
}

}  // namespace
}  // namespace hp::serve
