// Server-vs-one-shot ablation for the analysis server (src/serve/,
// DESIGN.md section 15).
//
// The server exists to amortize dataset loading and artifact building
// across requests; this driver measures exactly that amortization on a
// scaled surrogate:
//
//   * cold one-shot   -- cli::run("stats", path) with a fresh process
//     state per repetition: parse + context build + answer. What a
//     shell loop over hp_cli pays for every query.
//   * warm server     -- Server::handle() against the context cache
//     (first request warms it, the timed ones all hit). The in-process
//     path, so the row measures the cache, not socket noise.
//   * socket open-loop -- a real Unix-socket load test: client threads
//     fire requests on a fixed arrival schedule (latency is measured
//     from the *scheduled* start, so queueing delay is charged to the
//     server, not hidden by a slow client).
//
// The CI gate (scripts/ci.sh) asserts the warm server answers >= 100x
// faster than the cold one-shot ("gate_speedup" in BENCH_serve.json).
//
// Usage: bench_micro_serve [--seed N] [--proteins N] [--rps N]
//                          [--quick] [--json PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bio/cellzome_synth.hpp"
#include "bio/complex_io.hpp"
#include "cli/commands.hpp"
#include "obs/json_check.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using hp::serve::proto::Request;
using hp::serve::proto::Response;

double quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

int run_cli(std::initializer_list<const char*> argv) {
  std::vector<const char*> raw{"hyperproteome"};
  raw.insert(raw.end(), argv.begin(), argv.end());
  const hp::Args args{static_cast<int>(raw.size()), raw.data()};
  std::ostringstream sink;
  return hp::cli::run(args, sink);
}

struct OpenLoopResult {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t requests = 0;
  std::size_t errors = 0;
};

/// Fire `total` warm queries at `rate` requests/second from `clients`
/// connections on a fixed arrival schedule. Each latency is measured
/// from the request's *scheduled* departure time: if the server (or a
/// busy connection) falls behind, the backlog shows up as latency
/// instead of silently stretching the run (closed-loop coordinated
/// omission).
OpenLoopResult open_loop(const hp::serve::Endpoint& endpoint,
                         const std::string& dataset, double rate,
                         std::size_t total, int clients) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> errors{0};
  const Clock::time_point start = Clock::now();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      hp::serve::Client client{endpoint};
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= total) break;
        const Clock::time_point scheduled =
            start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        1e9 * static_cast<double>(i) / rate));
        std::this_thread::sleep_until(scheduled);
        const Response response = client.query("stats", dataset);
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      scheduled)
                .count();
        if (response.ok) {
          latencies[static_cast<std::size_t>(c)].push_back(us);
        } else {
          ++errors;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all;
  for (const std::vector<double>& part : latencies) {
    all.insert(all.end(), part.begin(), part.end());
  }
  OpenLoopResult out;
  out.offered_rps = rate;
  out.achieved_rps =
      elapsed > 0.0 ? static_cast<double>(all.size()) / elapsed : 0.0;
  out.p50_us = quantile(all, 0.50);
  out.p99_us = quantile(all, 0.99);
  out.requests = all.size();
  out.errors = errors.load();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20040426));
  const bool quick = args.get_bool("quick", false);
  const std::string json_path = args.get("json", "");
  const hp::index_t proteins =
      static_cast<hp::index_t>(args.get_int("proteins", 20000));
  const double rate = static_cast<double>(args.get_int("rps", 500));

  std::printf("=== analysis server: context cache vs one-shot CLI ===\n");

  // The scaled surrogate, saved once for every workload to load.
  const std::string dataset = "bench_serve_tmp.hyper";
  {
    hp::bio::CellzomeParams params =
        hp::bio::scaled_cellzome_params(proteins);
    params.seed = seed;
    const hp::bio::ComplexDataset data = hp::bio::cellzome_surrogate(params);
    hp::cli::save_dataset(data, dataset);
    std::printf("surrogate: %llu proteins, %llu complexes\n",
                static_cast<unsigned long long>(
                    data.hypergraph.num_vertices()),
                static_cast<unsigned long long>(data.hypergraph.num_edges()));
  }

  // Cold one-shot: full load + build + answer, per query.
  const int cold_reps = quick ? 2 : 4;
  double cold_best = 0.0;
  for (int rep = 0; rep < cold_reps; ++rep) {
    hp::Timer timer;
    if (run_cli({"stats", dataset.c_str()}) != 0) {
      std::fprintf(stderr, "bench_micro_serve: one-shot stats failed\n");
      return 1;
    }
    const double s = timer.seconds();
    if (rep == 0 || s < cold_best) cold_best = s;
  }

  // Warm server: in-process handle() against the hot context cache.
  hp::serve::ServerOptions options;
  options.endpoint = hp::serve::parse_endpoint("bench_serve_tmp.sock");
  hp::serve::Server server{std::move(options)};
  Request warm_request;
  warm_request.command = "stats";
  warm_request.path = dataset;
  {
    const Response first = server.handle(warm_request);  // populate cache
    if (!first.ok) {
      std::fprintf(stderr, "bench_micro_serve: warm-up failed: %s\n",
                   first.error.c_str());
      return 1;
    }
  }
  const int warm_reps = quick ? 50 : 400;
  std::vector<double> warm_seconds;
  warm_seconds.reserve(static_cast<std::size_t>(warm_reps));
  for (int rep = 0; rep < warm_reps; ++rep) {
    hp::Timer timer;
    const Response response = server.handle(warm_request);
    const double s = timer.seconds();
    if (!response.ok || response.cache != "hit") {
      std::fprintf(stderr, "bench_micro_serve: expected a cache hit\n");
      return 1;
    }
    warm_seconds.push_back(s);
  }
  const double warm_mean = mean(warm_seconds);
  const double warm_p50 = quantile(warm_seconds, 0.50) * 1e6;
  const double warm_p99 = quantile(warm_seconds, 0.99) * 1e6;
  const double gate_speedup = warm_mean > 0.0 ? cold_best / warm_mean : 0.0;

  // Socket open-loop: end-to-end over a real Unix socket.
  server.start();
  const std::size_t total = quick ? 200 : 1000;
  const OpenLoopResult loop =
      open_loop(server.endpoint(), dataset, rate, total, 4);
  server.request_stop();
  server.wait();

  hp::Table t{{"workload", "latency", "vs cold"}};
  char buffer[64];
  t.row().cell("cold one-shot (stats)")
      .cell(hp::format_duration(cold_best))
      .cell("1.0x");
  std::snprintf(buffer, sizeof buffer, "%.0fx", gate_speedup);
  t.row().cell("warm server (mean)")
      .cell(hp::format_duration(warm_mean))
      .cell(buffer);
  t.row().cell("warm server (p99)")
      .cell(hp::format_duration(warm_p99 / 1e6))
      .cell("");
  t.row().cell("socket open-loop (p50)")
      .cell(hp::format_duration(loop.p50_us / 1e6))
      .cell("");
  t.row().cell("socket open-loop (p99)")
      .cell(hp::format_duration(loop.p99_us / 1e6))
      .cell("");
  t.print();
  std::printf(
      "\nsocket open-loop: offered %.0f rps, achieved %.0f rps, "
      "%zu requests, %zu errors\n",
      loop.offered_rps, loop.achieved_rps, loop.requests, loop.errors);
  std::printf("gate speedup (cold one-shot vs warm server): %.0fx\n",
              gate_speedup);

  if (!json_path.empty()) {
    hp::obs::json::Object{}
        .string("benchmark", "bench_micro_serve")
        .number("gate_speedup", gate_speedup)
        .number("cold_seconds", cold_best)
        .number("warm_mean_seconds", warm_mean)
        .number("warm_p50_us", warm_p50)
        .number("warm_p99_us", warm_p99)
        .object("open_loop", hp::obs::json::Object{}
                                 .number("offered_rps", loop.offered_rps)
                                 .number("achieved_rps", loop.achieved_rps)
                                 .number("p50_us", loop.p50_us)
                                 .number("p99_us", loop.p99_us)
                                 .integer("requests", loop.requests)
                                 .integer("errors", loop.errors))
        .write_file(json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::remove(dataset.c_str());
  if (loop.errors != 0) return 1;
  return 0;
}
