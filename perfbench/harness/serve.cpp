// serve_mix: the load generator for a live `hp_serve` (run.py starts the
// server, waits for its "listening on" line, and reaps it, and runs both
// on one CPU). This process drives the server closed-loop over one
// persistent connection, the way a `hyperproteome query` caller waits for
// its reply:
//
//   * the connection sends a seeded request sequence over the
//     warm datasets: mostly memoized queries (stats, core --k), a small
//     fixed share of compute queries (match, cover);
//   * every kFreshEvery-th request goes out on a fresh connection, as
//     `hyperproteome query` connects, which exercises accept and the
//     per-connection threads;
//   * every reply is compared with the answer of the same query run
//     in-process on a local QuerySession (cli::run_query).
//
// Set-up computes those references and warms every dataset on the
// server. At the end it collects the `cache` and `metrics` replies and
// the server's /proc status, then stops the server with `shutdown`.
#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "cli/commands.hpp"
#include "cli/query.hpp"
#include "common.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"
#include "util/stringutil.hpp"

namespace hp::perfbench {

namespace {

/// One client: with more, a request's latency also held the time it
/// waited for the CPU behind another connection's compute query.
constexpr int kConnections = 1;
constexpr std::uint64_t kFreshEvery = 16;
/// Mix in percent: the rest of the requests are `core --k`.
constexpr std::uint64_t kStatsPerCent = 40;
constexpr std::uint64_t kMatchPerCent = 6;
constexpr std::uint64_t kCoverPerCent = 4;
/// Queue-depth sampling interval of the traced run's monitor.
constexpr auto kMonitorInterval = std::chrono::milliseconds(50);

using WireArgs = std::vector<std::pair<std::string, std::string>>;

/// One distinct request and the answer the server must give.
struct Query {
  std::string command;
  WireArgs args;
  std::string expected;  ///< masked reference output
};

struct Dataset {
  std::string path;
  std::vector<Query> memo;     ///< stats, then core --k=1..max_core
  std::vector<Query> compute;  ///< match, cover
};

/// Run one query the way the server does (same argv shape as its
/// wire_args) on the local session.
std::string local_answer(cli::QuerySession& session, const Query& query) {
  std::vector<std::string> tokens{"perfbench", query.command};
  for (const auto& [key, value] : query.args) {
    tokens.push_back("--" + key + "=" + value);
  }
  std::vector<const char*> argv;
  for (const std::string& token : tokens) argv.push_back(token.c_str());
  const Args args{static_cast<int>(argv.size()), argv.data()};
  std::ostringstream out;
  cli::run_query(session, query.command, args, out);
  return mask_clock_lines(out.str());
}

Dataset reference_dataset(const std::string& path) {
  cli::QuerySession session{cli::load_dataset(path)};
  Dataset dataset;
  dataset.path = path;
  dataset.memo.push_back({"stats", {}, ""});
  const index_t max_core = session.context.cores().max_core;
  for (index_t k = 1; k <= max_core; ++k) {
    dataset.memo.push_back({"core", {{"k", std::to_string(k)}}, ""});
  }
  dataset.compute.push_back({"match", {}, ""});
  dataset.compute.push_back({"cover", {}, ""});
  for (Query& query : dataset.memo) {
    query.expected = local_answer(session, query);
  }
  for (Query& query : dataset.compute) {
    query.expected = local_answer(session, query);
  }
  return dataset;
}

/// One request's outcome as the client saw it.
struct Sample {
  double ms = 0.0;
  double server_ms = 0.0;
  bool hit = false;
  std::string failure;
};

Sample send(serve::Client& client, const Dataset& dataset,
            const Query& query) {
  Sample sample;
  const double t0 = now_s();
  try {
    const serve::proto::Response response =
        client.query(query.command, dataset.path, query.args);
    sample.ms = (now_s() - t0) * 1e3;
    sample.server_ms = static_cast<double>(response.micros) / 1e3;
    sample.hit = response.cache == "hit";
    if (!response.ok) {
      sample.failure = query.command + ": " + response.error;
    } else {
      const std::string got = mask_clock_lines(response.output);
      if (got != query.expected) {
        sample.failure =
            query.command + ": " + first_difference(got, query.expected);
      }
    }
  } catch (const std::exception& error) {
    sample.ms = (now_s() - t0) * 1e3;
    sample.failure = query.command + ": " + error.what();
  }
  return sample;
}

/// A connection's request sequence: dealt from a deck that holds every
/// dataset's exact share of each query kind (per dataset and 100 cards:
/// kCoverPerCent cover, kMatchPerCent match, kStatsPerCent stats, the
/// rest `core --k`), shuffled anew from the connection's seed each time
/// it runs out. Exact shares keep the costly queries' count, and so the
/// run's throughput, from drifting with the seed.
class Deck {
 public:
  Deck(const std::vector<Dataset>& datasets, std::uint64_t seed)
      : datasets_{datasets}, rng_{seed} {
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      for (std::uint64_t card = 0; card < 100; ++card) {
        cards_.push_back({d, card < kCoverPerCent ? Kind::kCover
                             : card < kCoverPerCent + kMatchPerCent
                                 ? Kind::kMatch
                             : card < kCoverPerCent + kMatchPerCent +
                                          kStatsPerCent
                                 ? Kind::kStats
                                 : Kind::kCore});
      }
    }
    next_ = cards_.size();
  }

  /// The next request and the dataset it goes to.
  const Query& draw(const Dataset*& dataset) {
    if (next_ == cards_.size()) {
      std::shuffle(cards_.begin(), cards_.end(), rng_);
      next_ = 0;
    }
    const Card card = cards_[next_++];
    dataset = &datasets_[card.dataset];
    switch (card.kind) {
      case Kind::kCover:
        return dataset->compute[1];
      case Kind::kMatch:
        return dataset->compute[0];
      case Kind::kStats:
        return dataset->memo[0];
      case Kind::kCore:
        break;
    }
    return dataset->memo[1 + rng_() % (dataset->memo.size() - 1)];
  }

 private:
  enum class Kind { kCover, kMatch, kStats, kCore };
  struct Card {
    std::size_t dataset;
    Kind kind;
  };
  const std::vector<Dataset>& datasets_;
  Rng rng_;
  std::vector<Card> cards_;
  std::size_t next_ = 0;
};

/// `name | type | value` rows of a `metrics` reply, as name -> value
/// text.
std::vector<std::pair<std::string, std::string>> metric_rows(
    const std::string& table) {
  std::vector<std::pair<std::string, std::string>> rows;
  std::istringstream in(table);
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string_view> cells = split(line, '|');
    if (cells.size() != 3) continue;
    rows.emplace_back(std::string{trim(cells[0])},
                      std::string{trim(cells[2])});
  }
  return rows;
}

double metric_value(const std::string& table, const std::string& name) {
  for (const auto& [key, value] : metric_rows(table)) {
    if (key == name) return std::stod(value);
  }
  return 0.0;
}

/// The "charged bytes: B (budget ...)" line of a `cache` reply.
double charged_bytes_of(const std::string& text) {
  std::istringstream in(text);
  std::string word;
  double bytes = 0;
  while (in >> word) {
    if (word == "bytes:") in >> bytes;
  }
  return bytes;
}

/// Run body(0) .. body(count - 1) on threads of their own and join them
/// all; then rethrow the first exception any of them raised.
template <typename Body>
void run_threads(std::size_t count, const Body& body) {
  std::vector<std::exception_ptr> errors(count);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < count; ++i) {
      threads.emplace_back([&, i] {
        try {
          body(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::string control(serve::Client& client, const std::string& command) {
  serve::proto::Request request;
  request.command = command;
  const serve::proto::Response response = client.call(request);
  if (!response.ok) {
    throw std::runtime_error{command + " failed: " + response.error};
  }
  return response.output;
}

}  // namespace

int run_serve(const Options& options, const Args& args) {
  const double setup_start = now_s();
  const serve::Endpoint endpoint =
      serve::parse_endpoint(args.get("socket", ""));
  const pid_t server_pid =
      static_cast<pid_t>(args.get_int("server-pid", 0));
  const std::string dataset_list = args.get("datasets", "");
  std::vector<std::string> paths;
  for (const std::string_view path : split(dataset_list, ',')) {
    paths.emplace_back(path);
  }

  // References, one dataset per thread.
  std::vector<Dataset> datasets(paths.size());
  run_threads(paths.size(), [&](std::size_t d) {
    datasets[d] = reference_dataset(paths[d]);
  });

  // Warm-up: every distinct query once, one connection per dataset, so
  // the timed loop finds every dataset loaded and every memoized
  // artifact built.
  Phase warmup;
  std::mutex warmup_mutex;
  run_threads(datasets.size(), [&](std::size_t d) {
    const Dataset& dataset = datasets[d];
    serve::Client client{endpoint};
    std::vector<const Query*> all;
    for (const Query& q : dataset.memo) all.push_back(&q);
    for (const Query& q : dataset.compute) all.push_back(&q);
    for (const Query* query : all) {
      const Sample sample = send(client, dataset, *query);
      const std::lock_guard<std::mutex> lock{warmup_mutex};
      warmup.record(sample.ms, sample.failure);
    }
  });
  serve::Client admin{endpoint};
  const std::string metrics_before = control(admin, "metrics");
  const double setup_s = now_s() - setup_start;

  // The closed loop: one thread per connection, plus in a traced run a
  // monitor that samples the server's pool queue depth (the
  // server.queue_depth gauge every request sets) on its own connection.
  std::vector<std::vector<Sample>> per_connection(kConnections);
  std::vector<double> queue_depth;
  const double loop_start = now_s();
  const double deadline = loop_start + options.seconds;
  const std::size_t monitor = options.trace ? kConnections : 0;
  run_threads(kConnections + (options.trace ? 1 : 0), [&](std::size_t c) {
    if (options.trace && c == monitor) {
      serve::Client watcher{endpoint};
      while (now_s() < deadline) {
        queue_depth.push_back(
            metric_value(control(watcher, "metrics"), "server.queue_depth"));
        std::this_thread::sleep_for(kMonitorInterval);
      }
      return;
    }
    Deck deck{datasets, options.seed * 1000003u + c};
    serve::Client persistent{endpoint};
    for (std::uint64_t i = 1; now_s() < deadline; ++i) {
      const Dataset* dataset = nullptr;
      const Query& query = deck.draw(dataset);
      if (i % kFreshEvery != 0) {
        per_connection[c].push_back(send(persistent, *dataset, query));
        continue;
      }
      const double t0 = now_s();
      Sample sample;
      try {
        serve::Client once{endpoint};
        sample = send(once, *dataset, query);
      } catch (const std::exception& error) {
        sample.failure = std::string{"connect: "} + error.what();
      }
      sample.ms = (now_s() - t0) * 1e3;
      per_connection[c].push_back(std::move(sample));
    }
  });
  Phase timed;
  timed.wall_s = now_s() - loop_start;
  std::vector<double> server_ms;
  std::vector<double> wire_ms;
  std::uint64_t hits = 0;
  for (const std::vector<Sample>& samples : per_connection) {
    for (const Sample& sample : samples) {
      timed.record(sample.ms, sample.failure);
      if (!sample.failure.empty()) continue;
      server_ms.push_back(sample.server_ms);
      wire_ms.push_back(sample.ms - sample.server_ms);
      if (sample.hit) ++hits;
    }
  }

  const std::string metrics_after = control(admin, "metrics");
  const double charged_bytes = charged_bytes_of(control(admin, "cache"));
  const double server_hwm_kb = proc_status(server_pid, "VmHWM");
  const double server_threads = proc_status(server_pid, "Threads");
  control(admin, "shutdown");

  const auto delta = [&](const char* name) {
    return metric_value(metrics_after, name) -
           metric_value(metrics_before, name);
  };
  Json server;
  server.number("par_tasks", delta("par.tasks"))
      .number("par_steals", delta("par.steals"))
      .number("par_idle_ns", delta("par.idle_ns"))
      .number("connections", metric_value(metrics_after, "server.connections"))
      .number("charged_bytes", charged_bytes)
      .number("vmhwm_kb", server_hwm_kb)
      .number("threads", server_threads);

  Json results;
  results.number("setup_s", setup_s)
      .object("warmup", phase_json(warmup))
      .object("timed", phase_json(timed))
      .numbers("server_ms", server_ms)
      .numbers("wire_ms", wire_ms)
      .integer("reply_hits", hits)
      .integer("query_requests", warmup.attempted + timed.attempted)
      .integer("pre_requests", warmup.attempted + 1)
      .numbers("queue_depth", queue_depth)
      .object("server", server);
  write_file(options.out, results.text());
  return 0;
}

}  // namespace hp::perfbench
