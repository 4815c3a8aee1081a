#include "serve/server.hpp"

#include <chrono>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "util/args.hpp"
#include "util/common.hpp"

namespace hp::serve {

namespace {

/// Raised by command bodies when the request deadline passes.
class TimeoutError : public std::runtime_error {
 public:
  explicit TimeoutError(const std::string& what)
      : std::runtime_error(what) {}
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void check_deadline(std::uint64_t deadline_ns, const char* stage) {
  if (deadline_ns != 0 && now_ns() > deadline_ns) {
    throw TimeoutError{std::string{"deadline exceeded "} + stage};
  }
}

/// One request stage: a child span of serve.request and one sample in
/// the stage's histogram, both named server.stage.<stage>.
class Stage {
 public:
  Stage(const char* span_name, obs::LatencyHistogram& histogram)
      : span_{span_name}, histogram_{histogram}, start_ns_{now_ns()} {}
  ~Stage() { histogram_.record_ns(now_ns() - start_ns_); }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  obs::TraceSpan span_;
  obs::LatencyHistogram& histogram_;
  std::uint64_t start_ns_;
};

/// Rebuild an Args view from the validated wire args. Every value rides
/// in --key=value form, which the parser treats identically to the
/// two-token CLI form, so query code sees exactly what a one-shot
/// invocation would.
Args wire_args(const proto::Request& request) {
  std::vector<std::string> argv_storage;
  argv_storage.reserve(request.args.size() + 2);
  argv_storage.push_back("hp_serve");
  argv_storage.push_back(request.command);
  for (const auto& [key, value] : request.args) {
    argv_storage.push_back("--" + key + "=" + value);
  }
  std::vector<const char*> argv;
  argv.reserve(argv_storage.size());
  for (const std::string& token : argv_storage) {
    argv.push_back(token.c_str());
  }
  return Args{static_cast<int>(argv.size()), argv.data()};
}

/// The server's own commands (the query commands are cli::query_commands()).
/// This table alone drives dispatch, the `commands` reply and which
/// names get a `server.cmd.<name>_ns` histogram.
struct ServerCommand {
  const char* name;
  std::string (*run)(Server& server, const proto::Request& request,
                     std::uint64_t deadline_ns);
};

std::string list_commands(Server&, const proto::Request&, std::uint64_t);

const ServerCommand kServerCommands[] = {
    {"ping",
     [](Server&, const proto::Request&, std::uint64_t) -> std::string {
       return "pong\n";
     }},
    {"commands", list_commands},
    {"cache",
     [](Server& server, const proto::Request&, std::uint64_t) {
       ContextPool& pool = server.pool();
       const PoolStats stats = pool.stats();
       std::ostringstream out;
       out << "entries: " << stats.entries << '\n'
           << "charged bytes: " << stats.charged_bytes << " (budget "
           << pool.byte_budget() << ")\n"
           << "hits: " << stats.hits << "  misses: " << stats.misses
           << "  evictions: " << stats.evictions << '\n';
       for (const ChargedEntry& entry : pool.charged_entries()) {
         out << "  " << entry.bytes << "  "
             << (entry.leased ? "leased  " : "idle    ") << entry.key << '\n';
       }
       return out.str();
     }},
    {"cache_clear",
     [](Server& server, const proto::Request&, std::uint64_t) -> std::string {
       server.pool().clear();
       return "cache cleared\n";
     }},
    {"metrics",
     [](Server&, const proto::Request&, std::uint64_t) {
       return obs::render_table(obs::Registry::global().snapshot());
     }},
    {"sleep",
     // Debug command for deadline tests: burns wall clock in 1 ms slices
     // with a cooperative deadline check each slice, so timeouts fire
     // deterministically even under HP_THREADS=1 inline execution.
     [](Server&, const proto::Request& request, std::uint64_t deadline_ns) {
       const std::int64_t ms = wire_args(request).get_int("ms", 10);
       const std::uint64_t until =
           now_ns() + static_cast<std::uint64_t>(ms) * 1000000u;
       while (now_ns() < until) {
         check_deadline(deadline_ns, "during sleep");
         std::this_thread::sleep_for(std::chrono::milliseconds(1));
       }
       return "slept " + std::to_string(ms) + "ms\n";
     }},
    {"shutdown",
     [](Server& server, const proto::Request&, std::uint64_t) -> std::string {
       server.request_stop();
       return "stopping\n";
     }},
};

std::string list_commands(Server&, const proto::Request&, std::uint64_t) {
  std::string out;
  for (const std::string& name : cli::query_commands()) out += name + '\n';
  for (const ServerCommand& command : kServerCommands) {
    out += std::string{command.name} + '\n';
  }
  return out;
}

const ServerCommand* find_server_command(const std::string& name) {
  for (const ServerCommand& command : kServerCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      parse_ns_(obs::latency("server.stage.parse_ns")),
      execute_ns_(obs::latency("server.stage.execute_ns")),
      write_ns_(obs::latency("server.stage.write_ns")),
      pool_(std::make_unique<ContextPool>(options_.cache_budget_bytes)) {}

Server::~Server() {
  request_stop();
  wait();
}

void Server::start() {
  HP_REQUIRE(!started_, "Server::start called twice");
  listener_ = listen_on(options_.endpoint);
  started_ = true;
  accept_thread_ = std::thread([this] { accept_main(); });
}

void Server::request_stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  listener_.shutdown_both();
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (const std::unique_ptr<Connection>& connection : connections_) {
    // Half-close: the connection thread's next read sees EOF, but the
    // reply to any request it is still executing goes out first.
    connection->socket.shutdown_read();
  }
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // After the accept thread exits no new connections appear, so the
  // vector is stable from here on.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (const std::unique_ptr<Connection>& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  listener_.close();
}

std::size_t Server::retained_connections() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  return connections_.size();
}

void Server::reap_finished() {
  // A finished connection has closed its socket and only has to return
  // from connection_main, so each join here is short.
  std::erase_if(connections_,
                [](const std::unique_ptr<Connection>& connection) {
                  if (!connection->finished) return false;
                  connection->thread.join();
                  return true;
                });
}

void Server::accept_main() {
  while (!stopping()) {
    Socket accepted = accept_on(listener_);
    if (!accepted.valid()) break;  // listener closed by request_stop
    if (stopping()) break;
    std::lock_guard<std::mutex> lock(connections_mutex_);
    reap_finished();
    connections_.push_back(std::make_unique<Connection>());
    Connection& connection = *connections_.back();
    connection.socket = std::move(accepted);
    ++accepted_connections_;
    ++open_connections_;
    obs::gauge("server.connections")
        .set(static_cast<double>(accepted_connections_));
    obs::gauge("server.connections_open")
        .set(static_cast<double>(open_connections_));
    connection.thread =
        std::thread([this, &connection] { connection_main(connection); });
  }
}

void Server::connection_main(Connection& connection) {
  Socket* socket = &connection.socket;
  LineReader reader{socket->fd()};
  std::string frame;
  while (true) {
    const LineReader::Status status = reader.read_line(frame);
    if (status == LineReader::Status::kEof ||
        status == LineReader::Status::kTruncated ||
        status == LineReader::Status::kError) {
      break;
    }
    if (status == LineReader::Status::kOverflow) {
      // The stream cannot be resynchronized mid-frame; report and drop.
      proto::Response response;
      response.ok = false;
      response.error = "protocol: request frame larger than " +
                       std::to_string(proto::kMaxFrameBytes) + " bytes";
      obs::counter("server.errors").add(1);
      write_all(socket->fd(), proto::format_response(response) + "\n");
      break;
    }
    if (frame.empty()) continue;  // blank keep-alive line
    record_frame(frame);

    HP_TRACE_SPAN("serve.request");
    std::optional<proto::Request> request;
    proto::Response response;
    {
      Stage stage{"server.stage.parse", parse_ns_};
      try {
        request = proto::parse_request(frame);
      } catch (const std::exception& error) {
        // Frame-level failure (malformed JSON, bad fields): the framing
        // itself is intact, so reply and keep the connection.
        response.ok = false;
        response.error = error.what();
        obs::counter("server.errors").add(1);
      }
    }
    if (request.has_value()) response = execute(*request);
    bool written = false;
    {
      Stage stage{"server.stage.write", write_ns_};
      written =
          write_all(socket->fd(), proto::format_response(response) + "\n");
    }
    if (!written) break;
  }
  socket->close();
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connection.finished = true;
  --open_connections_;
  obs::gauge("server.connections_open")
      .set(static_cast<double>(open_connections_));
}

proto::Response Server::handle(const proto::Request& request) {
  HP_TRACE_SPAN("serve.request");
  return execute(request);
}

proto::Response Server::execute(const proto::Request& request) {
  const std::uint64_t start_ns = now_ns();
  const std::uint64_t timeout_ms = request.timeout_ms != 0
                                       ? request.timeout_ms
                                       : options_.default_timeout_ms;
  // Saturating ms -> deadline conversion. The protocol accepts
  // timeout_ms up to 2^53-1, so the naive start_ns + timeout_ms * 1e6
  // wraps in uint64 and a huge client-supplied timeout silently became
  // an instant (or past) deadline. Any product or sum that no longer
  // fits means "effectively no deadline": clamp to the maximum instead
  // of wrapping.
  constexpr std::uint64_t kMaxNs = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t deadline_ns = 0;
  if (timeout_ms != 0) {
    const std::uint64_t timeout_ns =
        timeout_ms <= kMaxNs / 1000000u ? timeout_ms * 1000000u : kMaxNs;
    deadline_ns =
        timeout_ns <= kMaxNs - start_ns ? start_ns + timeout_ns : kMaxNs;
  }

  obs::counter("server.requests").add(1);
  obs::gauge("server.queue_depth")
      .set(static_cast<double>(par::ThreadPool::global().queue_depth()));

  proto::Response response;
  response.id = request.id;
  try {
    // The request body runs as a pool task: query work (and the
    // artifact builds it triggers) shares the work-stealing lanes with
    // every other request; wait() helps, so at HP_THREADS=1 this is
    // plain inline execution. TaskGroup also re-parents the task's
    // spans under the execute stage on whichever lane runs it.
    check_deadline(deadline_ns, "before execution");
    proto::Response inner;
    inner.id = request.id;
    {
      Stage stage{"server.stage.execute", execute_ns_};
      par::TaskGroup group;
      group.run([&] { inner = dispatch(request, deadline_ns); });
      group.wait();
    }
    check_deadline(deadline_ns, "during execution");
    response = std::move(inner);
  } catch (const TimeoutError& error) {
    response.ok = false;
    response.output.clear();
    response.error = std::string{"timeout after "} +
                     std::to_string(timeout_ms) + "ms (" + error.what() + ")";
    obs::counter("server.timeouts").add(1);
    obs::counter("server.errors").add(1);
  } catch (const std::exception& error) {
    response.ok = false;
    response.output.clear();
    response.error = error.what();
    obs::counter("server.errors").add(1);
  }

  const std::uint64_t elapsed_ns = now_ns() - start_ns;
  response.micros = elapsed_ns / 1000u;
  obs::latency("server.request_ns").record_ns(elapsed_ns);
  // Only known names get a histogram: each one lives for the process,
  // so a client must not be able to mint them.
  if (cli::is_query_command(request.command) ||
      find_server_command(request.command) != nullptr) {
    obs::latency("server.cmd." + request.command + "_ns")
        .record_ns(elapsed_ns);
  }
  return response;
}

proto::Response Server::dispatch(const proto::Request& request,
                                 std::uint64_t deadline_ns) {
  proto::Response response;
  response.id = request.id;
  response.ok = true;
  const std::string& command = request.command;

  if (cli::is_query_command(command)) {
    if (request.path.empty()) {
      throw InvalidInputError{"query command '" + command +
                              "' needs a path field"};
    }
    ContextPool::Lease lease = pool_->acquire(request.path);
    response.cache = lease.cache_hit() ? "hit" : "miss";
    const Args args = wire_args(request);
    std::ostringstream out;
    const int code = cli::run_query(lease.session(), command, args, out);
    if (code != 0) {
      throw InvalidInputError{command + " returned exit code " +
                              std::to_string(code)};
    }
    response.output = out.str();
    return response;
  }

  if (const ServerCommand* own = find_server_command(command)) {
    response.output = own->run(*this, request, deadline_ns);
    return response;
  }
  throw InvalidInputError{"unknown command '" + command +
                          "' (try 'commands')"};
}

void Server::record_frame(const std::string& frame) {
  if (options_.record_path.empty()) return;
  std::lock_guard<std::mutex> lock(record_mutex_);
  std::ofstream out(options_.record_path, std::ios::app);
  out << frame << '\n';
}

}  // namespace hp::serve
