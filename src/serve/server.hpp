// The long-lived analysis server (DESIGN.md §15).
//
// One Server owns a listening socket (Unix-domain or TCP), a
// ContextPool of warm AnalysisContexts, and the process-wide par
// ThreadPool. Connections get a dedicated I/O thread (blocking reads
// are cheap; request *execution* is what must share the pool): each
// request runs as a par::TaskGroup task, so query work lands on the
// same work-stealing lanes as every other parallel region -- including
// the artifact builds the query triggers -- and HP_THREADS=1 degrades
// the whole server to deterministic inline execution.
//
// Lifecycle: start() binds and spawns the accept thread; request_stop()
// (also triggered by the protocol `shutdown` command and by SIGINT in
// hp_serve) closes the listener and half-closes every connection
// (SHUT_RD), so in-flight requests drain and their replies are still
// written; wait() joins everything. A connection whose client left is
// reaped (its thread joined, its record freed) on the next accept, so
// a long-lived server holds only its open connections plus the ones
// that finished since the last accept.
//
// Observability: every request runs under a `serve.request` root span
// with one child span per stage -- server.stage.parse, .execute (which
// holds the query layer's spans) and .write -- and the server.* metrics
// family tracks requests, errors, timeouts, cache hits/misses/evictions,
// connections (server.connections: ever accepted;
// server.connections_open: not yet finished), queue depth, per-command
// latency histograms and one server.stage.<stage>_ns histogram per
// stage.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/context_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"

namespace hp::serve {

struct ServerOptions {
  Endpoint endpoint;
  /// ContextPool byte budget (default 1 GiB).
  std::size_t cache_budget_bytes = std::size_t{1} << 30;
  /// Per-request deadline when the request carries none; 0 = unlimited.
  std::uint64_t default_timeout_ms = 0;
  /// When non-empty, append every request frame here (one per line) for
  /// later replay with `hp_cli query --script`.
  std::string record_path;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, spawn the accept thread. Throws SocketError.
  void start();

  /// Begin shutdown: stop accepting, half-close connections. Safe from
  /// any thread, including a request handler. Idempotent.
  void request_stop();

  /// Join the accept thread and every connection thread. Returns once
  /// all in-flight requests have drained.
  void wait();

  bool stopping() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// The bound endpoint; for tcp port 0 this carries the real port
  /// after start().
  const Endpoint& endpoint() const { return options_.endpoint; }

  ContextPool& pool() { return *pool_; }

  /// Connection records held right now: the open connections plus the
  /// finished ones that no accept has reaped yet.
  std::size_t retained_connections();

  /// Execute one parsed request exactly as a connection would (metrics,
  /// tracing, timeout handling included) under its own serve.request
  /// span -- the in-process path used by tests and the load generator to
  /// measure the server without socket noise. It times the execute stage
  /// only: there is no frame to parse or reply to write.
  proto::Response handle(const proto::Request& request);

 private:
  struct Connection {
    Connection() = default;
    // Its thread holds a reference to it.
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    Socket socket;
    std::thread thread;
    bool finished = false;  // guarded by connections_mutex_
  };

  void accept_main();
  void connection_main(Connection& connection);
  /// Join and erase finished connections. Caller holds connections_mutex_.
  void reap_finished();
  /// handle() without its serve.request span, which connection_main
  /// opens around all three stages instead.
  proto::Response execute(const proto::Request& request);
  proto::Response dispatch(const proto::Request& request,
                           std::uint64_t deadline_ns);
  void record_frame(const std::string& frame);

  ServerOptions options_;
  Socket listener_;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::size_t open_connections_ = 0;      // guarded by connections_mutex_
  std::uint64_t accepted_connections_ = 0;  // guarded by connections_mutex_

  std::mutex record_mutex_;

  /// server.stage.{parse,execute,write}_ns, looked up once here rather
  /// than by name on every request.
  obs::LatencyHistogram& parse_ns_;
  obs::LatencyHistogram& execute_ns_;
  obs::LatencyHistogram& write_ns_;

  std::unique_ptr<ContextPool> pool_;
};

}  // namespace hp::serve
