#include "obs/export.hpp"

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>

#include "util/common.hpp"
#include "util/log.hpp"

namespace hp::obs {

namespace {

/// Steady-clock anchor for uptime_ns; initialized on first use.
std::uint64_t uptime_ns_now() {
  static const auto start = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

std::uint64_t unix_ms_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

struct CallbackRegistry {
  std::mutex mutex;
  std::map<std::string, std::function<void()>> callbacks;
};

CallbackRegistry& callback_registry() {
  static CallbackRegistry* r = new CallbackRegistry;  // outlives statics
  return *r;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else (our
/// dots) becomes '_'. A leading digit gets an extra '_' prefix, though
/// the "hp_" prefix already prevents that.
std::string prometheus_name(const std::string& name) {
  std::string out = "hp_";
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

void register_flush_callback(const std::string& name,
                             std::function<void()> callback) {
  CallbackRegistry& r = callback_registry();
  const std::lock_guard<std::mutex> lock{r.mutex};
  r.callbacks[name] = std::move(callback);
}

void update_process_gauges() {
  // RSS / virtual size from /proc/self/statm (page counts). Absent on
  // non-Linux; the gauges then simply stay at their last value (0).
  if (std::ifstream statm{"/proc/self/statm"}; statm) {
    std::uint64_t vm_pages = 0;
    std::uint64_t rss_pages = 0;
    if (statm >> vm_pages >> rss_pages) {
      const auto page =
          static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
      gauge("process.vm_bytes")
          .set(static_cast<double>(vm_pages * page));
      gauge("process.rss_bytes")
          .set(static_cast<double>(rss_pages * page));
    }
  }

  // Pool idle rate: how many ns of worker idle time accrue per second
  // of wall time, derived from the cumulative par.idle_ns counter over
  // the interval since the previous call. First call publishes 0.
  {
    static std::mutex rate_mutex;
    static std::uint64_t prev_idle_ns = 0;
    static std::uint64_t prev_uptime_ns = 0;
    static bool primed = false;
    const std::lock_guard<std::mutex> lock{rate_mutex};
    const std::uint64_t idle = counter("par.idle_ns").value();
    const std::uint64_t now = uptime_ns_now();
    if (primed && now > prev_uptime_ns) {
      const double rate = static_cast<double>(idle - prev_idle_ns) /
                          (static_cast<double>(now - prev_uptime_ns) / 1e9);
      gauge("par.idle_ns_per_s").set(rate);
    }
    prev_idle_ns = idle;
    prev_uptime_ns = now;
    primed = true;
  }

  // Registered contributors (the thread pool publishes par.queue_depth
  // here; see ThreadPool::global()).
  std::vector<std::function<void()>> callbacks;
  {
    CallbackRegistry& r = callback_registry();
    const std::lock_guard<std::mutex> lock{r.mutex};
    callbacks.reserve(r.callbacks.size());
    for (const auto& [name, fn] : r.callbacks) callbacks.push_back(fn);
  }
  for (const auto& fn : callbacks) fn();
}

void write_prometheus(const MetricsSnapshot& snapshot, std::ostream& out) {
  for (const CounterSample& s : snapshot.counters) {
    const std::string name = prometheus_name(s.name);
    out << "# TYPE " << name << " counter\n";
    out << name << ' ' << s.value << '\n';
  }
  for (const GaugeSample& s : snapshot.gauges) {
    const std::string name = prometheus_name(s.name);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", s.value);
    out << "# TYPE " << name << " gauge\n";
    out << name << ' ' << value << '\n';
  }
  for (const HistogramSample& s : snapshot.histograms) {
    const std::string name = prometheus_name(s.name);
    out << "# TYPE " << name << " summary\n";
    out << name << "{quantile=\"0.5\"} " << s.p50_ns << '\n';
    out << name << "{quantile=\"0.9\"} " << s.p90_ns << '\n';
    out << name << "{quantile=\"0.99\"} " << s.p99_ns << '\n';
    out << name << "_sum " << s.sum_ns << '\n';
    out << name << "_count " << s.count << '\n';
  }
}

void write_prometheus_file(const MetricsSnapshot& snapshot,
                           const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::trunc};
    if (!out) {
      throw InvalidInputError{"cannot open metrics output file '" + tmp +
                              "'"};
    }
    write_prometheus(snapshot, out);
    if (!out.flush()) {
      throw InvalidInputError{"failed writing metrics to '" + tmp + "'"};
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw InvalidInputError{"cannot replace metrics file '" + path + "'"};
  }
}

void append_metrics_jsonl(const TimedSnapshot& snapshot,
                          const std::string& path) {
  std::ofstream out{path, std::ios::app};
  if (!out) {
    throw InvalidInputError{"cannot open metrics output file '" + path +
                            "'"};
  }
  // One object per line: JSONL consumers split on '\n'.
  json::Object record;
  record.integer("unix_ms", snapshot.unix_ms)
      .integer("uptime_ns", snapshot.uptime_ns);
  out << metrics_json(snapshot.snapshot, std::move(record)).text() << '\n';
}

std::optional<std::chrono::milliseconds> parse_metrics_interval(
    const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || value <= 0) return std::nullopt;
  const std::string unit = end;
  double ms = 0;
  if (unit.empty() || unit == "ms") {
    ms = value;
  } else if (unit == "s") {
    ms = value * 1000.0;
  } else {
    return std::nullopt;
  }
  if (ms < 1.0) ms = 1.0;
  return std::chrono::milliseconds{static_cast<std::int64_t>(ms)};
}

std::optional<std::chrono::milliseconds> metrics_interval_from_env() {
  const char* text = std::getenv("HP_METRICS_INTERVAL");
  return text != nullptr ? parse_metrics_interval(text) : std::nullopt;
}

struct MetricsExporter::Impl {
  mutable std::mutex mutex;
  std::condition_variable cv;
  std::thread thread;
  bool running = false;
  bool stopping = false;
  ExportOptions options;
  std::vector<TimedSnapshot> ring;  // ring.size() <= ring_capacity
  std::size_t ring_next = 0;        // next write position once full
  std::atomic<std::uint64_t> flushes{0};

  void flush_locked_config() {
    // Snapshot the sink config under the lock, then do the slow I/O
    // outside it so flush_now() never blocks metric updates.
    ExportOptions opts;
    {
      const std::lock_guard<std::mutex> lock{mutex};
      opts = options;
    }
    update_process_gauges();
    TimedSnapshot timed;
    timed.unix_ms = unix_ms_now();
    timed.uptime_ns = uptime_ns_now();
    timed.snapshot = Registry::global().snapshot();
    {
      const std::lock_guard<std::mutex> lock{mutex};
      if (ring.size() < options.ring_capacity) {
        ring.push_back(timed);
      } else if (!ring.empty()) {
        ring[ring_next] = timed;
        ring_next = (ring_next + 1) % ring.size();
      }
    }
    if (!opts.jsonl_path.empty()) {
      append_metrics_jsonl(timed, opts.jsonl_path);
    }
    if (!opts.prom_path.empty()) {
      write_prometheus_file(timed.snapshot, opts.prom_path);
    }
    flushes.fetch_add(1, std::memory_order_relaxed);
  }

  void thread_main() {
    std::unique_lock<std::mutex> lock{mutex};
    while (!stopping) {
      const auto interval = options.interval;
      cv.wait_for(lock, interval, [this] { return stopping; });
      if (stopping) break;
      lock.unlock();
      try {
        flush_locked_config();
      } catch (const std::exception& error) {
        log_warn() << "metrics export flush failed: " << error.what();
      }
      lock.lock();
    }
  }
};

MetricsExporter::MetricsExporter() : impl_(new Impl) {}

MetricsExporter::~MetricsExporter() {
  stop();
  delete impl_;
}

void MetricsExporter::start(const ExportOptions& options) {
  Impl& i = impl();
  HP_REQUIRE(options.interval.count() > 0,
             "metrics export interval must be > 0");
  HP_REQUIRE(options.ring_capacity > 0,
             "metrics export ring capacity must be > 0");
  {
    const std::lock_guard<std::mutex> lock{i.mutex};
    HP_REQUIRE(!i.running, "metrics exporter is already running");
    i.options = options;
    i.stopping = false;
    i.ring.clear();
    i.ring_next = 0;
    i.flushes.store(0, std::memory_order_relaxed);
    i.running = true;
  }
  i.thread = std::thread{[&i] { i.thread_main(); }};
}

void MetricsExporter::stop() {
  Impl& i = impl();
  {
    const std::lock_guard<std::mutex> lock{i.mutex};
    if (!i.running) return;
    i.stopping = true;
  }
  i.cv.notify_all();
  if (i.thread.joinable()) i.thread.join();
  try {
    i.flush_locked_config();  // sinks end on a complete snapshot
  } catch (const std::exception& error) {
    log_warn() << "metrics export final flush failed: " << error.what();
  }
  const std::lock_guard<std::mutex> lock{i.mutex};
  i.running = false;
}

bool MetricsExporter::running() const {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock{i.mutex};
  return i.running;
}

void MetricsExporter::flush_now() { impl().flush_locked_config(); }

std::uint64_t MetricsExporter::flush_count() const {
  return impl().flushes.load(std::memory_order_relaxed);
}

std::vector<TimedSnapshot> MetricsExporter::ring() const {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock{i.mutex};
  std::vector<TimedSnapshot> out;
  out.reserve(i.ring.size());
  // Oldest first: entries [ring_next, end) then [0, ring_next).
  for (std::size_t k = 0; k < i.ring.size(); ++k) {
    out.push_back(i.ring[(i.ring_next + k) % i.ring.size()]);
  }
  return out;
}

MetricsExporter& MetricsExporter::global() {
  static MetricsExporter* exporter = new MetricsExporter;  // leaked
  return *exporter;
}

}  // namespace hp::obs
