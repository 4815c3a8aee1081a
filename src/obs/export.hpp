// Continuous metrics export: a background flusher thread snapshots the
// registry on a fixed interval into (a) an in-memory time-series ring
// buffer, (b) an append-only JSONL file (one snapshot object per line),
// and (c) a Prometheus text-exposition file rewritten atomically
// (tmp + rename) so a scraper never reads a torn snapshot.
//
// The flusher also refreshes process-level gauges before every
// snapshot (update_process_gauges): process.rss_bytes from
// /proc/self/statm, a par.idle_ns_per_s rate derived from the pool's
// cumulative idle counter, plus any callbacks registered with
// register_flush_callback (the thread pool contributes par.queue_depth
// this way, keeping obs free of a dependency on par).
//
// Interval selection: HP_METRICS_INTERVAL accepts "250ms", "2s", or a
// bare millisecond count; unset or unparsable means "no continuous
// export" (the CLI then flushes once at exit as before). DESIGN.md
// section 14 covers the lifecycle.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hp::obs {

struct ExportOptions {
  /// JSONL sink; empty disables the file (ring buffer still fills).
  std::string jsonl_path;
  /// Prometheus text-exposition sink; empty disables.
  std::string prom_path;
  /// Flush period for the background thread.
  std::chrono::milliseconds interval{1000};
  /// Ring-buffer capacity in snapshots; oldest entries are overwritten.
  std::size_t ring_capacity = 512;
};

/// One ring-buffer entry: a registry snapshot plus when it was taken.
struct TimedSnapshot {
  std::uint64_t unix_ms = 0;      // wall clock, for log correlation
  std::uint64_t uptime_ns = 0;    // steady clock, for rate math
  MetricsSnapshot snapshot;
};

/// Background flusher. start() spawns the thread; stop() joins it after
/// a final flush, so the sinks always end on a complete snapshot.
/// Thread-safe; start() while running throws.
class MetricsExporter {
 public:
  MetricsExporter();
  ~MetricsExporter();
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  void start(const ExportOptions& options);
  /// Final flush + join. No-op when not running. Never throws: sink
  /// write failures on the last flush are logged, not raised.
  void stop();
  bool running() const;

  /// Take one snapshot immediately (also refreshes process gauges) and
  /// write it to every configured sink. Usable with or without the
  /// background thread.
  void flush_now();

  /// Completed flushes since start().
  std::uint64_t flush_count() const;

  /// Copy of the ring buffer, oldest first.
  std::vector<TimedSnapshot> ring() const;

  /// Process-wide exporter the CLI wires to HP_METRICS_INTERVAL.
  static MetricsExporter& global();

 private:
  struct Impl;
  Impl* impl_;  // allocated in the constructor (Impl is file-local)
  Impl& impl() const { return *impl_; }
};

/// Refresh process-level gauges in the global registry:
/// process.rss_bytes, process.vm_bytes (from /proc/self/statm; absent
/// on non-Linux, gauges stay 0), par.idle_ns_per_s (rate over the call
/// interval), then run every registered flush callback.
void update_process_gauges();

/// Register a named callback run by update_process_gauges(); replaces
/// any previous callback of the same name (idempotent registration from
/// singleton constructors).
void register_flush_callback(const std::string& name,
                             std::function<void()> callback);

/// Prometheus text exposition (version 0.0.4): counters and gauges as
/// `hp_<name> value` with dots mapped to underscores, histograms as
/// summaries with quantile 0.5/0.9/0.99 labels plus _sum/_count.
void write_prometheus(const MetricsSnapshot& snapshot, std::ostream& out);

/// write_prometheus to a temp file next to `path`, then rename over it.
/// Throws InvalidInputError when the file cannot be written.
void write_prometheus_file(const MetricsSnapshot& snapshot,
                           const std::string& path);

/// Append one snapshot to `path` as a single JSON line: "unix_ms" and
/// "uptime_ns", then the metrics_json members. Throws InvalidInputError
/// when the file cannot be opened.
void append_metrics_jsonl(const TimedSnapshot& snapshot,
                          const std::string& path);

/// Parse an interval spec: "250ms", "2s", or a bare millisecond count.
/// nullopt (not a throw) for empty/garbage/zero, so callers can treat
/// an unset or bad HP_METRICS_INTERVAL as "disabled" with a warning.
std::optional<std::chrono::milliseconds> parse_metrics_interval(
    const std::string& text);

/// parse_metrics_interval(getenv("HP_METRICS_INTERVAL")).
std::optional<std::chrono::milliseconds> metrics_interval_from_env();

}  // namespace hp::obs
