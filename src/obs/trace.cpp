#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/json_check.hpp"
#include "obs/metrics.hpp"
#include "util/common.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace hp::obs {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::atomic<bool> g_enabled{false};

/// Trace epoch: all timestamps are relative to this steady-clock point.
/// Written only by reset_tracing() / first use, read by every event.
std::atomic<std::int64_t> g_epoch_ns{0};

/// Process-unique id wells. Span/trace id 0 means "none", so both start
/// handing out ids at 1. Flow ids share the span well (Chrome only
/// needs flow ids to be unique among flows, but distinct wells invite
/// collisions after a reset; one well is simpler and safe).
std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint64_t> g_next_trace_id{1};

/// Slow-span watchdog threshold; 0 = disabled.
std::atomic<std::uint64_t> g_slow_span_ns{0};

/// Ambient causal position of the calling thread.
thread_local TraceContext tl_context;

struct TraceEvent {
  const char* name;   // literal owned by the call site
  std::uint64_t ts_ns;
  std::uint64_t arg;       // kNoTraceArg = absent
  std::uint64_t trace_id;  // 0 = no context recorded
  std::uint64_t span_id;   // B: this span; s/f: the flow id
  std::uint64_t parent_id; // B only; 0 = root of its trace
  double value;            // counter events only
  char phase;              // 'B', 'E', 'C', 's' (flow start), 'f' (flow end)
};

/// Per-thread event buffer. Owned by the global registry (so it outlives
/// its thread and survives thread exit); the thread keeps a raw pointer.
/// The mutex is uncontended except against a concurrent flush/reset.
struct ThreadBuffer {
  std::mutex mutex;
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
  std::size_t depth = 0;  // current span-stack depth
};

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

BufferRegistry& registry() {
  static BufferRegistry* r = new BufferRegistry;  // leaked: outlive statics
  return *r;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

std::int64_t epoch_ns() {
  std::int64_t epoch = g_epoch_ns.load(std::memory_order_acquire);
  if (epoch != 0) return epoch;
  // First use: race-tolerant one-time initialization.
  std::int64_t now = steady_ns();
  if (now == 0) now = 1;
  std::int64_t expected = 0;
  if (g_epoch_ns.compare_exchange_strong(expected, now,
                                         std::memory_order_acq_rel)) {
    return now;
  }
  return expected;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    BufferRegistry& r = registry();
    const std::lock_guard<std::mutex> lock{r.mutex};
    raw->tid = static_cast<std::uint32_t>(r.buffers.size());
    r.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

void append(const TraceEvent& event) {
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock{buffer.mutex};
  buffer.events.push_back(event);
  if (event.phase == 'B') {
    ++buffer.depth;
  } else if (event.phase == 'E' && buffer.depth > 0) {
    --buffer.depth;
  }
}

json::Object event_json(const TraceEvent& e, std::uint32_t tid) {
  json::Object event;
  event.string("name", e.name)
      .string("ph", std::string_view{&e.phase, 1})
      .integer("pid", 1)
      .integer("tid", tid)
      .number("ts", static_cast<double>(e.ts_ns) / 1e3);
  if (e.phase == 'C') {
    event.object("args", json::Object{}.number("value", e.value));
  } else if (e.phase == 's' || e.phase == 'f') {
    // Flow events bind to the enclosing slice; "bp": "e" makes the
    // finish attach to the slice it is emitted inside of.
    event.string("cat", "par").integer("id", e.span_id);
    if (e.phase == 'f') event.string("bp", "e");
  } else if (e.phase == 'B') {
    json::Object args;
    if (e.arg != kNoTraceArg) args.integer("k", e.arg);
    if (e.trace_id != 0) {
      args.integer("trace", e.trace_id)
          .integer("span", e.span_id)
          .integer("parent", e.parent_id);
    }
    event.object("args", args);
  } else if (e.arg != kNoTraceArg) {
    event.object("args", json::Object{}.integer("k", e.arg));
  }
  return event;
}

Counter& slow_span_counter() {
  static Counter& c = counter("obs.slow_spans");
  return c;
}

}  // namespace

bool tracing_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_tracing_enabled(bool on) {
  if (on) epoch_ns();  // pin the epoch before the first event
  g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(steady_ns() - epoch_ns());
}

TraceContext current_trace_context() { return tl_context; }

TraceContextScope::TraceContextScope(TraceContext context)
    : previous_(tl_context) {
  tl_context = context;
}

TraceContextScope::~TraceContextScope() { tl_context = previous_; }

void set_slow_span_threshold_ns(std::uint64_t threshold_ns) {
  g_slow_span_ns.store(threshold_ns, std::memory_order_relaxed);
}

std::uint64_t slow_span_threshold_ns() {
  return g_slow_span_ns.load(std::memory_order_relaxed);
}

namespace detail {

bool enabled_relaxed() { return g_enabled.load(std::memory_order_relaxed); }

SpanState begin_span(const char* name, std::uint64_t arg) {
  SpanState state;
  state.previous = tl_context;
  const std::uint64_t span_id =
      g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t trace_id =
      state.previous.trace_id != 0
          ? state.previous.trace_id
          : g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
  state.start_ns = trace_now_ns();
  append({name, state.start_ns, arg, trace_id, span_id,
          state.previous.span_id, 0.0, 'B'});
  tl_context = {trace_id, span_id};
  return state;
}

void end_span(const char* name, const SpanState& state) {
  const std::uint64_t now = trace_now_ns();
  const TraceContext self = tl_context;
  append({name, now, kNoTraceArg, 0, 0, 0, 0.0, 'E'});
  tl_context = state.previous;
  const std::uint64_t threshold =
      g_slow_span_ns.load(std::memory_order_relaxed);
  if (threshold != 0 && now - state.start_ns > threshold) {
    slow_span_counter().add(1);
    log_warn() << "slow span '" << name << "' took "
               << format_duration(static_cast<double>(now - state.start_ns) /
                                  1e9)
               << " (threshold "
               << format_duration(static_cast<double>(threshold) / 1e9)
               << ", trace " << self.trace_id << ", span " << self.span_id
               << ")";
  }
}

}  // namespace detail

TaskLink capture_task_link() {
  TaskLink link;
  if (!detail::enabled_relaxed()) return link;
  link.context = tl_context;
  link.flow_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  append({"par.spawn", trace_now_ns(), kNoTraceArg, link.context.trace_id,
          link.flow_id, 0, 0.0, 's'});
  return link;
}

TaskScope::TaskScope(const TaskLink& link)
    : scope_(link.flow_id != 0 ? link.context : current_trace_context()),
      span_("par.task") {
  if (link.flow_id == 0 || !detail::enabled_relaxed()) return;
  // Emitted inside the just-opened par.task span so "bp": "e" binds the
  // arrow head to it.
  append({"par.spawn", trace_now_ns(), kNoTraceArg, link.context.trace_id,
          link.flow_id, 0, 0.0, 'f'});
}

TaskScope::~TaskScope() = default;

void trace_counter(const char* name, double value) {
  if (!detail::enabled_relaxed()) return;
  append({name, trace_now_ns(), kNoTraceArg, 0, 0, 0, value, 'C'});
}

std::size_t trace_span_depth() {
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock{buffer.mutex};
  return buffer.depth;
}

std::size_t trace_event_count() {
  BufferRegistry& r = registry();
  const std::lock_guard<std::mutex> registry_lock{r.mutex};
  std::size_t total = 0;
  for (const auto& buffer : r.buffers) {
    const std::lock_guard<std::mutex> lock{buffer->mutex};
    total += buffer->events.size();
  }
  return total;
}

void reset_tracing() {
  BufferRegistry& r = registry();
  const std::lock_guard<std::mutex> registry_lock{r.mutex};
  for (const auto& buffer : r.buffers) {
    const std::lock_guard<std::mutex> lock{buffer->mutex};
    buffer->events.clear();
    buffer->depth = 0;
  }
  std::int64_t now = steady_ns();
  if (now == 0) now = 1;
  g_epoch_ns.store(now, std::memory_order_release);
}

void write_chrome_trace(std::ostream& out) {
  BufferRegistry& r = registry();
  const std::lock_guard<std::mutex> registry_lock{r.mutex};
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& buffer : r.buffers) {
    const std::lock_guard<std::mutex> lock{buffer->mutex};
    for (const TraceEvent& event : buffer->events) {
      out << (first ? "\n" : ",\n")
          << event_json(event, buffer->tid).text();
      first = false;
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream out{path};
  if (!out) {
    throw InvalidInputError{"cannot open trace output file '" + path + "'"};
  }
  write_chrome_trace(out);
}

}  // namespace hp::obs
