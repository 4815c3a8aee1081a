// The project's one JSON module (no third-party dependency): the writer
// every emitter uses (metrics, traces, wire frames, BENCH records), a
// strict RFC-8259 subset reader (no comments, no trailing commas; every
// escape decoded, \uXXXX to UTF-8) that reads back whatever the writer
// quotes, and a Chrome-trace structural validator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hp::obs::json {

/// Append `text` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, \b \f \n \r \t use their named escapes, every
/// other byte below 0x20 becomes \u00xx, and all other bytes (UTF-8
/// included) are copied verbatim.
void append_quoted(std::string& out, std::string_view text);

/// One JSON object built member by member, in call order. Doubles are
/// written in their shortest round-trip form, and a non-finite double
/// as null.
class Object {
 public:
  Object& number(std::string_view key, double value);
  Object& integer(std::string_view key, std::uint64_t value);
  Object& integers(std::string_view key,
                   const std::vector<std::uint64_t>& values);
  Object& boolean(std::string_view key, bool value);
  Object& string(std::string_view key, std::string_view value);
  Object& object(std::string_view key, const Object& value);
  Object& objects(std::string_view key, const std::vector<Object>& values);

  /// The object on one line, without a trailing newline.
  std::string text() const { return "{" + body_ + "}"; }

  /// text() plus a newline to `path`; throws InvalidInputError when the
  /// file cannot be written.
  void write_file(const std::string& path) const;

 private:
  void key(std::string_view name);
  std::string body_;
};

/// Mutable JSON document tree. Small inputs only (traces, metrics
/// dumps); everything is stored by value.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  /// Member lookup on an object; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
};

/// Parse one JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Nesting is capped at 256 levels so hostile
/// deeply-nested input fails with ParseError instead of exhausting the
/// stack (the analysis-server request parser feeds this with untrusted
/// network frames). Throws hp::ParseError with an offset on error.
Value parse(const std::string& text);

}  // namespace hp::obs::json

namespace hp::obs {

/// Per-thread tallies of a parsed Chrome trace.
struct TraceThreadSummary {
  std::uint32_t tid = 0;
  std::size_t events = 0;
  std::size_t begin_events = 0;
  std::size_t end_events = 0;
  std::size_t counter_events = 0;
  std::size_t flow_events = 0;  // ph "s"/"t"/"f" task hand-off markers
  bool timestamps_monotonic = true;  // non-decreasing ts in file order
  bool balanced = true;  // B/E counts match and depth never went negative
};

/// Per-trace-id tallies of the causal span tree (args.trace/span/parent
/// on B events, DESIGN.md section 14). A healthy operation shows up as
/// exactly one tree: `roots == 1` and `connected` true.
struct TraceTreeSummary {
  std::uint64_t trace_id = 0;
  std::size_t spans = 0;      // B events carrying this trace id
  std::size_t roots = 0;      // spans with parent 0
  std::size_t threads = 0;    // distinct tids contributing spans
  /// Every non-root parent id resolves to a span of the same trace.
  bool connected = true;
};

struct TraceSummary {
  std::size_t events = 0;
  std::vector<TraceThreadSummary> threads;  // sorted by tid
  std::vector<TraceTreeSummary> trees;      // sorted by trace_id
  /// Span ids unique file-wide and every parent reference resolves to a
  /// span of the same trace. Spans without ids (pre-context traces) are
  /// exempt.
  bool parent_integrity = true;

  bool all_balanced() const;
  bool all_monotonic() const;
  /// Every tree has exactly one root and is fully connected.
  bool all_single_rooted() const;
  const TraceThreadSummary* thread(std::uint32_t tid) const;
  const TraceTreeSummary* tree(std::uint64_t trace_id) const;
};

/// Validate a parsed trace document: must be an object with a
/// "traceEvents" array whose entries carry string "name"/"ph" and
/// numeric "ts"/"tid". Throws hp::ParseError on structural violations;
/// ordering/balance/parent-integrity problems are reported in the
/// summary, not thrown.
TraceSummary summarize_trace(const json::Value& root);

}  // namespace hp::obs
