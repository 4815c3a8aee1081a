#include "obs/json_check.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "util/common.hpp"

namespace hp::obs::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError{"json: " + why + " at offset " +
                     std::to_string(pos_)};
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    if (depth_ >= kMaxDepth) fail("nesting deeper than 256 levels");
    ++depth_;
    Value v = parse_value_inner();
    --depth_;
    return v;
  }

  Value parse_value_inner() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default:
        return parse_number();
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.type = Value::Type::kBool;
    v.boolean = b;
    return v;
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");  // RFC 8259 section 7
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u':
          append_utf8(out, parse_code_point());
          break;
        default:
          fail("unknown escape");
      }
    }
  }

  /// The four hex digits of a \uXXXX escape.
  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    const char* first = text_.data() + pos_;
    if (pos_ + 4 > text_.size() ||
        std::from_chars(first, first + 4, value, 16).ptr != first + 4) {
      fail("\\u needs four hex digits");
    }
    pos_ += 4;
    return value;
  }

  /// The code point of a \uXXXX escape whose "\u" is consumed: a high
  /// surrogate must be followed by an escaped low one, and the pair
  /// combines; a surrogate on its own is an error.
  std::uint32_t parse_code_point() {
    const std::uint32_t unit = parse_hex4();
    if (unit >= 0xDC00 && unit <= 0xDFFF) fail("lone low surrogate");
    if (unit < 0xD800 || unit > 0xDBFF) return unit;
    if (!consume_literal("\\u")) fail("lone high surrogate");
    const std::uint32_t low = parse_hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
    return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
  }

  /// UTF-8: a lead byte marking the length, then 6 bits per byte.
  static void append_utf8(std::string& out, std::uint32_t cp) {
    static constexpr std::uint32_t kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
      out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
      return pos_ > before;
    };
    if (!digits()) fail("malformed number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("malformed fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail("malformed exponent");
    }
    Value v;
    v.type = Value::Type::kNumber;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  /// Recursion ceiling for nested arrays/objects: deep enough for any
  /// trace or metrics document, shallow enough that a hostile
  /// "[[[[..."-style input raises ParseError long before the parser
  /// (or the Value destructor) can exhaust the stack. The analysis
  /// server's request parser (src/serve/protocol.cpp) relies on this
  /// bound holding for arbitrary network input.
  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

void append_quoted(std::string& out, std::string_view text) {
  out.reserve(out.size() + text.size() + 2);
  out += '"';
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}

void Object::key(std::string_view name) {
  if (!body_.empty()) body_ += ", ";
  append_quoted(body_, name);
  body_ += ": ";
}

Object& Object::number(std::string_view name, double value) {
  key(name);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char text[32];
  const auto result = std::to_chars(text, text + sizeof text, value);
  body_.append(text, result.ptr);
  return *this;
}

Object& Object::integer(std::string_view name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

Object& Object::integers(std::string_view name,
                         const std::vector<std::uint64_t>& values) {
  key(name);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += std::to_string(values[i]);
  }
  body_ += ']';
  return *this;
}

Object& Object::boolean(std::string_view name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

Object& Object::string(std::string_view name, std::string_view value) {
  key(name);
  append_quoted(body_, value);
  return *this;
}

Object& Object::object(std::string_view name, const Object& value) {
  key(name);
  body_ += value.text();
  return *this;
}

Object& Object::objects(std::string_view name,
                        const std::vector<Object>& values) {
  key(name);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += values[i].text();
  }
  body_ += ']';
  return *this;
}

void Object::write_file(const std::string& path) const {
  std::ofstream out{path};
  out << text() << '\n';
  if (!out.flush()) {
    throw InvalidInputError{"cannot write JSON file '" + path + "'"};
  }
}

const Value* Value::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

Value parse(const std::string& text) {
  return Parser{text}.parse_document();
}

}  // namespace hp::obs::json

namespace hp::obs {

bool TraceSummary::all_balanced() const {
  return std::all_of(threads.begin(), threads.end(),
                     [](const TraceThreadSummary& t) { return t.balanced; });
}

bool TraceSummary::all_monotonic() const {
  return std::all_of(
      threads.begin(), threads.end(),
      [](const TraceThreadSummary& t) { return t.timestamps_monotonic; });
}

bool TraceSummary::all_single_rooted() const {
  return parent_integrity &&
         std::all_of(trees.begin(), trees.end(),
                     [](const TraceTreeSummary& t) {
                       return t.roots == 1 && t.connected;
                     });
}

const TraceThreadSummary* TraceSummary::thread(std::uint32_t tid) const {
  for (const TraceThreadSummary& t : threads) {
    if (t.tid == tid) return &t;
  }
  return nullptr;
}

const TraceTreeSummary* TraceSummary::tree(std::uint64_t trace_id) const {
  for (const TraceTreeSummary& t : trees) {
    if (t.trace_id == trace_id) return &t;
  }
  return nullptr;
}

TraceSummary summarize_trace(const json::Value& root) {
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr || events->type != json::Value::Type::kArray) {
    throw ParseError{"trace: missing \"traceEvents\" array"};
  }

  struct ThreadState {
    TraceThreadSummary summary;
    double last_ts = -1.0;
    std::int64_t depth = 0;
  };
  std::map<std::uint32_t, ThreadState> threads;

  struct TreeState {
    TraceTreeSummary summary;
    std::set<std::uint32_t> tids;
  };
  std::map<std::uint64_t, TreeState> trees;
  std::map<std::uint64_t, std::uint64_t> span_to_trace;  // span id -> trace
  struct ParentRef {
    std::uint64_t trace_id;
    std::uint64_t parent_id;
  };
  std::vector<ParentRef> parent_refs;  // resolved after the event sweep

  TraceSummary out;
  for (const json::Value& event : events->array) {
    const json::Value* name = event.find("name");
    const json::Value* phase = event.find("ph");
    const json::Value* ts = event.find("ts");
    const json::Value* tid = event.find("tid");
    if (name == nullptr || name->type != json::Value::Type::kString ||
        phase == nullptr || phase->type != json::Value::Type::kString ||
        phase->string.size() != 1 || ts == nullptr ||
        ts->type != json::Value::Type::kNumber || tid == nullptr ||
        tid->type != json::Value::Type::kNumber) {
      throw ParseError{"trace: event missing name/ph/ts/tid"};
    }
    ++out.events;
    ThreadState& state =
        threads[static_cast<std::uint32_t>(tid->number)];
    state.summary.tid = static_cast<std::uint32_t>(tid->number);
    ++state.summary.events;
    if (ts->number < state.last_ts) {
      state.summary.timestamps_monotonic = false;
    }
    state.last_ts = ts->number;
    switch (phase->string[0]) {
      case 'B': {
        ++state.summary.begin_events;
        ++state.depth;
        // Causal ids ride in args: {"trace": t, "span": s, "parent": p}.
        // Spans without them (older traces) simply stay outside the
        // tree bookkeeping.
        const json::Value* args = event.find("args");
        const json::Value* trace = args ? args->find("trace") : nullptr;
        const json::Value* span = args ? args->find("span") : nullptr;
        const json::Value* parent = args ? args->find("parent") : nullptr;
        if (trace != nullptr && span != nullptr && parent != nullptr &&
            trace->type == json::Value::Type::kNumber &&
            span->type == json::Value::Type::kNumber &&
            parent->type == json::Value::Type::kNumber) {
          const auto trace_id = static_cast<std::uint64_t>(trace->number);
          const auto span_id = static_cast<std::uint64_t>(span->number);
          const auto parent_id = static_cast<std::uint64_t>(parent->number);
          TreeState& tree = trees[trace_id];
          tree.summary.trace_id = trace_id;
          ++tree.summary.spans;
          tree.tids.insert(state.summary.tid);
          if (parent_id == 0) {
            ++tree.summary.roots;
          } else {
            parent_refs.push_back({trace_id, parent_id});
          }
          if (!span_to_trace.emplace(span_id, trace_id).second) {
            out.parent_integrity = false;  // duplicate span id
          }
        }
        break;
      }
      case 'E':
        ++state.summary.end_events;
        if (--state.depth < 0) state.summary.balanced = false;
        break;
      case 'C':
        ++state.summary.counter_events;
        break;
      case 's':
      case 't':
      case 'f':
        ++state.summary.flow_events;
        break;
      case 'X':
        break;  // complete events carry their own duration
      default:
        throw ParseError{"trace: unsupported phase '" + phase->string +
                         "'"};
    }
  }
  // Second pass: every parent reference must name a recorded span of
  // the same trace. Dangling or cross-trace parents break connectivity.
  for (const ParentRef& ref : parent_refs) {
    const auto found = span_to_trace.find(ref.parent_id);
    if (found == span_to_trace.end() || found->second != ref.trace_id) {
      out.parent_integrity = false;
      trees[ref.trace_id].summary.connected = false;
    }
  }
  for (auto& [tid, state] : threads) {
    if (state.depth != 0) state.summary.balanced = false;
    out.threads.push_back(state.summary);
  }
  for (auto& [trace_id, state] : trees) {
    state.summary.threads = state.tids.size();
    out.trees.push_back(state.summary);
  }
  return out;
}

}  // namespace hp::obs
