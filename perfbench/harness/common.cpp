#include "common.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hp::perfbench {

namespace {

constexpr std::size_t kMaxFailureMessages = 5;

const char* const kClockPrefixes[] = {"core decomposition in ",
                                      "core decomposition time: "};

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string format_number(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

}  // namespace

void Phase::record(double ms, const std::string& failure) {
  op_ms.push_back(ms);
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  failed_at.push_back(static_cast<double>(op_ms.size() - 1));
  if (failures.size() < kMaxFailureMessages) failures.push_back(failure);
}

std::string mask_clock_lines(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    for (const char* prefix : kClockPrefixes) {
      if (line.rfind(prefix, 0) == 0) {
        line = std::string{prefix} + "<clock>";
        break;
      }
    }
    out += line;
    out += '\n';
  }
  return out;
}

std::string first_difference(const std::string& got,
                             const std::string& want) {
  std::istringstream a(got);
  std::istringstream b(want);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return "outputs differ in trailing bytes";
    if (!more_a || !more_b || la != lb) {
      return "line " + std::to_string(line) + ": got '" +
             (more_a ? la : "<end>") + "', want '" + (more_b ? lb : "<end>") +
             "'";
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error{"cannot read '" + path + "'"};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error{"cannot write '" + path + "'"};
}

double proc_status(pid_t pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1));
    }
  }
  throw std::runtime_error{"no " + field + " in " + path};
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Json::key(const std::string& name) {
  if (!body_.empty()) body_ += ", ";
  body_ += quote(name) + ": ";
}

Json& Json::number(const std::string& name, double value) {
  key(name);
  body_ += format_number(value);
  return *this;
}

Json& Json::integer(const std::string& name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::string(const std::string& name, const std::string& value) {
  key(name);
  body_ += quote(value);
  return *this;
}

Json& Json::numbers(const std::string& name,
                    const std::vector<double>& values) {
  key(name);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += format_number(values[i]);
  }
  body_ += "]";
  return *this;
}

Json& Json::strings(const std::string& name,
                    const std::vector<std::string>& values) {
  key(name);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += quote(values[i]);
  }
  body_ += "]";
  return *this;
}

Json& Json::object(const std::string& name, const Json& value) {
  key(name);
  body_ += value.text();
  return *this;
}

Json phase_json(const Phase& phase) {
  Json json;
  json.numbers("op_ms", phase.op_ms)
      .number("wall_s", phase.wall_s)
      .integer("attempted", phase.attempted)
      .integer("failed", phase.failed)
      .numbers("failed_at", phase.failed_at)
      .strings("failures", phase.failures);
  return json;
}

}  // namespace hp::perfbench
