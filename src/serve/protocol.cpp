#include "serve/protocol.hpp"

#include <cmath>

#include "obs/json_check.hpp"
#include "util/common.hpp"

namespace hp::serve::proto {

namespace {

using obs::json::append_quoted;
using obs::json::Value;

[[noreturn]] void fail(const std::string& why) {
  throw ParseError{"protocol: " + why};
}

bool valid_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
         c == '-';
}

bool valid_key_char(char c) {
  return valid_name_char(c) || (c >= 'A' && c <= 'Z');
}

/// JSON numbers arrive as doubles; protocol integers must be exact.
std::uint64_t require_integer(const Value& v, const char* field) {
  if (v.type != Value::Type::kNumber) {
    fail(std::string{field} + " must be an integer");
  }
  const double d = v.number;
  if (!(d >= 0.0) || d > static_cast<double>(kMaxIntegerField) ||
      std::floor(d) != d) {
    fail(std::string{field} + " out of range (0.." +
         std::to_string(kMaxIntegerField) + ")");
  }
  return static_cast<std::uint64_t>(d);
}

std::string require_string(const Value& v, const char* field,
                           std::size_t max_length) {
  if (v.type != Value::Type::kString) {
    fail(std::string{field} + " must be a string");
  }
  if (v.string.size() > max_length) {
    fail(std::string{field} + " longer than " + std::to_string(max_length) +
         " bytes");
  }
  if (v.string.find('\0') != std::string::npos) {
    fail(std::string{field} + " contains a NUL byte");
  }
  return v.string;
}

/// Reject duplicated keys: the json reader preserves every occurrence.
void require_unique_keys(const Value& object, const char* what) {
  for (std::size_t i = 0; i < object.object.size(); ++i) {
    for (std::size_t j = i + 1; j < object.object.size(); ++j) {
      if (object.object[i].first == object.object[j].first) {
        fail(std::string{what} + " key '" + object.object[i].first +
             "' appears twice");
      }
    }
  }
}

Value parse_frame_object(const std::string& frame, const char* what) {
  if (frame.size() > kMaxFrameBytes) {
    fail(std::string{what} + " frame larger than " +
         std::to_string(kMaxFrameBytes) + " bytes");
  }
  if (frame.find('\n') != std::string::npos) {
    fail(std::string{what} + " frame contains a raw newline");
  }
  Value root = obs::json::parse(frame);
  if (root.type != Value::Type::kObject) {
    fail(std::string{what} + " frame is not a JSON object");
  }
  return root;
}

void parse_args_object(const Value& value, Request& request) {
  if (value.type != Value::Type::kObject) fail("args must be an object");
  require_unique_keys(value, "args");
  if (value.object.size() > kMaxArgs) {
    fail("args carries more than " + std::to_string(kMaxArgs) + " entries");
  }
  for (const auto& [key, arg] : value.object) {
    if (key.empty() || key.size() > kMaxArgKeyLength) {
      fail("args key '" + key + "' is empty or over-long");
    }
    for (char c : key) {
      if (!valid_key_char(c)) fail("args key '" + key + "' has bad chars");
    }
    std::string text;
    switch (arg.type) {
      case Value::Type::kString:
        text = require_string(arg, "args value", kMaxArgValueLength);
        break;
      case Value::Type::kNumber: {
        const double d = arg.number;
        if (std::floor(d) == d && std::fabs(d) <=
            static_cast<double>(kMaxIntegerField)) {
          text = std::to_string(static_cast<std::int64_t>(d));
        } else {
          fail("args value for '" + key + "' is not an exact integer");
        }
        break;
      }
      case Value::Type::kBool:
        text = arg.boolean ? "true" : "false";
        break;
      default:
        fail("args value for '" + key + "' must be string/integer/bool");
    }
    request.args.emplace_back(key, std::move(text));
  }
}

}  // namespace

Request parse_request(const std::string& frame) {
  const Value root = parse_frame_object(frame, "request");
  require_unique_keys(root, "request");

  Request request;
  bool saw_cmd = false;
  for (const auto& [key, value] : root.object) {
    if (key == "id") {
      request.id = require_integer(value, "id");
    } else if (key == "cmd") {
      request.command = require_string(value, "cmd", kMaxCommandLength);
      saw_cmd = true;
    } else if (key == "path") {
      request.path = require_string(value, "path", kMaxPathLength);
    } else if (key == "args") {
      parse_args_object(value, request);
    } else if (key == "timeout_ms") {
      request.timeout_ms = require_integer(value, "timeout_ms");
    } else {
      fail("unknown request key '" + key + "'");
    }
  }
  if (!saw_cmd || request.command.empty()) fail("missing or empty cmd");
  for (char c : request.command) {
    if (!valid_name_char(c)) {
      fail("cmd '" + request.command + "' has characters outside [a-z0-9_-]");
    }
  }
  if (request.path.find('\n') != std::string::npos) {
    fail("path contains a newline");
  }
  return request;
}

std::string format_request(const Request& request) {
  HP_REQUIRE(!request.command.empty() &&
                 request.command.size() <= kMaxCommandLength,
             "format_request: bad command length");
  for (char c : request.command) {
    HP_REQUIRE(valid_name_char(c), "format_request: bad command character");
  }
  HP_REQUIRE(request.path.size() <= kMaxPathLength,
             "format_request: path too long");
  HP_REQUIRE(request.args.size() <= kMaxArgs,
             "format_request: too many args");
  obs::json::Object frame;
  if (request.has_id()) {
    HP_REQUIRE(request.id <= kMaxIntegerField,
               "format_request: id out of range");
    frame.integer("id", request.id);
  }
  frame.string("cmd", request.command);
  if (!request.path.empty()) frame.string("path", request.path);
  if (!request.args.empty()) {
    obs::json::Object args;
    for (const auto& [key, value] : request.args) {
      HP_REQUIRE(!key.empty() && key.size() <= kMaxArgKeyLength,
                 "format_request: bad args key");
      HP_REQUIRE(value.size() <= kMaxArgValueLength,
                 "format_request: args value too long");
      args.string(key, value);
    }
    frame.object("args", args);
  }
  if (request.timeout_ms > 0) {
    HP_REQUIRE(request.timeout_ms <= kMaxIntegerField,
               "format_request: timeout_ms out of range");
    frame.integer("timeout_ms", request.timeout_ms);
  }
  std::string out = frame.text();
  HP_REQUIRE(out.size() <= kMaxFrameBytes, "format_request: frame too large");
  return out;
}

Response parse_response(const std::string& frame) {
  const Value root = parse_frame_object(frame, "response");
  require_unique_keys(root, "response");

  Response response;
  bool saw_ok = false;
  for (const auto& [key, value] : root.object) {
    if (key == "id") {
      if (value.type == Value::Type::kNull) continue;  // explicit "no id"
      response.id = require_integer(value, "id");
    } else if (key == "ok") {
      if (value.type != Value::Type::kBool) fail("ok must be a boolean");
      response.ok = value.boolean;
      saw_ok = true;
    } else if (key == "output") {
      // Output is capped by the frame limit, not a field limit: it is
      // the one field that legitimately dominates the frame.
      response.output = require_string(value, "output", kMaxFrameBytes);
    } else if (key == "error") {
      response.error = require_string(value, "error", kMaxFrameBytes);
    } else if (key == "cache") {
      response.cache = require_string(value, "cache", kMaxCommandLength);
    } else if (key == "micros") {
      response.micros = require_integer(value, "micros");
    } else {
      fail("unknown response key '" + key + "'");
    }
  }
  if (!saw_ok) fail("missing ok field");
  if (response.ok && !response.error.empty()) {
    fail("ok response carries an error field");
  }
  if (!response.ok && response.error.empty()) {
    fail("failed response carries no error message");
  }
  return response;
}

std::string format_response(const Response& response) {
  const std::string& text = response.ok ? response.output : response.error;
  std::string out;
  out.reserve(text.size() + 96);
  out += "{\"id\": ";
  out += response.has_id() ? std::to_string(response.id) : "null";
  out += response.ok ? ", \"ok\": true" : ", \"ok\": false";
  if (!response.cache.empty()) {
    out += ", \"cache\": ";
    append_quoted(out, response.cache);
  }
  out += ", \"micros\": " + std::to_string(response.micros);
  out += response.ok ? ", \"output\": " : ", \"error\": ";
  append_quoted(out, text);
  out += "}";
  return out;
}

}  // namespace hp::serve::proto
