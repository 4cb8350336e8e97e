#include "common/json_writer.hpp"

#include <cstdio>
#include <iomanip>
#include <limits>
#include <ostream>

#include "common/check.hpp"

namespace ssm {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

JsonWriter::JsonWriter(std::ostream& os) : os_(os) {
  os_ << std::setprecision(std::numeric_limits<double>::max_digits10);
}

JsonWriter::~JsonWriter() = default;

bool JsonWriter::complete() const noexcept {
  return root_done_ && stack_.empty();
}

void JsonWriter::comma() {
  if (!has_items_.empty()) {
    if (has_items_.back()) os_ << ',';
    has_items_.back() = true;
  }
}

void JsonWriter::quoted(const std::string& s) {
  os_ << '"' << jsonEscape(s) << '"';
}

void JsonWriter::key(const std::string& k) {
  expectInside(Scope::kObject, "keyed entry");
  comma();
  quoted(k);
  os_ << ':';
}

void JsonWriter::expectInside(Scope scope, const char* what) {
  SSM_CHECK(!stack_.empty(), std::string(what) + " requires an open container");
  SSM_CHECK(stack_.back() == scope,
            std::string(what) + " used in the wrong container kind");
}

JsonWriter& JsonWriter::beginObject() {
  SSM_CHECK(!root_done_, "root already closed");
  if (!stack_.empty()) {
    expectInside(Scope::kArray, "unkeyed object");
    comma();
  }
  os_ << '{';
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::beginObject(const std::string& k) {
  key(k);
  os_ << '{';
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  expectInside(Scope::kObject, "endObject");
  os_ << '}';
  stack_.pop_back();
  has_items_.pop_back();
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  SSM_CHECK(!root_done_, "root already closed");
  if (!stack_.empty()) {
    expectInside(Scope::kArray, "unkeyed array");
    comma();
  }
  os_ << '[';
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::beginArray(const std::string& k) {
  key(k);
  os_ << '[';
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  expectInside(Scope::kArray, "endArray");
  os_ << ']';
  stack_.pop_back();
  has_items_.pop_back();
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& k, const std::string& v) {
  key(k);
  quoted(v);
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& k, const char* v) {
  return value(k, std::string(v));
}

JsonWriter& JsonWriter::value(const std::string& k, double v) {
  key(k);
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& k, std::int64_t v) {
  key(k);
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& k, std::uint64_t v) {
  key(k);
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& k, int v) {
  return value(k, static_cast<std::int64_t>(v));
}

JsonWriter& JsonWriter::value(const std::string& k, bool v) {
  key(k);
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  expectInside(Scope::kArray, "unkeyed string value");
  comma();
  quoted(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  expectInside(Scope::kArray, "unkeyed number value");
  comma();
  os_ << v;
  return *this;
}

}  // namespace ssm
