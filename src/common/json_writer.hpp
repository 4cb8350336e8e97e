// Minimal streaming JSON writer (no dependencies).
//
// The experiment harnesses export machine-readable results next to their
// console tables; downstream tooling (plotters, CI dashboards) should not
// have to parse ASCII tables. Writer API is nesting-checked: mismatched
// begin/end calls throw instead of emitting invalid JSON.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ssm {

class JsonWriter {
 public:
  /// Writes to `os`; the stream must outlive the writer.
  explicit JsonWriter(std::ostream& os);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  // Containers. Keyed overloads are for use inside objects, unkeyed inside
  // arrays (or as the root).
  JsonWriter& beginObject();
  JsonWriter& beginObject(const std::string& key);
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& beginArray(const std::string& key);
  JsonWriter& endArray();

  // Values.
  JsonWriter& value(const std::string& key, const std::string& v);
  JsonWriter& value(const std::string& key, const char* v);
  JsonWriter& value(const std::string& key, double v);
  JsonWriter& value(const std::string& key, std::int64_t v);
  JsonWriter& value(const std::string& key, std::uint64_t v);
  JsonWriter& value(const std::string& key, int v);
  JsonWriter& value(const std::string& key, bool v);
  JsonWriter& value(const std::string& v);  ///< string element in an array
  JsonWriter& value(double v);              ///< number element in an array

  /// True once the root container has been closed.
  [[nodiscard]] bool complete() const noexcept;

 private:
  enum class Scope { kObject, kArray };

  void comma();
  void key(const std::string& k);
  void raw(const std::string& s);
  void quoted(const std::string& s);
  void expectInside(Scope scope, const char* what);

  std::ostream& os_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;
  bool root_done_ = false;
};

/// Escapes a string per RFC 8259 (quotes, backslashes, control chars).
[[nodiscard]] std::string jsonEscape(const std::string& s);

}  // namespace ssm
