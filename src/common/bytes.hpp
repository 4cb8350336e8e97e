// Append-only native-endian byte serialization, shared by every binary
// image the repo writes (the .ssmtrace payload, the Gpu keyframe blobs
// embedded inside v3 traces).
//
// Promoted from the anonymous namespace of engine/trace_io.cpp so the
// gpusim snapshot code can serialize a Gpu without depending on the engine
// layer. Doubles are memcpy'd raw bit patterns, so round trips are exact
// (including NaN payloads); the format is native-endian and not meant for
// cross-endian archival. All read-side overruns throw DataError — a
// well-formed container can still front a mangled payload.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.hpp"

namespace ssm {

/// Append-only native-endian byte writer for the payload.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.append(s.data(), s.size());
  }
  [[nodiscard]] std::string take() { return std::move(bytes_); }

 private:
  void raw(const void* p, std::size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
  }
  std::string bytes_;
};

/// Bounds-checked reader over the payload; any overrun is a DataError
/// (a well-formed header can still front a mangled payload).
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (bytes_.size() - pos_ < n)
      throw DataError("SSMTRACE payload truncated inside a string field");
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  /// Reads a u32 element count that sizes a reserve or a loop, rejecting it
  /// BEFORE any allocation when `count * min_elem_bytes` (a lower bound on
  /// each element's encoded size) exceeds the bytes left: a mangled count
  /// becomes a DataError instead of a bad_alloc.
  std::uint32_t count(std::size_t min_elem_bytes) {
    const std::uint32_t n = u32();
    if (static_cast<std::uint64_t>(n) * min_elem_bytes > bytes_.size() - pos_)
      throw DataError("SSMTRACE payload count exceeds the bytes remaining");
    return n;
  }
  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

 private:
  void raw(void* p, std::size_t n) {
    if (bytes_.size() - pos_ < n)
      throw DataError("SSMTRACE payload truncated inside a scalar field");
    std::memcpy(p, bytes_.data() + pos_, n);
    pos_ += n;
  }
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace ssm
