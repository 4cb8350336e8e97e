// Append-only native-endian byte serialization, shared by every binary
// image the repo writes (the .ssmtrace payload, the Gpu keyframe blobs
// embedded inside v3 traces).
//
// Each record lists its members once, in wire order, in a field function
// `fields(io, rec)`; the same list drives all three visitors:
//
//   ByteWriter  — encodes (`rec` is const);
//   ByteReader  — decodes in place, bounds-checked;
//   ByteCounter — sums the record's fixed-width bytes, the lower bound that
//                 byteSize() hands to ByteReader::count().
//
// The member's C++ type picks the wire width: bool is one byte (0/1);
// int32_t, int64_t, uint64_t and double are memcpy'd; a string is a u32
// length plus its bytes; a sequence visited with an element function is a
// u32 count plus its elements. Doubles keep their raw bit patterns, so round
// trips are exact (including NaN payloads); the format is native-endian and
// not meant for cross-endian archival. All read-side overruns throw
// DataError — a well-formed container can still front a mangled payload.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <ranges>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace ssm {

/// The scalar member types a field list may visit.
template <class T>
concept WireScalar =
    std::same_as<T, bool> || std::same_as<T, std::int32_t> ||
    std::same_as<T, std::int64_t> || std::same_as<T, std::uint64_t> ||
    std::same_as<T, double>;

/// Constrains a field function to one record type, const (encoding,
/// counting) or not (decoding).
template <class Rec, class T>
concept RecordOf = std::same_as<std::remove_const_t<Rec>, T>;

/// Element function for sequences of scalars.
inline constexpr auto kScalarField = [](auto& io, auto& v) { io(v); };

/// Counts a record's fixed-width bytes; strings and sequences count their
/// u32 prefix only.
struct ByteCounter {
  template <class T>
    requires WireScalar<T> || std::same_as<T, std::string>
  void operator()(const T& /*v*/) {
    if constexpr (std::same_as<T, bool>) {
      bytes += 1;
    } else if constexpr (WireScalar<T>) {
      bytes += sizeof(T);
    } else {
      bytes += sizeof(std::uint32_t);  // a string's length prefix
    }
  }
  template <class Seq, class Elem>
  void operator()(const Seq& /*seq*/, Elem /*elem*/) {
    bytes += sizeof(std::uint32_t);
  }
  std::size_t bytes = 0;
};

/// The fixed-width encoded size of one T under `visit(io, rec)`: a lower
/// bound on every T's encoding, used to bound decoded counts.
template <class T, class Visit>
[[nodiscard]] std::size_t byteSize(Visit visit) {
  ByteCounter n;
  const T rec = T();
  visit(n, rec);
  return n.bytes;
}

/// Runs `build` over decoded values. A validating constructor that rejects
/// them throws ContractError; bad bytes are an input problem, so it becomes
/// a DataError naming `what`.
template <class Build>
decltype(auto) constructDecoded(const char* what, Build&& build) {
  try {
    return std::forward<Build>(build)();
  } catch (const ContractError& e) {
    throw DataError(std::string(what) + " rejected: " + e.what());
  }
}

/// Append-only native-endian byte writer.
class ByteWriter {
 public:
  /// A count prefix.
  void u32(std::uint32_t v) { raw(&v, sizeof v); }

  template <WireScalar T>
  void operator()(const T& v) {
    if constexpr (std::same_as<T, bool>) {
      bytes_.push_back(static_cast<char>(v ? 1 : 0));
    } else {
      raw(&v, sizeof v);
    }
  }
  void operator()(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.append(s);
  }
  /// A u32 count, then `elem(*this, x)` for every element.
  template <std::ranges::sized_range Seq, class Elem>
  void operator()(const Seq& seq, Elem elem) {
    u32(static_cast<std::uint32_t>(std::ranges::size(seq)));
    for (const auto& x : seq) elem(*this, x);
  }

  [[nodiscard]] std::string take() { return std::move(bytes_); }

 private:
  void raw(const void* p, std::size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
  }
  std::string bytes_;
};

/// Bounds-checked reader; any overrun is a DataError.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  /// A count prefix.
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  /// Reads a u32 element count that sizes a reserve or a loop, rejecting it
  /// BEFORE any allocation when `count * min_elem_bytes` (a lower bound on
  /// each element's encoded size) exceeds the bytes left: a mangled count
  /// becomes a DataError instead of a bad_alloc.
  std::uint32_t count(std::size_t min_elem_bytes) {
    const std::uint32_t n = u32();
    if (static_cast<std::uint64_t>(n) * min_elem_bytes > remaining())
      throw DataError("SSMTRACE payload count exceeds the bytes remaining");
    return n;
  }

  template <WireScalar T>
  void operator()(T& v) {
    if constexpr (std::same_as<T, bool>) {
      std::uint8_t b = 0;
      raw(&b, sizeof b);
      v = b != 0;
    } else {
      raw(&v, sizeof v);
    }
  }
  void operator()(std::string& s) {
    const std::uint32_t n = u32();
    if (remaining() < n)
      throw DataError("SSMTRACE payload truncated inside a string field");
    s.assign(bytes_.substr(pos_, n));
    pos_ += n;
  }
  /// A count bounded by the element's byteSize, then `elem(*this, x)` for
  /// every element.
  template <class T, class Elem>
  void operator()(std::vector<T>& seq, Elem elem) {
    seq.resize(count(byteSize<T>(elem)));
    for (T& x : seq) elem(*this, x);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  void raw(void* p, std::size_t n) {
    if (remaining() < n)
      throw DataError("SSMTRACE payload truncated inside a scalar field");
    std::memcpy(p, bytes_.data() + pos_, n);
    pos_ += n;
  }
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace ssm
