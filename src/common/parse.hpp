// Strict text parsing shared by the spec grammars (--faults, --thermal,
// --traffic) and the CLI's numeric options.
//
// A token parses only when the WHOLE token is one number that fits the
// target type: no leading or trailing junk, no silent wrap or clamp on
// overflow, no sign on an unsigned target, and no NaN or infinity for
// doubles. Callers turn std::nullopt into a DataError naming the option.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace ssm {

template <class T>
[[nodiscard]] std::optional<T> parseNumber(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(value)) return std::nullopt;
  return value;
}

/// `text` without leading and trailing blanks and tabs.
[[nodiscard]] std::string_view trimBlanks(std::string_view text);

/// Splits `text` on `sep`; empty tokens are dropped.
[[nodiscard]] std::vector<std::string_view> splitNonEmpty(
    std::string_view text, char sep);

/// %.17g: the shortest printf form whose parse gives back the same double.
[[nodiscard]] std::string printDouble(double v);

}  // namespace ssm
