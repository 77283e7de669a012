// wild5g/core: the one integer reader at the input boundary (DESIGN.md §7).
// Every integer from outside the process is read here, into an explicit
// [lo, hi]. Text must be decimal digits only: a '-' only when lo < 0, no
// '+', no whitespace, nothing after the digits. A JSON number must be finite
// and integral, and its range, inside ±2^53, is checked on the double before
// any cast. A refusal throws wild5g::Error naming the field and the range.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "core/error.h"
#include "core/json.h"

namespace wild5g {

/// 2^53: a double holds every integer up to this magnitude exactly.
inline constexpr std::int64_t kJsonIntegerMax = std::int64_t{1} << 53;

namespace detail {
template <std::integral T>
std::string integer_range_message(std::string_view field, T lo, T hi) {
  return std::string(field) + " must be an integer in [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]";
}
}  // namespace detail

/// Reads all of `text` as an integer in [lo, hi].
template <std::integral T>
[[nodiscard]] T integer_from_text(std::string_view text, std::string_view field,
                                  T lo, T hi) {
  const char* const end = text.data() + text.size();
  T value{};
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if ((!text.empty() && text.front() == '-' && std::cmp_greater_equal(lo, 0)) ||
      error != std::errc() || stop != end || value < lo || value > hi) {
    throw Error(detail::integer_range_message(field, lo, hi) + ", got '" +
                std::string(text) + "'");
  }
  return value;
}

/// Reads `value` as a JSON number holding an integer in [lo, hi], a range
/// inside ±2^53. NaN and the infinities fail the range check.
template <std::integral T>
[[nodiscard]] T integer_from_json(const json::Value& value,
                                  std::string_view field, T lo, T hi) {
  WILD5G_REQUIRE(std::cmp_greater_equal(lo, -kJsonIntegerMax) && lo <= hi &&
                     std::cmp_less_equal(hi, kJsonIntegerMax),
                 "integer_from_json: range beyond 2^53 for " +
                     std::string(field));
  const double x = value.is_number() ? value.as_number() : NAN;
  if (!(x >= static_cast<double>(lo) && x <= static_cast<double>(hi)) ||
      x != std::floor(x)) {
    throw Error(detail::integer_range_message(field, lo, hi));
  }
  return static_cast<T>(x);
}

}  // namespace wild5g
