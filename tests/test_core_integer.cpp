// The core integer reader (core/integer.h): every integer input crosses it,
// so its two entry points are pinned here at each range edge (lo - 1, lo,
// hi, hi + 1) for int, std::size_t and std::uint64_t, and on every text and
// JSON shape the rule set refuses. Each input runs as its own named case.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>

#include "core/error.h"
#include "core/integer.h"
#include "core/json.h"

namespace {

using namespace wild5g;

constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr auto kJsonMax = static_cast<std::uint64_t>(kJsonIntegerMax);

/// One reader call: `read` returns the value read, as decimal text, or
/// throws wild5g::Error. `expected` is that text, or nullptr when the input
/// must be refused.
struct ReadCase {
  const char* name;
  std::function<std::string()> read;
  const char* expected;
};

// Names the case in test listings instead of dumping its bytes.
void PrintTo(const ReadCase& c, std::ostream* os) { *os << c.name; }

template <typename T>
std::function<std::string()> text(const char* input, T lo, T hi) {
  return [=] {
    return std::to_string(integer_from_text<T>(input, "field", lo, hi));
  };
}

template <typename T>
std::function<std::string()> number(json::Value input, T lo, T hi) {
  return [=] {
    return std::to_string(integer_from_json<T>(input, "field", lo, hi));
  };
}

const ReadCase kCases[] = {
    // Text, at the edges of a small signed range and of the type.
    {"text_int_below_lo", text<int>("-6", -5, 7), nullptr},
    {"text_int_at_lo", text<int>("-5", -5, 7), "-5"},
    {"text_int_at_hi", text<int>("7", -5, 7), "7"},
    {"text_int_above_hi", text<int>("8", -5, 7), nullptr},
    {"text_int_below_type_min", text<int>("-2147483649", INT_MIN, INT_MAX),
     nullptr},
    {"text_int_at_type_min", text<int>("-2147483648", INT_MIN, INT_MAX),
     "-2147483648"},
    {"text_int_at_type_max", text<int>("2147483647", INT_MIN, INT_MAX),
     "2147483647"},
    {"text_int_above_type_max", text<int>("2147483648", INT_MIN, INT_MAX),
     nullptr},
    {"text_size_t_below_lo", text<std::size_t>("0", 1, 256), nullptr},
    {"text_size_t_at_lo", text<std::size_t>("1", 1, 256), "1"},
    {"text_size_t_at_hi", text<std::size_t>("256", 1, 256), "256"},
    {"text_size_t_above_hi", text<std::size_t>("257", 1, 256), nullptr},
    {"text_uint64_below_lo", text<std::uint64_t>("-1", 0, kU64Max), nullptr},
    {"text_uint64_at_lo", text<std::uint64_t>("0", 0, kU64Max), "0"},
    {"text_uint64_at_hi",
     text<std::uint64_t>("18446744073709551615", 0, kU64Max),
     "18446744073709551615"},
    {"text_uint64_above_hi",
     text<std::uint64_t>("18446744073709551616", 0, kU64Max), nullptr},
    // Text shapes: digits only, a '-' only in a signed range.
    {"text_plus_sign", text<int>("+5", 0, 9), nullptr},
    {"text_leading_space", text<int>(" 5", 0, 9), nullptr},
    {"text_trailing_space", text<int>("5 ", 0, 9), nullptr},
    {"text_empty", text<int>("", 0, 9), nullptr},
    {"text_minus_zero_in_unsigned_range", text<int>("-0", 0, 9), nullptr},
    {"text_minus_zero_in_signed_range", text<int>("-0", -9, 9), "0"},
    {"text_hex", text<int>("0x4", 0, 9), nullptr},
    {"text_exponent", text<int>("1e3", 0, 5000), nullptr},
    {"text_fraction", text<int>("2.5", 0, 9), nullptr},
    {"text_lone_minus", text<int>("-", -9, 9), nullptr},
    {"text_leading_zeros", text<int>("007", 0, 9), "7"},
    // JSON numbers, at the edges of ranges up to 2^53.
    {"json_int_below_lo", number<int>(0, 1, 1'000'000'000), nullptr},
    {"json_int_at_lo", number<int>(1, 1, 1'000'000'000), "1"},
    {"json_int_at_hi", number<int>(1e9, 1, 1'000'000'000), "1000000000"},
    {"json_int_above_hi", number<int>(1e9 + 1, 1, 1'000'000'000), nullptr},
    {"json_size_t_below_lo", number<std::size_t>(-1, 0, kJsonMax), nullptr},
    {"json_size_t_at_lo", number<std::size_t>(0, 0, kJsonMax), "0"},
    {"json_size_t_at_hi", number<std::size_t>(0x1p53, 0, kJsonMax),
     "9007199254740992"},
    // 2^53 + 1 has no double; 2^53 + 2 is the next one.
    {"json_size_t_above_hi", number<std::size_t>(0x1p53 + 2, 0, kJsonMax),
     nullptr},
    {"json_uint64_below_lo", number<std::uint64_t>(-1, 0, kJsonMax - 1),
     nullptr},
    {"json_uint64_at_lo", number<std::uint64_t>(0, 0, kJsonMax - 1), "0"},
    {"json_uint64_at_hi", number<std::uint64_t>(0x1p53 - 1, 0, kJsonMax - 1),
     "9007199254740991"},
    {"json_uint64_above_hi", number<std::uint64_t>(0x1p53, 0, kJsonMax - 1),
     nullptr},
    // JSON shapes: finite, integral, a number.
    {"json_fraction", number<int>(2.5, 0, 9), nullptr},
    {"json_negative_zero", number<int>(-0.0, 0, 9), "0"},
    {"json_1e30", number<std::uint64_t>(1e30, 0, kJsonMax), nullptr},
    {"json_minus_1e30", number<std::int64_t>(-1e30, -kJsonIntegerMax, 0),
     nullptr},
    {"json_infinity",
     number<std::uint64_t>(std::numeric_limits<double>::infinity(), 0,
                           kJsonMax),
     nullptr},
    {"json_nan",
     number<std::uint64_t>(std::numeric_limits<double>::quiet_NaN(), 0,
                           kJsonMax),
     nullptr},
    {"json_string", number<int>("5", 0, 9), nullptr},
    {"json_null", number<int>(nullptr, 0, 9), nullptr},
    {"json_bool", number<int>(true, 0, 9), nullptr},
    // A range past 2^53 is a caller bug, refused before any value is read.
    {"json_range_above_2_pow_53", number<std::uint64_t>(1, 0, kU64Max),
     nullptr},
};

class IntegerReader : public ::testing::TestWithParam<ReadCase> {};

TEST_P(IntegerReader, ReadsOrRefuses) {
  const ReadCase& c = GetParam();
  if (c.expected != nullptr) {
    EXPECT_EQ(c.read(), c.expected);
  } else {
    EXPECT_THROW((void)c.read(), Error);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, IntegerReader, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<ReadCase>& info) {
      return std::string(info.param.name);
    });

TEST(IntegerReaderMessage, NamesTheFieldTheRangeAndTheText) {
  try {
    (void)integer_from_text<int>("+5", "--ues", 1, 9);
    FAIL() << "'+5' was accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "--ues must be an integer in [1, 9], got '+5'");
  }
  try {
    (void)integer_from_json<int>(json::Value(2.5), "snapshot: next_step", 0,
                                 9);
    FAIL() << "2.5 was accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "snapshot: next_step must be an integer in [0, 9]");
  }
}

}  // namespace
