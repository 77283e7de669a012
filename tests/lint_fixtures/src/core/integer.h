// Fixture: the core reader's own file is the one place integer text may be
// parsed, so integer-parse must stay silent here.
#pragma once

#include <charconv>
#include <string_view>

namespace wild5g {

inline long read_digits(std::string_view text) {
  long value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

}  // namespace wild5g
