// Fixture: hand-rolled integer parsing outside the core reader must trip
// integer-parse, and only that rule. Never compiled; this file exists only
// as wild5g_lint input (see test_lint_fixtures.cpp).
#include <charconv>
#include <cstdlib>
#include <string>

namespace {

unsigned long long seed_arg(const char* text) {
  return std::stoull(text);  // BAD: accepts " 5" and "+5"
}

long budget_env(const char* text) {
  return std::atol(text);  // BAD: "abc" reads as 0
}

long hex_flag(const char* text) {
  return strtol(text, nullptr, 0);  // BAD: no range, any base
}

int count_flag(const std::string& text) {
  int value = 0;
  // BAD: a strict parse, but one more rule set to keep in step
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

}  // namespace
