// wild5g/core: deterministic random number generation.
//
// Every stochastic component in the library draws from an explicitly threaded
// Rng so that campaigns, traces, and benchmarks are reproducible bit-for-bit
// from a seed. Components that need independent streams fork() a child rng.
//
// Portability: the raw bit stream is MT19937-64 — the word sequence the C++
// standard pins down for std::mt19937_64 — but this header generates it
// itself (seeding recurrence, 312-word block twist, tempering) instead of
// instantiating the standard engine. The std::*_distribution adaptors are only
// required to be *a* correct distribution — their output differs between
// libstdc++, libc++, and MSVC — so every distribution below is hand-rolled on
// top of the raw 64-bit stream as well: uniform doubles via the top 53 bits,
// integers via unbiased rejection sampling, normal via Box-Muller,
// exponential/lognormal via inverse transform, bernoulli via a single
// threshold compare. Golden baselines therefore depend on no standard
// library. Outside the test that checks this engine word for word against
// std::mt19937_64, nothing in the tree uses <random>; tools/wild5g_lint
// enforces that over src/, bench/, tools/ and examples/ (rule
// ban-raw-engine).
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <string>

#include "core/error.h"
#include "core/integer.h"

namespace wild5g {

/// Seeded pseudo-random source built on the MT19937-64 bit stream (the
/// words std::mt19937_64 yields for the same seed) with hand-rolled,
/// standard-library-independent distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : index_(kWords), seed_(seed) {
    // The standard's seeding recurrence; the first draw twists the block.
    words_[0] = seed;
    for (std::size_t i = 1; i < kWords; ++i) {
      const std::uint64_t prev = words_[i - 1];
      words_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
    }
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    WILD5G_REQUIRE(lo <= hi, "Rng::uniform: lo > hi");
    const double x = lo + unit() * (hi - lo);
    // Rounding at the top of the range can land exactly on hi; nudge back
    // inside so the half-open contract holds (nextafter(hi, lo) == lo when
    // the interval is empty).
    return x < hi ? x : std::nextafter(hi, lo);
  }

  /// Uniform integer in [lo, hi] inclusive. Unbiased: draws are rejected
  /// (deterministically, as part of the stream) rather than folded with a
  /// biased modulo.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    WILD5G_REQUIRE(lo <= hi, "Rng::uniform_int: lo > hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1u;
    std::uint64_t r = next_u64();
    if (span != 0) {  // span == 0 means the full 64-bit range: accept any r.
      const std::uint64_t reject_below =
          (std::numeric_limits<std::uint64_t>::max() % span + 1u) % span;
      if (reject_below != 0) {
        // Accept r in [0, 2^64 - (2^64 mod span)); that window holds an exact
        // multiple of span values, so `r % span` is uniform.
        const std::uint64_t limit = 0u - reject_below;
        while (r >= limit) r = next_u64();
      }
      r %= span;
    }
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + r);
  }

  /// Gaussian with the given mean and standard deviation (Box-Muller; two
  /// uniform draws per variate, no cached spare, so the stream position is a
  /// pure function of the call count).
  double normal(double mean, double stddev) {
    const double u1 = 1.0 - unit();  // (0, 1]: keeps the log finite.
    const double u2 = unit();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * radius * std::cos(2.0 * std::numbers::pi * u2);
  }

  /// Log-normal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Exponential with the given mean (= 1/rate), via inverse transform.
  double exponential(double mean) {
    WILD5G_REQUIRE(mean > 0.0, "Rng::exponential: mean must be positive");
    return -mean * std::log(1.0 - unit());
  }

  /// True with probability p. Consumes exactly one draw either way.
  bool bernoulli(double p) { return unit() < p; }

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    WILD5G_REQUIRE(!items.empty(), "Rng::pick: empty span");
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  /// Derives an independent child stream; deterministic in (seed, salt).
  /// Note fork() depends on the *construction seed*, not the stream
  /// position: forking the same salt from the same Rng twice yields
  /// identical children. Campaign loops that fork one child per task index
  /// should fork from a split() of their parent so that successive
  /// campaigns on one Rng get distinct substream families.
  [[nodiscard]] Rng fork(std::uint64_t salt) const {
    // SplitMix64-style mix so nearby salts give uncorrelated streams.
    std::uint64_t z = seed_ + salt * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return Rng(z ^ (z >> 31));
  }

  /// Derives an independent child stream from the *current position* of
  /// this stream, advancing the parent by one draw. This is the parallel
  /// campaign primitive: split() once on the caller's thread, then
  /// fork(index) one substream per task, so every task's draws are a pure
  /// function of (parent state, task index) and never of scheduling order.
  [[nodiscard]] Rng split() {
    // Mix the raw draw (SplitMix64 finalizer) so the child seed is not a
    // raw engine word, keeping child streams uncorrelated with the parent.
    std::uint64_t z = next_u64() + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return Rng(z ^ (z >> 31));
  }

  /// Advances the stream exactly as `n` raw draws would (every distribution
  /// above consumes whole words: uniform/bernoulli one, normal two), leaving
  /// the same state and serialize_state() text, but only regenerates blocks
  /// instead of tempering each word. A copy taken before discard(n) replays
  /// the skipped words, which is how a long stream is rendered in
  /// stream-aligned chunks (power::WaveformSynthesizer's noise pass).
  void discard(std::uint64_t n) {
    while (n > 0) {
      if (index_ >= kWords) refill();
      const auto step = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, kWords - index_));
      index_ += step;
      n -= step;
    }
  }

  /// Serializes the full generator state (construction seed + engine
  /// position) as text: the seed, the 312 state words oldest first, then the
  /// index of the next word to temper, as decimal integers separated by
  /// single spaces. The same text libstdc++ writes for `seed << ' ' <<
  /// std::mt19937_64`, but owned here, so it depends on no standard library —
  /// the same property the hand-rolled distributions give the draw stream.
  /// Backs the campaign engine's checkpoint/resume: a deserialized Rng
  /// continues the exact draw sequence, and fork() children stay identical
  /// because the construction seed rides along.
  [[nodiscard]] std::string serialize_state() const {
    std::string out;
    out.reserve((kWords + 2) * 21);
    char buf[24];
    const auto append = [&](std::uint64_t value) {
      const auto res = std::to_chars(buf, buf + sizeof buf, value);
      out.append(buf, res.ptr);
    };
    append(seed_);
    for (const std::uint64_t word : words_) {
      out += ' ';
      append(word);
    }
    out += ' ';
    append(index_);
    return out;
  }

  /// Inverse of serialize_state(); throws wild5g::Error on malformed text
  /// (a missing or non-numeric field, an index above 312, trailing text).
  [[nodiscard]] static Rng deserialize_state(const std::string& text) {
    const char* pos = text.data();
    const char* const end = pos + text.size();
    const auto read = [&](std::uint64_t hi) {
      while (pos != end && is_space(*pos)) ++pos;
      const char* const start = pos;
      while (pos != end && !is_space(*pos)) ++pos;
      return integer_from_text<std::uint64_t>(
          {start, pos}, "Rng::deserialize_state: state field", 0, hi);
    };
    Rng rng(read(UINT64_MAX));
    for (std::uint64_t& word : rng.words_) word = read(UINT64_MAX);
    rng.index_ = static_cast<std::size_t>(read(kWords));
    while (pos != end && is_space(*pos)) ++pos;
    WILD5G_REQUIRE(pos == end, "Rng::deserialize_state: trailing text");
    return rng;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  // MT19937-64 parameters (the standard's std::mt19937_64).
  static constexpr std::size_t kWords = 312;  // n
  static constexpr std::size_t kShift = 156;  // m
  static constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ull;  // a
  static constexpr std::uint64_t kLowerMask = (1ull << 31) - 1;  // r = 31
  static constexpr std::uint64_t kUpperMask = ~kLowerMask;

  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }

  /// One twist step: the upper 33 bits of `hi`, the lower 31 bits of `lo`,
  /// and the word `m` places ahead (mod n). `0 - (y & 1)` is all ones when y is odd, so
  /// the matrix is applied without a branch.
  static std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                             std::uint64_t ahead) {
    const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
    return ahead ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  }

  /// Regenerates the whole 312-word block in one pass.
  void refill() {
    std::size_t k = 0;
    for (; k < kWords - kShift; ++k) {
      words_[k] = twist(words_[k], words_[k + 1], words_[k + kShift]);
    }
    for (; k < kWords - 1; ++k) {
      words_[k] =
          twist(words_[k], words_[k + 1], words_[k + kShift - kWords]);
    }
    words_[kWords - 1] =
        twist(words_[kWords - 1], words_[0], words_[kShift - 1]);
    index_ = 0;
  }

  /// Next raw 64-bit word of the MT19937-64 stream: one word tempered per
  /// call, the block regenerated every 312 calls.
  std::uint64_t next_u64() {
    if (index_ >= kWords) refill();
    std::uint64_t z = words_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

  /// Uniform double in [0, 1): top 53 bits scaled by 2^-53, so every value
  /// is exactly representable and the mapping is identical on every platform.
  double unit() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  std::array<std::uint64_t, kWords> words_;
  std::size_t index_;
  std::uint64_t seed_;
};

}  // namespace wild5g
