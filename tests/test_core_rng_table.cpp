// Tests for the deterministic RNG, units helpers, and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/table.h"
#include "core/units.h"

using wild5g::Rng;
using wild5g::Table;

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(5);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(99);
  Rng child1 = parent.fork(1);
  Rng child1_again = Rng(99).fork(1);
  Rng child2 = parent.fork(2);
  EXPECT_DOUBLE_EQ(child1.uniform(0.0, 1.0), child1_again.uniform(0.0, 1.0));
  // Nearby salts should not produce identical streams.
  Rng c1 = Rng(99).fork(1);
  Rng c2 = Rng(99).fork(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (c1.uniform(0.0, 1.0) != c2.uniform(0.0, 1.0)) differ = true;
  }
  EXPECT_TRUE(differ);
  (void)child2;
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, PickRejectsEmpty) {
  Rng rng(9);
  std::vector<int> empty;
  EXPECT_THROW((void)rng.pick(std::span<const int>(empty)), wild5g::Error);
}

// ---- MT19937-64 exactness: std::mt19937_64 is the oracle ------------------
//
// Rng generates the MT19937-64 stream itself; these tests pin it word for
// word to the standard engine, and its state text to libstdc++'s
// `seed << ' ' << engine` format, so goldens and checkpoints stay
// byte-identical to those written while Rng wrapped the standard engine.

namespace {

// wild5g-lint: allow(ban-raw-engine) the standard engine is the test oracle for Rng's own MT19937-64
using StdEngine = std::mt19937_64;

// uniform_int over the full int64 range returns the raw word offset by
// 2^63 (no rejection, no folding), so the public API exposes the stream.
std::uint64_t raw_word(Rng& rng) {
  const std::int64_t v = rng.uniform_int(
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max());
  return static_cast<std::uint64_t>(v) ^ (std::uint64_t{1} << 63);
}

std::uint64_t seed_of(const Rng& rng) {
  const std::string text = rng.serialize_state();
  return std::stoull(text.substr(0, text.find(' ')));
}

std::string std_state(std::uint64_t seed, const StdEngine& engine) {
  std::ostringstream out;
  out << seed << ' ' << engine;
  return out.str();
}

// Five blocks: the first twist plus four refills.
constexpr int kWordsChecked = 5 * 312 + 7;

void expect_same_words(Rng& rng, StdEngine& oracle, int count) {
  for (int i = 0; i < count; ++i) {
    const std::uint64_t want = oracle();
    ASSERT_EQ(raw_word(rng), want) << "word " << i;
  }
}

}  // namespace

TEST(RngEngine, MatchesStdMt19937_64WordForWord) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{20210823},
        std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    StdEngine oracle(seed);
    expect_same_words(rng, oracle, kWordsChecked);
  }
}

TEST(RngEngine, ForkAndSplitChildrenMatchStdMt19937_64) {
  const Rng parent(20210823);
  Rng forked = parent.fork(7);
  StdEngine fork_oracle(seed_of(forked));
  expect_same_words(forked, fork_oracle, kWordsChecked);

  Rng splitter(20210823);
  StdEngine parent_oracle(20210823);
  Rng child = splitter.split();
  parent_oracle();  // split() advances the parent by one word.
  StdEngine child_oracle(seed_of(child));
  expect_same_words(child, child_oracle, kWordsChecked);
  expect_same_words(splitter, parent_oracle, kWordsChecked);
}

TEST(RngEngine, StateTextMatchesStdFormat) {
  for (const std::uint64_t seed :
       {std::uint64_t{1}, std::uint64_t{20210823},
        std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    StdEngine oracle(seed);
    // Fresh (index 312, block not yet twisted), inside a block, exactly at
    // the end of a block (index 312 again), and inside the next block.
    EXPECT_EQ(rng.serialize_state(), std_state(seed, oracle));
    expect_same_words(rng, oracle, 100);
    EXPECT_EQ(rng.serialize_state(), std_state(seed, oracle));
    expect_same_words(rng, oracle, 212);
    EXPECT_EQ(rng.serialize_state(), std_state(seed, oracle));
    expect_same_words(rng, oracle, 1);
    EXPECT_EQ(rng.serialize_state(), std_state(seed, oracle));
  }
}

TEST(RngEngine, StdStateTextDeserializesAndContinues) {
  StdEngine oracle(20210827);
  for (int i = 0; i < 500; ++i) oracle();
  Rng rng = Rng::deserialize_state(std_state(20210827, oracle));
  expect_same_words(rng, oracle, kWordsChecked);
  EXPECT_EQ(rng.serialize_state(), std_state(20210827, oracle));
}

TEST(RngEngine, DiscardMatchesDrawingEachWord) {
  // discard(n) must leave exactly the state n draws leave: same text, same
  // next word. Sizes straddle the 312-word block and the ~1.2M words of a
  // 300k-tick noise pass; starts are a fresh stream (index 312, untwisted),
  // mid-block, and exactly at a block end.
  for (const std::uint64_t n : {0, 1, 311, 312, 313, 1200004}) {
    for (const int start : {0, 100, 312}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " start=" + std::to_string(start));
      Rng drawn(20210823);
      Rng skipped(20210823);
      for (int i = 0; i < start; ++i) {
        (void)raw_word(drawn);
        (void)raw_word(skipped);
      }
      for (std::uint64_t i = 0; i < n; ++i) (void)raw_word(drawn);
      skipped.discard(n);
      EXPECT_EQ(skipped.serialize_state(), drawn.serialize_state());
      EXPECT_EQ(raw_word(skipped), raw_word(drawn));
      EXPECT_EQ(skipped.serialize_state(), drawn.serialize_state());
    }
  }
}

TEST(RngEngine, IndexZeroStateMatchesStd) {
  // Index 0 never appears after a draw (the twist and the first temper
  // happen in one call), but it is valid text: the next draw tempers word 0
  // of the stored block without regenerating it.
  StdEngine source(5);
  for (int i = 0; i < 312; ++i) source();
  std::string text = std_state(5, source);
  text = text.substr(0, text.rfind(' ')) + " 0";
  std::istringstream in(text);
  std::uint64_t seed = 0;
  StdEngine oracle;
  in >> seed >> oracle;
  ASSERT_FALSE(in.fail());
  Rng rng = Rng::deserialize_state(text);
  EXPECT_EQ(rng.serialize_state(), std_state(5, oracle));
  expect_same_words(rng, oracle, kWordsChecked);
}

TEST(RngEngine, SizeHasNotGrown) {
  // Metro keeps one Rng per UE: the state stays the standard engine's 312
  // words plus index, and the construction seed.
  EXPECT_LE(sizeof(Rng), sizeof(StdEngine) + sizeof(std::uint64_t));
}

TEST(RngEngine, DeserializeRejectsMalformedText) {
  const std::string good = Rng(11).serialize_state();
  const std::string words = good.substr(0, good.rfind(' '));
  std::string non_numeric = good;
  non_numeric.replace(good.find(' ') + 1, 1, "x");
  const std::vector<std::string> corpus = {
      "",
      "   ",
      "11",                                     // seed only
      good.substr(0, good.size() / 2),          // truncated word list
      words,                                    // index missing
      non_numeric,                              // non-numeric word
      words + " 313",                           // index one past the state
      words + " 18446744073709551615",          // index far past the state
      words + " 18446744073709551616",          // index overflows 64 bits
      words + " -1",                            // negative index
      words + " 12x",                           // garbage glued to the index
      good + " 0",                              // trailing field
      "-11" + good.substr(good.find(' ')),      // negative seed
  };
  for (const std::string& text : corpus) {
    SCOPED_TRACE(text.substr(0, 40));
    EXPECT_THROW((void)Rng::deserialize_state(text), wild5g::Error);
  }
  // The edges stay valid: index 312 (fresh) and surrounding whitespace.
  EXPECT_NO_THROW((void)Rng::deserialize_state(words + " 312"));
  EXPECT_NO_THROW((void)Rng::deserialize_state("\n " + good + " \n"));
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(wild5g::mbps_to_bps(1.5), 1.5e6);
  EXPECT_DOUBLE_EQ(wild5g::bps_to_mbps(2e6), 2.0);
  EXPECT_DOUBLE_EQ(wild5g::mw_to_w(1500.0), 1.5);
  EXPECT_DOUBLE_EQ(wild5g::w_to_mw(2.0), 2000.0);
  EXPECT_DOUBLE_EQ(wild5g::ms_to_s(250.0), 0.25);
  EXPECT_DOUBLE_EQ(wild5g::s_to_ms(0.5), 500.0);
  EXPECT_DOUBLE_EQ(wild5g::km_to_m(1.2), 1200.0);
  EXPECT_DOUBLE_EQ(wild5g::m_to_km(500.0), 0.5);
}

TEST(Table, RendersHeaderAndRows) {
  Table table("Demo");
  table.set_header({"a", "b"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, ArityMismatchThrows) {
  Table table("Demo");
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), wild5g::Error);
}

TEST(Table, RowBeforeHeaderThrows) {
  Table table("Demo");
  EXPECT_THROW(table.add_row({"x"}), wild5g::Error);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table table("Demo");
  table.set_header({"name", "value"});
  table.add_row({"a,b", "say \"hi\""});
  std::ostringstream os;
  table.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumFormatsDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}
