// wild5g-lint: source-level enforcement of the repo's determinism,
// unit-hygiene, and layering contracts.
//
// The golden-metrics harness (bench/golden/, tools/golden_check) only proves
// reproducibility if nothing in the tree can smuggle nondeterminism past the
// seeded wild5g::Rng streams — and only proves *correctness* if the doubles
// flowing into each figure carry the physical unit their name claims. This
// tool makes both contracts machine-checked: a hand-rolled tokenizer (no
// libclang dependency) feeds a semantic layer — a preprocessor-lite include
// graph and a cross-file function-signature index — and a rule engine runs
// over src/, bench/, tools/, and examples/, failing the build on violations.
//
// Rule families (see --list-rules, --rules-doc, docs/LINT_RULES.md):
//   determinism  ban-random-device, ban-c-rand, ban-wall-clock,
//                ban-raw-engine, unordered-iteration — nothing may bypass
//                the seeded wild5g::Rng streams or leak hash order into
//                emitted metrics.
//   units        unit-mismatch-assign, unit-mismatch-call,
//                unit-double-conversion — identifier suffixes from
//                src/core/units.h (_ms, _s, _mbps, _mw, ...) are treated as
//                static unit annotations: assignments and call-argument
//                bindings whose suffixes disagree must route through a
//                units.h conversion helper, and redundant conversions are
//                flagged.
//   layering     layering, include-cycle — the include DAG flows strictly
//                downward (src/core depends on nothing outside core, src/sim
//                sits below radio/net/abr/web, bench/ headers are never
//                included from src/) and cycles are findings.
//   hygiene      float-equality, printf-float, catch-swallow,
//                bench-sample-hoard, engine-blocking-call.
//   meta         allow-needs-justification, unknown-rule.
//
// Only rules no runtime gate can check live here. Parallel-Rng discipline,
// shared-state races, lock order, condition-variable waits, signal-handler
// safety, checkpoint/restore symmetry, and locks held across blocking calls
// are enforced by the test suites that run the code (the 1-vs-8-thread
// determinism gate, the TSan lane, the engine resume tests, the soak
// suite); DESIGN.md section 8 maps each to its gate.
//
// Suppression: a finding is waived by a directive comment — on the same line
// as the finding, or on its own line(s) directly above it — of the form
//     wild5g-lint: allow(<rule>) <non-empty justification>
// (in a // or /* */ comment). The directive covers its own line and the next
// line that contains code, so a multi-line justification comment still
// attaches to the statement below it. A directive without a justification,
// or naming an unknown rule, is itself reported (allow-needs-justification /
// unknown-rule); placeholder text that is not a well-formed rule identifier
// is ignored so documentation can mention the syntax.
//
// Output: one `file:line: rule: message` per finding (stable order; fix-it
// hints, where mechanical, follow on an indented line), a machine-readable
// document with --json, and/or a SARIF 2.1.0 log with --sarif <path> for
// GitHub code scanning. Exit 0 on a clean tree, 1 when any finding survives
// suppression, 2 on usage or I/O errors.
#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.h"

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule registry.

struct RuleInfo {
  std::string_view id;
  std::string_view family;
  std::string_view summary;
  std::string_view fixit;  // generic mechanical-fix hint; empty if contextual
};

constexpr std::array<RuleInfo, 17> kRules = {{
    {"ban-random-device", "determinism",
     "std::random_device is nondeterministic; seed a wild5g::Rng instead",
     ""},
    {"ban-c-rand", "determinism",
     "C PRNG family bypasses the seeded wild5g::Rng", ""},
    {"ban-wall-clock", "determinism",
     "wall-clock reads break bit-for-bit reproducibility; thread simulated "
     "time explicitly",
     ""},
    {"ban-raw-engine", "determinism",
     "raw <random> engines/distributions are implementation-defined outside "
     "src/core/rng.h; use the typed Rng API",
     ""},
    {"unordered-iteration", "determinism",
     "unordered container iteration order can leak into emitted metrics; "
     "iterate a sorted copy",
     ""},
    {"float-equality", "hygiene",
     "exact ==/!= against a floating-point literal; compare with a "
     "tolerance",
     ""},
    {"printf-float", "hygiene",
     "printf-style float formatting bypasses json::format_number's "
     "deterministic rendering",
     ""},
    {"catch-swallow", "hygiene",
     "catch (...) without rethrow/report hides failures; rethrow, store "
     "std::current_exception(), or log before recovering",
     ""},
    {"bench-sample-hoard", "hygiene",
     "bench or figure code hoards every sample in a vector just to call "
     "stats::percentile/median/p95 at the end; campaigns must stream "
     "samples through stats::SampleAccumulator",
     "accumulate into a stats::SampleAccumulator and query its "
     "percentile()/median()/p95() instead of sorting a hoarded vector"},
    {"engine-blocking-call", "hygiene",
     "blocking filesystem or sleep call inside src/engine compute-thread "
     "code; campaigns run on the service compute thread, so a blocking call "
     "stalls every queued campaign and defeats the watchdog — "
     "engine/snapshot.{h,cpp} is the sole sanctioned checkpoint writer",
     "move the I/O into engine/snapshot.cpp or hoist it to the supervising "
     "layer (bench_common.h, tools/wild5g_serve.cpp)"},
    {"unit-mismatch-assign", "units",
     "assignment or initialization whose unit suffixes disagree; route the "
     "value through a units.h conversion helper",
     "wrap the right-hand side in the wild5g:: conversion helper named in "
     "the finding"},
    {"unit-mismatch-call", "units",
     "call argument's unit suffix disagrees with the parameter's declared "
     "suffix; convert at the call site",
     "wrap the argument in the wild5g:: conversion helper named in the "
     "finding"},
    {"unit-double-conversion", "units",
     "redundant units.h conversion: the argument is already in the target "
     "unit, or an inverse pair cancels out",
     "drop the redundant conversion call(s)"},
    {"layering", "layering",
     "include edge violates the layer DAG (core at the bottom, sim below "
     "radio/net/abr/web, bench/ never included from src/)",
     ""},
    {"include-cycle", "layering",
     "include graph contains a cycle; the layer DAG must be acyclic", ""},
    {"allow-needs-justification", "meta",
     "wild5g-lint: allow(<rule>) requires a justification after the ')'", ""},
    {"unknown-rule", "meta",
     "allow(...) names a rule this linter does not define", ""},
}};

// Family display order for --rules-doc and --list-rules grouping.
constexpr std::array<std::string_view, 5> kFamilies = {
    "determinism", "units", "layering", "hygiene", "meta"};

bool is_known_rule(std::string_view id) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

int rule_index(std::string_view id) {
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    if (kRules[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string fixit;  // empty when no mechanical fix applies
};

// ---------------------------------------------------------------------------
// Preprocessing: phase-2 translation (line-splice removal). A backslash
// immediately followed by a newline joins physical lines *before* lexing, so
// a splice can neither hide a banned identifier from the token stream nor
// split a comment out of suppression scope. A per-character table maps each
// surviving character back to its original physical line for reporting.

struct Source {
  std::string text;       // spliced text
  std::vector<int> line;  // line[i] = 1-based physical line of text[i]
};

Source splice(const std::string& raw) {
  Source out;
  out.text.reserve(raw.size());
  out.line.reserve(raw.size());
  int line = 1;
  for (std::size_t i = 0; i < raw.size();) {
    if (raw[i] == '\\') {
      std::size_t j = i + 1;
      if (j < raw.size() && raw[j] == '\r') ++j;
      if (j < raw.size() && raw[j] == '\n') {
        ++line;
        i = j + 1;
        continue;
      }
    }
    out.text.push_back(raw[i]);
    out.line.push_back(line);
    if (raw[i] == '\n') ++line;
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer. Strings and comments never produce identifier tokens, so rule
// keywords inside literals or prose cannot trip rules; comments are kept
// (per line) for suppression directives, string literals are kept as tokens
// so printf-float can inspect format strings. Operates on the spliced text
// and reads line numbers from the Source table.

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct LexedFile {
  std::vector<Token> tokens;
  std::map<int, std::string> comments;  // line -> concatenated comment text
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

LexedFile lex(const Source& sf) {
  LexedFile out;
  const std::string& src = sf.text;
  const std::size_t n = src.size();
  auto line_at = [&](std::size_t pos) {
    if (n == 0) return 1;
    return sf.line[pos < n ? pos : n - 1];
  };
  std::size_t i = 0;

  auto note_comment = [&](std::size_t begin, std::size_t end) {
    const std::string text = src.substr(begin, end - begin);
    const int last = line_at(end > begin ? end - 1 : begin);
    for (int l = line_at(begin); l <= last; ++l) out.comments[l] += text;
  };

  auto lex_quoted = [&](char quote) {
    // Plain (non-raw) string or char literal with backslash escapes. Note
    // that splice() never joins "\\\n" inside a literal differently: a
    // backslash-newline in source is a splice everywhere, which matches the
    // standard's phase ordering.
    std::string text;
    ++i;  // opening quote
    while (i < n && src[i] != quote) {
      if (src[i] == '\\' && i + 1 < n) {
        text += src[i];
        text += src[i + 1];
        i += 2;
        continue;
      }
      text += src[i++];
    }
    if (i < n) ++i;  // closing quote
    return text;
  };

  while (i < n) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      note_comment(start, i);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t start = i;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) ++i;
      i = (i + 1 < n) ? i + 2 : n;
      note_comment(start, i);
      continue;
    }
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      std::string word = src.substr(start, i - start);
      // String-literal prefixes: R"...(raw)...", u8"...", L'...', etc.
      const bool raw = !word.empty() && word.back() == 'R';
      const bool prefix =
          word == "R" || word == "u8" || word == "u" || word == "L" ||
          word == "u8R" || word == "uR" || word == "LR" || word == "UR" ||
          word == "U";
      if (prefix && i < n && (src[i] == '"' || src[i] == '\'')) {
        const int at = line_at(start);
        if (raw && src[i] == '"') {
          ++i;  // opening quote
          std::string delim;
          while (i < n && src[i] != '(') delim += src[i++];
          const std::string closer = ")" + delim + "\"";
          const std::size_t body = (i < n) ? i + 1 : n;
          const std::size_t end = src.find(closer, body);
          std::string text = src.substr(
              body, (end == std::string::npos) ? n - body : end - body);
          i = (end == std::string::npos) ? n : end + closer.size();
          out.tokens.push_back({Token::Kind::kString, std::move(text), at});
        } else {
          const char quote = src[i];
          std::string text = lex_quoted(quote);
          out.tokens.push_back({quote == '"' ? Token::Kind::kString
                                             : Token::Kind::kChar,
                                std::move(text), at});
        }
        continue;
      }
      out.tokens.push_back(
          {Token::Kind::kIdent, std::move(word), line_at(start)});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])) != 0)) {
      const std::size_t start = i;
      while (i < n) {
        const char d = src[i];
        if (ident_char(d) || d == '.' || d == '\'') {
          // Exponent signs belong to the literal: 1e-3, 0x1p+4. Digit
          // separators (1'000) are consumed here, never as char literals.
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && i + 1 < n &&
              (src[i + 1] == '+' || src[i + 1] == '-')) {
            i += 2;
            continue;
          }
          ++i;
          continue;
        }
        break;
      }
      out.tokens.push_back(
          {Token::Kind::kNumber, src.substr(start, i - start), line_at(start)});
      continue;
    }
    if (c == '"' || c == '\'') {
      const int at = line_at(i);
      std::string text = lex_quoted(c);
      out.tokens.push_back(
          {c == '"' ? Token::Kind::kString : Token::Kind::kChar,
           std::move(text), at});
      continue;
    }
    // Punctuation; fuse the two-char operators the rules care about. '<' and
    // '>' stay single-char so template-argument balancing sees each bracket.
    static constexpr std::array<std::string_view, 12> kTwoChar = {
        "::", "->", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=",
        "/="};
    std::string text(1, c);
    if (i + 1 < n) {
      const std::string two{src[i], src[i + 1]};
      if (std::find(kTwoChar.begin(), kTwoChar.end(), two) != kTwoChar.end()) {
        text = two;
      }
    }
    const int at = line_at(i);
    i += text.size();
    out.tokens.push_back({Token::Kind::kPunct, std::move(text), at});
  }
  return out;
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Index of the token matching the opener at open_idx ("(", "[", "{", "<"),
/// scanning no further than end. kNpos when unbalanced.
std::size_t find_match(const std::vector<Token>& toks, std::size_t open_idx,
                       std::string_view open, std::string_view close,
                       std::size_t end) {
  int depth = 0;
  const std::size_t stop = std::min(end, toks.size());
  for (std::size_t j = open_idx; j < stop; ++j) {
    if (toks[j].kind != Token::Kind::kPunct) continue;
    if (toks[j].text == open) {
      ++depth;
    } else if (toks[j].text == close && --depth == 0) {
      return j;
    }
  }
  return kNpos;
}

bool next_is(const std::vector<Token>& toks, std::size_t i,
             std::string_view text) {
  return i + 1 < toks.size() && toks[i + 1].text == text;
}

// ---------------------------------------------------------------------------
// Suppression directives.

struct Allow {
  int line;
  std::string rule;
};

void collect_allows(const LexedFile& lexed, const std::string& file,
                    std::vector<Allow>& allows, std::vector<Finding>& meta) {
  std::set<std::pair<int, std::string>> seen;  // block comments span lines
  for (const auto& [line, text] : lexed.comments) {
    static const std::string kTag = "wild5g-lint: allow(";
    std::size_t pos = 0;
    while ((pos = text.find(kTag, pos)) != std::string::npos) {
      pos += kTag.size();
      const std::size_t close = text.find(')', pos);
      if (close == std::string::npos) break;
      const std::string rule = text.substr(pos, close - pos);
      // Only well-formed rule identifiers count as directive attempts;
      // placeholders in prose ("allow(<rule>)") are not directives.
      const bool plausible =
          !rule.empty() &&
          std::islower(static_cast<unsigned char>(rule.front())) != 0 &&
          std::all_of(rule.begin(), rule.end(), [](char ch) {
            return std::islower(static_cast<unsigned char>(ch)) != 0 ||
                   std::isdigit(static_cast<unsigned char>(ch)) != 0 ||
                   ch == '-';
          });
      if (!plausible) {
        pos = close;
        continue;
      }
      std::string rest = text.substr(close + 1);
      const auto last = rest.find_last_not_of(" \t*/-:");
      const auto first = rest.find_first_not_of(" \t*/-:");
      rest = (first == std::string::npos)
                 ? std::string{}
                 : rest.substr(first, last - first + 1);
      if (!seen.insert({line, rule + "|" + rest}).second) {
        pos = close;
        continue;
      }
      if (!is_known_rule(rule)) {
        meta.push_back({file, line, "unknown-rule",
                        "allow(" + rule + ") names a rule wild5g-lint does "
                        "not define (see --list-rules)",
                        {}});
      } else if (rest.empty()) {
        meta.push_back({file, line, "allow-needs-justification",
                        "allow(" + rule + ") must be followed by a "
                        "justification explaining why the construct is safe",
                        {}});
      } else {
        allows.push_back({line, rule});
      }
      pos = close;
    }
  }
}

/// A directive covers its own line (trailing-comment style) and the first
/// line at or after it that contains code, so a multi-line justification
/// comment still attaches to the statement below it.
bool suppressed(const std::vector<Allow>& allows,
                const std::set<int>& token_lines, const Finding& f) {
  return std::any_of(allows.begin(), allows.end(), [&](const Allow& a) {
    if (a.rule != f.rule) return false;
    if (a.line == f.line) return true;
    const auto next_code = token_lines.upper_bound(a.line);
    return next_code != token_lines.end() && *next_code == f.line;
  });
}

// ---------------------------------------------------------------------------
// Token-level rule implementations (the original wild5g-lint families).

bool is_float_literal(const std::string& t) {
  if (t.size() > 1 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
    return t.find('p') != std::string::npos || t.find('P') != std::string::npos;
  }
  if (t.find('.') != std::string::npos) return true;
  if (t.find('e') != std::string::npos || t.find('E') != std::string::npos) {
    return true;
  }
  const char suffix = t.empty() ? '\0' : t.back();
  return suffix == 'f' || suffix == 'F';
}

/// True when token i is a free-function-style use: not a member access, and
/// not qualified by a namespace other than std.
bool free_call_context(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return true;
  const std::string& prev = toks[i - 1].text;
  if (prev == "." || prev == "->") return false;
  if (prev == "::" && i >= 2 && toks[i - 2].text != "std") return false;
  return true;
}

struct FileContext {
  std::string display_path;  // as reported in findings
  bool is_rng_header = false;
  // includes core/json.h, bench_common.h or engine/figures/figure.h
  bool feeds_metrics = false;
  bool swallow_allowed = false;  // file is on the catch-swallow allow-list
  bool in_campaign_code = false;  // under bench/ or src/engine/figures/
};

void check_banned_idents(const std::vector<Token>& toks,
                         const FileContext& ctx,
                         std::vector<Finding>& out) {
  static const std::set<std::string> kCRand = {"rand", "srand", "rand_r",
                                              "drand48", "srand48", "lrand48"};
  static const std::set<std::string> kClockIdents = {
      "system_clock",   "steady_clock", "high_resolution_clock",
      "gettimeofday",   "clock_gettime", "timespec_get",
      "localtime",      "gmtime",        "mktime"};
  static const std::set<std::string> kClockCalls = {"time", "clock"};
  static const std::set<std::string> kEngines = {
      "mt19937",        "mt19937_64",    "minstd_rand",
      "minstd_rand0",   "ranlux24",      "ranlux24_base",
      "ranlux48",       "ranlux48_base", "knuth_b",
      "default_random_engine", "random_shuffle"};

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const std::string& id = toks[i].text;
    const int line = toks[i].line;

    if (id == "random_device") {
      out.push_back({ctx.display_path, line, "ban-random-device",
                     "std::random_device is nondeterministic; seed a "
                     "wild5g::Rng and fork() child streams instead",
                     {}});
      continue;
    }
    if (kCRand.count(id) != 0 && next_is(toks, i, "(") &&
        free_call_context(toks, i)) {
      out.push_back({ctx.display_path, line, "ban-c-rand",
                     "'" + id + "' bypasses the seeded wild5g::Rng; draw "
                     "from an explicitly threaded Rng instead",
                     {}});
      continue;
    }
    if (kClockIdents.count(id) != 0 ||
        (kClockCalls.count(id) != 0 && next_is(toks, i, "(") &&
         free_call_context(toks, i))) {
      out.push_back({ctx.display_path, line, "ban-wall-clock",
                     "wall-clock source '" + id + "' breaks bit-for-bit "
                     "reproducibility; thread simulated time explicitly",
                     {}});
      continue;
    }
    const bool distribution_like =
        id.size() > 13 &&
        id.compare(id.size() - 13, 13, "_distribution") == 0;
    if (!ctx.is_rng_header && (kEngines.count(id) != 0 || distribution_like)) {
      out.push_back({ctx.display_path, line, "ban-raw-engine",
                     "'" + id + "' constructs a raw <random> " +
                         (distribution_like ? "distribution" : "engine") +
                         " outside src/core/rng.h; its output is "
                         "implementation-defined — use the typed "
                         "wild5g::Rng API",
                     {}});
    }
  }
}

void check_float_equality(const std::vector<Token>& toks,
                          const FileContext& ctx,
                          std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct ||
        (toks[i].text != "==" && toks[i].text != "!=")) {
      continue;
    }
    const Token* lit = nullptr;
    if (i > 0 && toks[i - 1].kind == Token::Kind::kNumber &&
        is_float_literal(toks[i - 1].text)) {
      lit = &toks[i - 1];
    }
    if (lit == nullptr && i + 1 < toks.size() &&
        toks[i + 1].kind == Token::Kind::kNumber &&
        is_float_literal(toks[i + 1].text)) {
      lit = &toks[i + 1];
    }
    if (lit != nullptr) {
      out.push_back({ctx.display_path, toks[i].line, "float-equality",
                     "exact '" + toks[i].text + "' against floating-point "
                     "literal " + lit->text + "; compare with an explicit "
                     "tolerance (or justify via allow)",
                     {}});
    }
  }
}

void check_printf_float(const std::vector<Token>& toks, const FileContext& ctx,
                        std::vector<Finding>& out) {
  static const std::set<std::string> kPrintf = {
      "printf",  "fprintf",  "sprintf",  "snprintf",
      "vprintf", "vfprintf", "vsprintf", "vsnprintf", "dprintf"};

  auto has_float_conversion = [](const std::string& fmt) {
    for (std::size_t p = 0; p + 1 < fmt.size(); ++p) {
      if (fmt[p] != '%') continue;
      std::size_t q = p + 1;
      if (q < fmt.size() && fmt[q] == '%') {  // literal percent
        p = q;
        continue;
      }
      while (q < fmt.size() &&
             (std::isdigit(static_cast<unsigned char>(fmt[q])) != 0 ||
              fmt[q] == '#' || fmt[q] == '0' || fmt[q] == '-' ||
              fmt[q] == '+' || fmt[q] == ' ' || fmt[q] == '.' ||
              fmt[q] == '*' || fmt[q] == '\'' || fmt[q] == 'l' ||
              fmt[q] == 'h' || fmt[q] == 'L' || fmt[q] == 'z' ||
              fmt[q] == 'j' || fmt[q] == 't')) {
        ++q;
      }
      if (q < fmt.size()) {
        const char conv = fmt[q];
        if (conv == 'f' || conv == 'F' || conv == 'e' || conv == 'E' ||
            conv == 'g' || conv == 'G' || conv == 'a' || conv == 'A') {
          return true;
        }
      }
      p = q;
    }
    return false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        kPrintf.count(toks[i].text) == 0 || !next_is(toks, i, "(") ||
        !free_call_context(toks, i)) {
      continue;
    }
    int depth = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind == Token::Kind::kPunct) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")" && --depth == 0) break;
      }
      if (toks[j].kind == Token::Kind::kString &&
          has_float_conversion(toks[j].text)) {
        out.push_back({ctx.display_path, toks[i].line, "printf-float",
                       "'" + toks[i].text + "' formats a float directly; "
                       "route numbers through json::format_number / the "
                       "Table formatter so rendering stays deterministic",
                       {}});
        break;
      }
    }
  }
}

void check_catch_swallow(const std::vector<Token>& toks,
                         const FileContext& ctx,
                         std::vector<Finding>& out) {
  if (ctx.swallow_allowed) return;
  // Identifiers that count as handling the exception inside the catch body:
  // rethrowing it, capturing it as an exception_ptr, terminating, or writing
  // a diagnostic somewhere a caller or human will see.
  static const std::set<std::string> kHandles = {
      "throw",          "current_exception", "rethrow_exception",
      "rethrow_if_nested", "cerr",           "clog",
      "perror",         "fprintf",           "printf",
      "syslog",         "exit",              "_Exit",
      "quick_exit",     "abort",             "terminate"};
  for (std::size_t i = 0; i + 6 < toks.size(); ++i) {
    // The lexer emits the ellipsis parameter as three '.' punct tokens.
    if (toks[i].kind != Token::Kind::kIdent || toks[i].text != "catch" ||
        toks[i + 1].text != "(" || toks[i + 2].text != "." ||
        toks[i + 3].text != "." || toks[i + 4].text != "." ||
        toks[i + 5].text != ")" || toks[i + 6].text != "{") {
      continue;
    }
    int depth = 0;
    bool handled = false;
    for (std::size_t j = i + 6; j < toks.size(); ++j) {
      if (toks[j].kind == Token::Kind::kPunct) {
        if (toks[j].text == "{") ++depth;
        if (toks[j].text == "}" && --depth == 0) break;
      }
      if (toks[j].kind == Token::Kind::kIdent &&
          kHandles.count(toks[j].text) != 0) {
        handled = true;
        break;
      }
    }
    if (!handled) {
      out.push_back({ctx.display_path, toks[i].line, "catch-swallow",
                     "catch (...) swallows the exception without rethrowing, "
                     "storing std::current_exception(), or reporting it; a "
                     "silent failure here can mask a broken fault path — "
                     "handle it or justify via allow",
                     {}});
    }
  }
}

/// bench-sample-hoard: in bench/ and src/engine/figures/ (the figure
/// campaigns), calling the sort-on-query stats helpers (stats::percentile /
/// stats::median / stats::p95) means the campaign hoarded every sample in a
/// vector first. That pattern is O(n)
/// memory per metric and is exactly what stats::SampleAccumulator replaces;
/// flag the query site so new campaigns stream instead. Member calls
/// (acc.percentile(...)) are the sanctioned API and never match.
void check_sample_hoard(const std::vector<Token>& toks,
                        const FileContext& ctx,
                        std::vector<Finding>& out) {
  if (!ctx.in_campaign_code) return;
  static const std::set<std::string> kSortOnQuery = {"percentile", "median",
                                                     "p95"};
  for (std::size_t i = 2; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        kSortOnQuery.count(toks[i].text) == 0) {
      continue;
    }
    if (toks[i - 1].text != "::" || toks[i - 2].text != "stats") continue;
    if (!next_is(toks, i, "(")) continue;
    out.push_back({ctx.display_path, toks[i].line, "bench-sample-hoard",
                   "'stats::" + toks[i].text + "' in bench or figure code "
                   "implies a hoarded std::vector<double> of samples; stream "
                   "them through a stats::SampleAccumulator and query its " +
                       toks[i].text + "() instead",
                   {}});
  }
}

/// engine-blocking-call: src/engine/ code executes on the service compute
/// thread (wild5g_serve) or under a bench's supervision loop; a blocking
/// filesystem or sleep call there stalls every queued campaign and breaks
/// the watchdog's liveness assumptions. engine/snapshot.{h,cpp} is the one
/// sanctioned checkpoint writer; supervision sleeps and wall-clock waits
/// belong to the layer driving the engine (bench_common.h, wild5g_serve).
/// Clock reads are already covered by ban-wall-clock, so this rule only
/// names the filesystem, subprocess and sleep families.
void check_engine_blocking(const std::vector<Token>& toks,
                           const FileContext& ctx, const std::string& vpath,
                           std::vector<Finding>& out) {
  static const std::set<std::string> kBlocking = {
      "ifstream",  "ofstream",    "fstream", "fopen",     "freopen",
      "tmpfile",   "fread",       "fwrite",  "system",    "popen",
      "sleep_for", "sleep_until", "usleep",  "nanosleep"};
  if (vpath.rfind("src/engine/", 0) != 0) return;
  if (vpath == "src/engine/snapshot.h" ||
      vpath == "src/engine/snapshot.cpp") {
    return;
  }
  for (const auto& tok : toks) {
    if (tok.kind != Token::Kind::kIdent || kBlocking.count(tok.text) == 0) {
      continue;
    }
    out.push_back(
        {ctx.display_path, tok.line, "engine-blocking-call",
         "'" + tok.text + "' blocks the engine compute thread; src/engine "
         "must stay pure — checkpoint I/O belongs in engine/snapshot.cpp "
         "and supervision waits in the driving layer (bench_common.h, "
         "tools/wild5g_serve.cpp)",
         {}});
  }
}

void check_unordered_iteration(const std::vector<Token>& toks,
                               const FileContext& ctx,
                               std::vector<Finding>& out) {
  if (!ctx.feeds_metrics) return;
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};

  // Pass 1: names declared with an unordered type in this file.
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        kUnordered.count(toks[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") {
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Token::Kind::kIdent) {
      names.insert(toks[j].text);
    }
  }
  if (names.empty()) return;

  // Pass 2a: range-for whose range expression mentions a tracked name.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i].text != "for" ||
        !next_is(toks, i, "(")) {
      continue;
    }
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind != Token::Kind::kPunct) continue;
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (toks[j].text == ":" && depth == 1 && colon == 0) colon = j;
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == Token::Kind::kIdent &&
          names.count(toks[j].text) != 0) {
        out.push_back({ctx.display_path, toks[i].line, "unordered-iteration",
                       "range-for over unordered container '" + toks[j].text +
                           "' in a file that emits metrics; hash order is "
                           "nondeterministic across standard libraries — "
                           "iterate a sorted copy of the keys",
                       {}});
        break;
      }
    }
  }

  // Pass 2b: explicit iterator walks (x.begin() / x->cbegin() ...).
  static const std::set<std::string> kBegin = {"begin", "cbegin", "rbegin",
                                              "crbegin"};
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kIdent &&
        names.count(toks[i].text) != 0 &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        kBegin.count(toks[i + 2].text) != 0 && toks[i + 3].text == "(") {
      out.push_back({ctx.display_path, toks[i].line, "unordered-iteration",
                     "iterator walk over unordered container '" +
                         toks[i].text + "' in a file that emits metrics; "
                         "hash order is nondeterministic — iterate a sorted "
                         "copy of the keys",
                     {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Unit vocabulary. The suffixes and conversion helpers mirror
// src/core/units.h — a name's trailing `_<unit>` is treated as a static unit
// annotation, and the helpers are the only sanctioned way to move a value
// between units.

const std::set<std::string>& unit_suffixes() {
  static const std::set<std::string> kUnits = {
      "mbps", "bps", "ms", "s", "km", "m", "mw", "w", "j", "uj", "dbm",
      "mhz"};
  return kUnits;
}

struct Conversion {
  std::string from;
  std::string to;
};

const std::map<std::string, Conversion>& conversions() {
  static const std::map<std::string, Conversion> kConv = {
      {"mbps_to_bps", {"mbps", "bps"}}, {"bps_to_mbps", {"bps", "mbps"}},
      {"ms_to_s", {"ms", "s"}},         {"s_to_ms", {"s", "ms"}},
      {"km_to_m", {"km", "m"}},         {"m_to_km", {"m", "km"}},
      {"mw_to_w", {"mw", "w"}},         {"w_to_mw", {"w", "mw"}}};
  return kConv;
}

std::string conversion_between(const std::string& from,
                               const std::string& to) {
  for (const auto& [name, conv] : conversions()) {
    if (conv.from == from && conv.to == to) return name;
  }
  return {};
}

/// The unit a name carries, or "" when it carries none. The suffix after the
/// last underscore always counts (`rtt_ms` -> ms); a bare name counts only
/// when it is a multi-character unit word (`ms`, `km`, `mbps` — the units.h
/// helpers name their parameter after the unit), because single letters like
/// s/m/w/j are far too common as ordinary identifiers.
std::string unit_of(const std::string& name) {
  if (conversions().count(name) != 0) return {};
  const auto& units = unit_suffixes();
  const auto us = name.rfind('_');
  if (us != std::string::npos) {
    const std::string suffix = name.substr(us + 1);
    return units.count(suffix) != 0 ? suffix : std::string{};
  }
  if (name.size() >= 2 && units.count(name) != 0) return name;
  return {};
}

/// When [b, e) is `wild5g::<helper>(...)` or `<helper>(...)` spanning the
/// whole range, reports the helper name and argument span. Used both by unit
/// inference and by the double-conversion check.
bool is_conversion_call(const std::vector<Token>& toks, std::size_t b,
                        std::size_t e, std::string* name, std::size_t* arg_b,
                        std::size_t* arg_e) {
  std::size_t i = b;
  if (i + 1 < e && toks[i].text == "wild5g" && toks[i + 1].text == "::") {
    i += 2;
  }
  if (i >= e || toks[i].kind != Token::Kind::kIdent ||
      conversions().count(toks[i].text) == 0) {
    return false;
  }
  if (i + 1 >= e || toks[i + 1].text != "(") return false;
  const std::size_t close = find_match(toks, i + 1, "(", ")", e);
  if (close != e - 1) return false;
  *name = toks[i].text;
  *arg_b = i + 2;
  *arg_e = close;
  return true;
}

/// Conservative unit inference over an expression span [b, e). Only shapes
/// whose unit is unambiguous are resolved: a units.h conversion call yields
/// its target unit, static_cast is transparent, and a simple access chain
/// (x, obj.field_ms, arr[i].rtt_ms, ns::var_s) yields the unit of its last
/// component. Arithmetic, other calls, and anything else yield "" — silence
/// beats a false positive in a lint gate that fails the build.
std::string infer_unit(const std::vector<Token>& toks, std::size_t b,
                       std::size_t e) {
  while (b < e && toks[b].kind == Token::Kind::kPunct &&
         toks[b].text == "(" && find_match(toks, b, "(", ")", e) == e - 1) {
    ++b;
    --e;
  }
  if (b >= e) return {};
  if (toks[b].kind == Token::Kind::kIdent && toks[b].text == "static_cast" &&
      b + 1 < e && toks[b + 1].text == "<") {
    const std::size_t gt = find_match(toks, b + 1, "<", ">", e);
    if (gt != kNpos && gt + 1 < e && toks[gt + 1].text == "(") {
      const std::size_t close = find_match(toks, gt + 1, "(", ")", e);
      if (close == e - 1) return infer_unit(toks, gt + 2, close);
    }
    return {};
  }
  std::string conv;
  std::size_t ab = 0;
  std::size_t ae = 0;
  if (is_conversion_call(toks, b, e, &conv, &ab, &ae)) {
    return conversions().at(conv).to;
  }
  std::string last_ident;
  int bracket = 0;
  for (std::size_t j = b; j < e; ++j) {
    const Token& t = toks[j];
    if (t.kind == Token::Kind::kPunct) {
      if (t.text == "[") {
        ++bracket;
        continue;
      }
      if (t.text == "]") {
        --bracket;
        continue;
      }
      if (t.text == "." || t.text == "->" || t.text == "::") continue;
      return {};
    }
    if (t.kind == Token::Kind::kNumber) continue;
    if (t.kind != Token::Kind::kIdent) return {};
    if (bracket > 0) continue;
    // Two adjacent identifiers (a declaration, `const x`, ...) break the
    // access-chain shape.
    if (j > b && toks[j - 1].kind == Token::Kind::kIdent) return {};
    last_ident = t.text;
  }
  return last_ident.empty() ? std::string{} : unit_of(last_ident);
}

/// unit-mismatch-assign: `lhs_ms = rhs_s` (also +=, -=, and declaration
/// initializers, default arguments, designated initializers). Both sides
/// must resolve to a known unit for a finding; unknown shapes are skipped.
void check_unit_assign(const std::vector<Token>& toks, const FileContext& ctx,
                       std::vector<Finding>& out) {
  for (std::size_t i = 1; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    const std::string& op = toks[i].text;
    if (op != "=" && op != "+=" && op != "-=") continue;
    // LHS: identifier (possibly behind a balanced subscript) before the op.
    std::size_t l = i - 1;
    if (toks[l].kind == Token::Kind::kPunct && toks[l].text == "]") {
      int depth = 0;
      std::size_t j = l;
      bool matched = false;
      while (true) {
        if (toks[j].kind == Token::Kind::kPunct) {
          if (toks[j].text == "]") ++depth;
          if (toks[j].text == "[" && --depth == 0) {
            matched = true;
            break;
          }
        }
        if (j == 0) break;
        --j;
      }
      if (!matched || j == 0) continue;
      l = j - 1;
    }
    if (toks[l].kind != Token::Kind::kIdent) continue;
    const std::string lhs_unit = unit_of(toks[l].text);
    if (lhs_unit.empty()) continue;
    // RHS: up to the end of this initializer/statement at depth 0. The scan
    // is bounded — a unit either surfaces in a short span or not at all.
    std::size_t re = kNpos;
    const std::size_t cap = std::min(toks.size(), i + 1 + 64);
    int depth = 0;
    for (std::size_t j = i + 1; j < cap; ++j) {
      if (toks[j].kind != Token::Kind::kPunct) continue;
      const std::string& t = toks[j].text;
      if (t == "(" || t == "[" || t == "{") {
        ++depth;
      } else if (t == ")" || t == "]" || t == "}") {
        if (depth == 0) {
          re = j;
          break;
        }
        --depth;
      } else if (depth == 0 && (t == ";" || t == ",")) {
        re = j;
        break;
      }
    }
    if (re == kNpos || re == i + 1) continue;
    const std::string rhs_unit = infer_unit(toks, i + 1, re);
    if (rhs_unit.empty() || rhs_unit == lhs_unit) continue;
    Finding f{ctx.display_path, toks[i].line, "unit-mismatch-assign",
              "'" + toks[l].text + "' carries unit '" + lhs_unit +
                  "' but the right-hand side is in '" + rhs_unit + "'",
              {}};
    const std::string helper = conversion_between(rhs_unit, lhs_unit);
    if (!helper.empty()) {
      f.fixit = "wrap the right-hand side in wild5g::" + helper + "(...)";
    } else {
      f.message += "; no units.h helper converts " + rhs_unit + " to " +
                   lhs_unit + " — this looks like a dimensional error";
    }
    out.push_back(std::move(f));
  }
}

/// unit-double-conversion / unit-mismatch-call for the units.h helpers
/// themselves: `ms_to_s(x_s)` (already converted), `s_to_ms(ms_to_s(x))`
/// (round trip), `ms_to_s(x_km)` (wrong family).
void check_unit_conversion_calls(const std::vector<Token>& toks,
                                 const FileContext& ctx,
                                 std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        conversions().count(toks[i].text) == 0 || !next_is(toks, i, "(")) {
      continue;
    }
    const std::size_t close = find_match(toks, i + 1, "(", ")", toks.size());
    if (close == kNpos || close == i + 2) continue;
    const Conversion& conv = conversions().at(toks[i].text);
    const std::size_t ab = i + 2;
    const std::size_t ae = close;
    std::string inner;
    std::size_t ib = 0;
    std::size_t ie = 0;
    if (is_conversion_call(toks, ab, ae, &inner, &ib, &ie)) {
      const Conversion& ic = conversions().at(inner);
      if (ic.from == conv.to && ic.to == conv.from) {
        out.push_back(
            {ctx.display_path, toks[i].line, "unit-double-conversion",
             "'" + toks[i].text + "(" + inner + "(...))' converts " +
                 conv.from + "->" + conv.to + " right after " + ic.from +
                 "->" + ic.to + "; the round trip is an identity",
             "drop both conversion calls and use the inner argument "
             "directly"});
        continue;
      }
    }
    const std::string arg_unit = infer_unit(toks, ab, ae);
    if (arg_unit.empty()) continue;
    if (arg_unit == conv.to) {
      out.push_back(
          {ctx.display_path, toks[i].line, "unit-double-conversion",
           "argument of '" + toks[i].text + "' already carries the target "
               "unit '" + conv.to + "'; converting it again scales the "
               "value twice",
           "drop the " + toks[i].text + "(...) wrapper"});
    } else if (arg_unit != conv.from) {
      Finding f{ctx.display_path, toks[i].line, "unit-mismatch-call",
                "'" + toks[i].text + "' expects a value in '" + conv.from +
                    "' but the argument carries '" + arg_unit + "'",
                {}};
      const std::string helper = conversion_between(arg_unit, conv.from);
      if (!helper.empty()) {
        f.fixit = "convert the argument first: wild5g::" + helper + "(...)";
      }
      out.push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-file function-signature index: declarations whose parameters carry
// unit suffixes, keyed by (name, arity). Call sites anywhere in the scanned
// tree are then checked argument-by-argument against the declared units.
// Identification is deliberately conservative — a candidate must look like a
// declaration from three independent angles (token before the name, token
// after the parameter list, and every parameter chunk declaration-shaped) —
// because indexing a *call* as a signature would invert the check.

struct Signature {
  std::vector<std::string> units;  // one per parameter; "" = no unit
  std::vector<std::string> names;  // parameter names ("" when unnamed)
  bool poisoned = false;           // conflicting declarations share name+arity
};

// name -> arity -> signature
using SignatureIndex = std::map<std::string, std::map<int, Signature>>;

const std::set<std::string>& non_type_keywords() {
  static const std::set<std::string> kWords = {
      "return", "if",     "while",    "for",       "switch",  "case",
      "new",    "delete", "do",       "else",      "throw",   "goto",
      "sizeof", "co_await", "co_return", "co_yield", "and",   "or",
      "not",    "catch",  "decltype", "alignof",   "noexcept", "operator",
      "static_assert", "define", "include", "until"};
  return kWords;
}

/// Parses one parameter chunk [b, e). Declaration-shaped chunks look like
/// `type name`, `const type& name`, `std::vector<double> name`, `type` (no
/// name), or `...`; anything with arithmetic, strings, or numbers outside
/// template arguments disqualifies the whole candidate. On success reports
/// the parameter name ("" for type-only chunks — which therefore contribute
/// no unit, so a call like `f(x)` can never be indexed as a signature).
bool decl_chunk(const std::vector<Token>& toks, std::size_t b, std::size_t e,
                std::string* name, std::string* unit) {
  name->clear();
  unit->clear();
  // Cut a default-argument tail; its value is checked by unit-mismatch-assign.
  int angle = 0;
  std::size_t stop = e;
  for (std::size_t j = b; j < e; ++j) {
    if (toks[j].kind != Token::Kind::kPunct) continue;
    if (toks[j].text == "<") ++angle;
    if (toks[j].text == ">") --angle;
    if (toks[j].text == "=" && angle == 0) {
      stop = j;
      break;
    }
  }
  std::string last;
  std::size_t count = 0;
  angle = 0;
  for (std::size_t j = b; j < stop; ++j) {
    const Token& t = toks[j];
    ++count;
    if (t.kind == Token::Kind::kIdent) {
      if (angle == 0) last = t.text;
      continue;
    }
    if (t.kind == Token::Kind::kNumber) {
      if (angle == 0) return false;
      continue;
    }
    if (t.kind != Token::Kind::kPunct) return false;
    if (t.text == "<") {
      ++angle;
      continue;
    }
    if (t.text == ">") {
      --angle;
      continue;
    }
    if (t.text == "::" || t.text == "&" || t.text == "*" || t.text == "[" ||
        t.text == "]" || t.text == "&&" || t.text == ",") {
      continue;  // "," only occurs inside <...> after chunk splitting
    }
    if ((t.text == "(" || t.text == ")") && angle > 0) {
      // Function-type template argument (std::function<void(int)>): still
      // declaration-shaped. At angle 0 a paren means a call expression.
      continue;
    }
    if (t.text == ".") {
      // Only the variadic ellipsis is declaration-shaped; a member access
      // chain (config.timeout_s) marks the candidate as a call.
      if (stop - b == 3 && toks[b].text == "." && toks[b + 1].text == "." &&
          toks[b + 2].text == ".") {
        continue;
      }
      return false;
    }
    return false;
  }
  if (count >= 2 && !last.empty() &&
      non_type_keywords().count(last) == 0) {
    *name = last;
    *unit = unit_of(last);
  }
  return true;
}

/// Splits [b, e) at depth-0 commas (tracking (), [], {} — template commas in
/// parameter lists are rare and simply fail the arity match downstream).
std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& toks, std::size_t b, std::size_t e) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (b >= e) return chunks;
  int depth = 0;
  int angle = 0;
  std::size_t start = b;
  for (std::size_t j = b; j < e; ++j) {
    if (toks[j].kind != Token::Kind::kPunct) continue;
    const std::string& t = toks[j].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    if (t == ")" || t == "]" || t == "}") --depth;
    if (t == "<") ++angle;
    if (t == ">") angle = std::max(0, angle - 1);
    if (t == "," && depth == 0 && angle == 0) {
      chunks.emplace_back(start, j);
      start = j + 1;
    }
  }
  chunks.emplace_back(start, e);
  return chunks;
}

/// Scans a file for function declarations/definitions with >= 1 unit-suffixed
/// parameter and merges them into the index. Records the token index of each
/// signature name in decl_sites so the call check can skip the declaration
/// itself. The units.h conversion helpers are excluded — they get a dedicated
/// check with tighter semantics (double-conversion detection).
void collect_signatures(const std::vector<Token>& toks, SignatureIndex& index,
                        std::set<std::size_t>& decl_sites) {
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i + 1].text != "(") {
      continue;
    }
    const std::string& name = toks[i].text;
    if (non_type_keywords().count(name) != 0 ||
        conversions().count(name) != 0) {
      continue;
    }
    // Angle 1: the token before the name must be able to end a return type.
    // std::-qualified names are always library calls, never tree signatures.
    const Token& prev = toks[i - 1];
    const bool prev_ok =
        (prev.kind == Token::Kind::kIdent &&
         non_type_keywords().count(prev.text) == 0) ||
        (prev.kind == Token::Kind::kPunct &&
         (prev.text == "&" || prev.text == "*" || prev.text == ">" ||
          prev.text == "::"));
    if (!prev_ok) continue;
    if (prev.text == "::" && i >= 2 && toks[i - 2].text == "std") continue;
    const std::size_t close = find_match(toks, i + 1, "(", ")", toks.size());
    if (close == kNpos) continue;
    // Angle 2: the token after the parameter list must be declaration
    // punctuation, not an operator continuing an expression.
    if (close + 1 >= toks.size()) continue;
    const std::string& after = toks[close + 1].text;
    if (after != ";" && after != "{" && after != "const" &&
        after != "noexcept" && after != "override" && after != "final" &&
        after != "->" && after != "=") {
      continue;
    }
    // Angle 3: every parameter chunk must be declaration-shaped.
    Signature sig;
    bool shaped = true;
    bool any_unit = false;
    if (close > i + 2) {
      for (const auto& [cb, ce] : split_args(toks, i + 2, close)) {
        std::string pname;
        std::string punit;
        if (cb >= ce || !decl_chunk(toks, cb, ce, &pname, &punit)) {
          shaped = false;
          break;
        }
        sig.names.push_back(pname);
        sig.units.push_back(punit);
        any_unit = any_unit || !punit.empty();
      }
    }
    if (!shaped) continue;
    decl_sites.insert(i);
    if (!any_unit) continue;  // nothing to enforce; keep index small
    const int arity = static_cast<int>(sig.units.size());
    auto& slot = index[name];
    const auto it = slot.find(arity);
    if (it == slot.end()) {
      slot.emplace(arity, std::move(sig));
    } else if (it->second.units != sig.units) {
      it->second.poisoned = true;  // ambiguous overload set: stand down
    }
  }
}

/// unit-mismatch-call: arguments at every call site are checked against the
/// indexed parameter units. Only exact (name, arity) matches are enforced,
/// poisoned entries and declaration sites are skipped, and an argument only
/// counts when its own unit resolves.
void check_unit_calls(const std::vector<Token>& toks, const FileContext& ctx,
                      const SignatureIndex& index,
                      const std::set<std::size_t>& decl_sites,
                      std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i + 1].text != "(" ||
        decl_sites.count(i) != 0) {
      continue;
    }
    const auto slot = index.find(toks[i].text);
    if (slot == index.end()) continue;
    const std::size_t close = find_match(toks, i + 1, "(", ")", toks.size());
    if (close == kNpos) continue;
    const auto chunks =
        close > i + 2
            ? split_args(toks, i + 2, close)
            : std::vector<std::pair<std::size_t, std::size_t>>{};
    const auto sig_it = slot->second.find(static_cast<int>(chunks.size()));
    if (sig_it == slot->second.end() || sig_it->second.poisoned) continue;
    const Signature& sig = sig_it->second;
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      if (sig.units[k].empty()) continue;
      const std::string arg_unit =
          infer_unit(toks, chunks[k].first, chunks[k].second);
      if (arg_unit.empty() || arg_unit == sig.units[k]) continue;
      Finding f{ctx.display_path, toks[i].line, "unit-mismatch-call",
                "argument " + std::to_string(k + 1) + " of '" + toks[i].text +
                    "' carries '" + arg_unit + "' but parameter '" +
                    sig.names[k] + "' expects '" + sig.units[k] + "'",
                {}};
      const std::string helper = conversion_between(arg_unit, sig.units[k]);
      if (!helper.empty()) {
        f.fixit = "wrap the argument in wild5g::" + helper + "(...)";
      } else {
        f.message += "; no units.h helper converts " + arg_unit + " to " +
                     sig.units[k] + " — this looks like a dimensional error";
      }
      out.push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Layering. The include DAG over src/ modules must flow strictly downward:
// a module may include core, itself, and any module of strictly lower rank.
// The ranks encode the ISSUE constraints (core at the bottom, sim below
// radio/net/abr/web, bench/ never included from src/) and the current
// dependency structure of the tree: engine sits on top because its figure
// campaigns drive every substrate; adding an edge that violates them is a
// design decision that belongs in DESIGN.md, not an accident.

const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> kRanks = {
      {"core", 0},     {"geo", 1},       {"sim", 1},
      {"radio", 2},    {"ml", 2},        {"mobility", 2},
      {"transport", 2}, {"rrc", 3},      {"faults", 3},
      {"net", 4},      {"power", 4},     {"metro", 4},
      {"traces", 5},   {"abr", 6},       {"web", 6},
      {"engine", 7}};
  return kRanks;
}

struct IncludeRef {
  std::string target;  // the quoted include text, verbatim
  int line;
};

std::vector<IncludeRef> collect_includes(const std::vector<Token>& toks) {
  std::vector<IncludeRef> out;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kPunct && toks[i].text == "#" &&
        toks[i + 1].kind == Token::Kind::kIdent &&
        toks[i + 1].text == "include" &&
        toks[i + 2].kind == Token::Kind::kString &&
        toks[i + 2].line == toks[i].line) {
      out.push_back({toks[i + 2].text, toks[i].line});
    }
  }
  return out;
}

/// Repo-relative "virtual path" starting at the last src/bench/tools/
/// examples path component, so fixtures under tests/lint_fixtures/src/...
/// are laid out exactly like tree files. Empty when the file lives under
/// none of the lintable roots (layering does not apply there).
std::string virtual_path(const fs::path& path) {
  std::vector<std::string> parts;
  for (const auto& comp : path) parts.push_back(comp.generic_string());
  std::size_t start = parts.size();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] == "src" || parts[i] == "bench" || parts[i] == "tools" ||
        parts[i] == "examples") {
      start = i;
    }
  }
  if (start == parts.size()) return {};
  std::string out;
  for (std::size_t i = start; i < parts.size(); ++i) {
    if (!out.empty()) out += '/';
    out += parts[i];
  }
  return out;
}

/// The src/ module of a virtual path ("core", "radio", ...) or "" for
/// bench/tools/examples files and unknown layouts.
std::string src_module_of(const std::string& vpath) {
  if (vpath.rfind("src/", 0) != 0) return {};
  const std::size_t slash = vpath.find('/', 4);
  if (slash == std::string::npos) return {};
  return vpath.substr(4, slash - 4);
}

// ---------------------------------------------------------------------------
// Driver: two passes over the tree. Pass 1 loads and lexes every file and
// gathers per-file facts (includes, signatures). Pass 2 runs the per-file
// checks against the signature index, then the include graph is checked for
// layering violations and cycles, and finally suppression directives are
// applied per file.

struct FileUnit {
  fs::path path;
  FileContext ctx;
  LexedFile lexed;
  std::set<int> token_lines;
  std::vector<Allow> allows;
  std::vector<Finding> meta;  // directive problems; never suppressible
  std::vector<Finding> raw;   // rule findings, pre-suppression
  std::string vpath;          // repo-relative layout ("" when unknown)
  std::string src_module;     // "core", "radio", ... ("" outside src/)
  std::vector<IncludeRef> includes;
  std::set<std::size_t> decl_sites;
  bool io_error = false;
};

bool path_ends_with(const fs::path& path, std::string_view suffix) {
  const std::string generic = path.generic_string();
  return generic.size() >= suffix.size() &&
         generic.compare(generic.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
}

FileUnit load_file(const fs::path& path) {
  FileUnit unit;
  unit.path = path;
  unit.ctx.display_path = path.lexically_normal().generic_string();
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    unit.io_error = true;
    unit.meta.push_back(
        {unit.ctx.display_path, 0, "io-error", "cannot open file", {}});
    return unit;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string raw_text = buffer.str();

  unit.ctx.is_rng_header = path_ends_with(path, "src/core/rng.h");
  unit.ctx.feeds_metrics =
      raw_text.find("#include \"core/json.h\"") != std::string::npos ||
      raw_text.find("#include \"bench_common.h\"") != std::string::npos ||
      raw_text.find("#include \"engine/figures/figure.h\"") !=
          std::string::npos ||
      path_ends_with(path, "bench/bench_common.h") ||
      path_ends_with(path, "src/core/json.h");
  // Path suffixes where a silent catch (...) is deliberate. Empty today —
  // every swallow in the tree must rethrow, store, or report; add a suffix
  // here (with a comment saying why) before exempting a whole file.
  static constexpr std::array<std::string_view, 0> kSwallowAllowed = {};
  unit.ctx.swallow_allowed = std::any_of(
      kSwallowAllowed.begin(), kSwallowAllowed.end(),
      [&](std::string_view suffix) { return path_ends_with(path, suffix); });

  const Source spliced = splice(raw_text);
  unit.lexed = lex(spliced);
  for (const auto& tok : unit.lexed.tokens) unit.token_lines.insert(tok.line);
  collect_allows(unit.lexed, unit.ctx.display_path, unit.allows, unit.meta);
  unit.vpath = virtual_path(path);
  unit.src_module = src_module_of(unit.vpath);
  unit.ctx.in_campaign_code = unit.vpath.rfind("bench/", 0) == 0 ||
                              unit.vpath.rfind("src/engine/figures/", 0) == 0;
  unit.includes = collect_includes(unit.lexed.tokens);
  return unit;
}

/// layering: per-file check of include edges against the module ranks. The
/// target module is read off the include text itself (first path component),
/// so the rule works even when the included file is outside the scan set.
void check_layering(FileUnit& unit) {
  if (unit.src_module.empty()) return;
  const auto& ranks = layer_ranks();
  const auto from = ranks.find(unit.src_module);
  if (from == ranks.end()) return;
  for (const auto& inc : unit.includes) {
    if (inc.target == "bench_common.h" ||
        inc.target.rfind("bench/", 0) == 0) {
      unit.raw.push_back(
          {unit.ctx.display_path, inc.line, "layering",
           "src/" + unit.src_module + " includes bench/ header \"" +
               inc.target + "\"; bench/ sits above every src/ layer and is "
               "never included from src/",
           {}});
      continue;
    }
    const std::size_t slash = inc.target.find('/');
    if (slash == std::string::npos) continue;
    const std::string head = inc.target.substr(0, slash);
    const auto to = ranks.find(head);
    if (to == ranks.end()) continue;
    if (head == unit.src_module || to->second < from->second) continue;
    std::string message = "src/" + unit.src_module + " (layer " +
                          std::to_string(from->second) + ") includes src/" +
                          head + " (layer " + std::to_string(to->second) +
                          "); the include DAG flows strictly downward";
    if (unit.src_module == "core") {
      message += " — src/core depends on nothing outside core";
    } else {
      message += "; move the shared code into a lower layer or invert the "
                 "dependency";
    }
    unit.raw.push_back(
        {unit.ctx.display_path, inc.line, "layering", std::move(message), {}});
  }
}

/// include-cycle: DFS over the include graph restricted to scanned files.
/// Includes are resolved against virtual paths (repo-root-relative first,
/// then bench/, then verbatim, then sibling), so the graph matches what the
/// compiler sees under the tree's -I roots. Each back edge is one finding,
/// attached to the #include line that closes the cycle.
void check_cycles(std::vector<FileUnit>& units) {
  std::map<std::string, FileUnit*> by_vpath;
  for (auto& unit : units) {
    if (!unit.vpath.empty()) by_vpath.emplace(unit.vpath, &unit);
  }
  struct Edge {
    std::string to;
    int line;
  };
  std::map<std::string, std::vector<Edge>> graph;
  for (const auto& [vpath, unit] : by_vpath) {
    const std::string dir = vpath.substr(0, vpath.rfind('/'));
    for (const auto& inc : unit->includes) {
      const std::array<std::string, 4> candidates = {
          "src/" + inc.target, "bench/" + inc.target, inc.target,
          dir + "/" + inc.target};
      for (const auto& candidate : candidates) {
        if (by_vpath.count(candidate) != 0) {
          graph[vpath].push_back({candidate, inc.line});
          break;
        }
      }
    }
  }
  std::map<std::string, int> color;  // 0 = new, 1 = on stack, 2 = done
  std::vector<std::string> stack;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& vpath) {
        color[vpath] = 1;
        stack.push_back(vpath);
        for (const auto& edge : graph[vpath]) {
          if (color[edge.to] == 1) {
            std::string cycle;
            const auto at = std::find(stack.begin(), stack.end(), edge.to);
            for (auto it = at; it != stack.end(); ++it) {
              cycle += *it + " -> ";
            }
            cycle += edge.to;
            FileUnit* unit = by_vpath[vpath];
            unit->raw.push_back(
                {unit->ctx.display_path, edge.line, "include-cycle",
                 "#include \"" + edge.to.substr(edge.to.find('/') + 1) +
                     "\" closes an include cycle: " + cycle,
                 {}});
          } else if (color[edge.to] == 0) {
            dfs(edge.to);
          }
        }
        stack.pop_back();
        color[vpath] = 2;
      };
  for (const auto& [vpath, unit] : by_vpath) {
    (void)unit;
    if (color[vpath] == 0) dfs(vpath);
  }
}

std::vector<Finding> run_checks(std::vector<FileUnit>& units) {
  SignatureIndex index;
  for (auto& unit : units) {
    collect_signatures(unit.lexed.tokens, index, unit.decl_sites);
  }

  for (auto& unit : units) {
    if (unit.io_error) continue;
    const auto& toks = unit.lexed.tokens;
    check_banned_idents(toks, unit.ctx, unit.raw);
    check_float_equality(toks, unit.ctx, unit.raw);
    check_printf_float(toks, unit.ctx, unit.raw);
    check_catch_swallow(toks, unit.ctx, unit.raw);
    check_sample_hoard(toks, unit.ctx, unit.raw);
    check_engine_blocking(toks, unit.ctx, unit.vpath, unit.raw);
    check_unordered_iteration(toks, unit.ctx, unit.raw);
    check_unit_assign(toks, unit.ctx, unit.raw);
    check_unit_conversion_calls(toks, unit.ctx, unit.raw);
    check_unit_calls(toks, unit.ctx, index, unit.decl_sites, unit.raw);
    check_layering(unit);
  }
  check_cycles(units);

  std::vector<Finding> findings;
  for (auto& unit : units) {
    std::vector<Finding> kept = std::move(unit.meta);
    for (auto& f : unit.raw) {
      if (!suppressed(unit.allows, unit.token_lines, f)) {
        kept.push_back(std::move(f));
      }
    }
    std::sort(kept.begin(), kept.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
              });
    findings.insert(findings.end(), std::make_move_iterator(kept.begin()),
                    std::make_move_iterator(kept.end()));
  }
  return findings;
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

// ---------------------------------------------------------------------------
// Output formats.

namespace json = wild5g::json;

json::Value findings_json(const std::vector<Finding>& findings,
                          std::size_t files_scanned) {
  json::Value doc = json::Value::object();
  json::Value list = json::Value::array();
  for (const auto& f : findings) {
    json::Value entry = json::Value::object();
    entry.set("file", f.file);
    entry.set("line", static_cast<std::int64_t>(f.line));
    entry.set("rule", f.rule);
    entry.set("message", f.message);
    if (!f.fixit.empty()) entry.set("fixit", f.fixit);
    list.push_back(std::move(entry));
  }
  doc.set("files_scanned", static_cast<std::int64_t>(files_scanned));
  doc.set("count", static_cast<std::int64_t>(findings.size()));
  doc.set("findings", std::move(list));
  return doc;
}

/// SARIF 2.1.0 in the shape GitHub code scanning consumes: one run, the full
/// rule registry under tool.driver.rules, one result per finding with
/// ruleId/ruleIndex/level/message/physicalLocation. Unregistered diagnostics
/// (io-error) carry a ruleId but no ruleIndex.
json::Value sarif_json(const std::vector<Finding>& findings) {
  json::Value rules = json::Value::array();
  for (const auto& rule : kRules) {
    json::Value entry = json::Value::object();
    entry.set("id", std::string(rule.id));
    json::Value short_desc = json::Value::object();
    short_desc.set("text", std::string(rule.summary));
    entry.set("shortDescription", std::move(short_desc));
    json::Value config = json::Value::object();
    config.set("level", "error");
    entry.set("defaultConfiguration", std::move(config));
    json::Value props = json::Value::object();
    props.set("family", std::string(rule.family));
    entry.set("properties", std::move(props));
    rules.push_back(std::move(entry));
  }
  json::Value driver = json::Value::object();
  driver.set("name", "wild5g-lint");
  driver.set("version", "2.0.0");
  driver.set("rules", std::move(rules));
  json::Value tool = json::Value::object();
  tool.set("driver", std::move(driver));

  json::Value results = json::Value::array();
  for (const auto& f : findings) {
    json::Value result = json::Value::object();
    result.set("ruleId", f.rule);
    const int index = rule_index(f.rule);
    if (index >= 0) result.set("ruleIndex", static_cast<std::int64_t>(index));
    result.set("level", "error");
    json::Value message = json::Value::object();
    message.set("text", f.fixit.empty() ? f.message
                                        : f.message + " (fix: " + f.fixit +
                                              ")");
    result.set("message", std::move(message));
    json::Value artifact = json::Value::object();
    artifact.set("uri", f.file);
    json::Value region = json::Value::object();
    region.set("startLine", static_cast<std::int64_t>(std::max(f.line, 1)));
    json::Value physical = json::Value::object();
    physical.set("artifactLocation", std::move(artifact));
    physical.set("region", std::move(region));
    json::Value location = json::Value::object();
    location.set("physicalLocation", std::move(physical));
    json::Value locations = json::Value::array();
    locations.push_back(std::move(location));
    result.set("locations", std::move(locations));
    results.push_back(std::move(result));
  }

  json::Value run = json::Value::object();
  run.set("tool", std::move(tool));
  run.set("results", std::move(results));
  json::Value runs = json::Value::array();
  runs.push_back(std::move(run));
  json::Value doc = json::Value::object();
  doc.set("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  doc.set("version", "2.1.0");
  doc.set("runs", std::move(runs));
  return doc;
}

json::Value rules_json() {
  json::Value list = json::Value::array();
  for (const auto& rule : kRules) {
    json::Value entry = json::Value::object();
    entry.set("id", std::string(rule.id));
    entry.set("family", std::string(rule.family));
    entry.set("summary", std::string(rule.summary));
    if (!rule.fixit.empty()) entry.set("fixit", std::string(rule.fixit));
    list.push_back(std::move(entry));
  }
  json::Value doc = json::Value::object();
  doc.set("count", static_cast<std::int64_t>(kRules.size()));
  doc.set("rules", std::move(list));
  return doc;
}

/// The markdown behind docs/LINT_RULES.md. Generated so the doc can never
/// drift from the registry: ctest (lint.rules_doc_is_fresh) compares the
/// committed file against this output byte for byte.
std::string rules_doc_markdown() {
  std::ostringstream os;
  os << "<!-- GENERATED FILE - do not edit by hand.\n"
        "     Regenerate with:  ./build/tools/wild5g_lint --rules-doc > "
        "docs/LINT_RULES.md\n"
        "     The lint.rules_doc_is_fresh test fails while this file is "
        "stale. -->\n\n";
  os << "# wild5g-lint rule reference\n\n";
  os << "wild5g-lint (tools/wild5g_lint.cpp) statically enforces the repo's "
        "determinism,\nunit-hygiene, and layering contracts over `src/`, "
        "`bench/`, `tools/`, and\n`examples/`. It exits 0 on a clean tree, 1 "
        "when any finding survives\nsuppression, and 2 on usage or I/O "
        "errors.\n\n";
  os << "Suppress a finding with a justified directive comment on the same "
        "line or the\nline(s) directly above it:\n\n"
        "```cpp\n"
        "// wild5g-lint: allow(<rule>) <why this construct is safe here>\n"
        "```\n\n";
  os << "Machine-readable forms: `--list-rules --json` (this table as "
        "JSON),\n`--json` (findings), `--sarif <path>` (SARIF 2.1.0 for "
        "GitHub code scanning).\n\n";
  os << "Invariants a runtime gate already checks (parallel Rng streams, "
        "shared-state\nraces, lock order, condition-variable waits, "
        "signal-handler safety,\ncheckpoint/restore symmetry, locks held "
        "across blocking calls) have no rule\nhere; DESIGN.md section 8 "
        "maps each to the test that enforces it.\n";
  for (const auto& family : kFamilies) {
    os << "\n## " << family << "\n\n";
    os << "| rule | summary | fix-it |\n";
    os << "| --- | --- | --- |\n";
    for (const auto& rule : kRules) {
      if (rule.family != family) continue;
      os << "| `" << rule.id << "` | " << rule.summary << " | "
         << (rule.fixit.empty() ? std::string_view{"-"} : rule.fixit)
         << " |\n";
    }
  }
  return os.str();
}

int usage() {
  std::cerr << "usage: wild5g_lint [--json] [--sarif <path>] [--list-rules] "
               "[--rules-doc]\n"
               "                   <file-or-dir>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool as_json = false;
  bool list_rules = false;
  bool rules_doc = false;
  std::string sarif_path;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      as_json = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--rules-doc") {
      rules_doc = true;
    } else if (arg == "--sarif") {
      if (i + 1 >= argc) {
        std::cerr << "wild5g_lint: --sarif requires a path\n";
        return usage();
      }
      sarif_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "wild5g_lint: unknown flag '" << arg << "'\n";
      return usage();
    } else {
      roots.emplace_back(arg);
    }
  }
  if (rules_doc) {
    std::cout << rules_doc_markdown();
    return 0;
  }
  if (list_rules) {
    if (as_json) {
      std::cout << json::dump(rules_json());
    } else {
      for (const auto& rule : kRules) {
        std::cout << rule.id << " [" << rule.family << "]: " << rule.summary
                  << "\n";
      }
    }
    return 0;
  }
  if (roots.empty()) return usage();

  std::vector<fs::path> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && lintable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::cerr << "wild5g_lint: no such file or directory: "
                << root.generic_string() << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<FileUnit> units;
  units.reserve(files.size());
  for (const auto& file : files) units.push_back(load_file(file));
  const std::vector<Finding> findings = run_checks(units);

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out.good()) {
      std::cerr << "wild5g_lint: cannot write SARIF log: " << sarif_path
                << "\n";
      return 2;
    }
    out << json::dump(sarif_json(findings)) << "\n";
  }
  if (as_json) {
    std::cout << json::dump(findings_json(findings, files.size()));
  } else {
    for (const auto& f : findings) {
      std::cout << f.file << ":" << f.line << ": " << f.rule << ": "
                << f.message << "\n";
      if (!f.fixit.empty()) std::cout << "    fix-it: " << f.fixit << "\n";
    }
    std::cerr << "wild5g_lint: " << files.size() << " file(s), "
              << findings.size() << " finding(s)\n";
  }
  return findings.empty() ? 0 : 1;
}
