// One strict parser for `--flag [VALUE]` command lines (`aflow serve`
// requests, the aflow CLI's and the benches' argv): a command declares each
// flag once, and the parser refuses what that declaration does not allow.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aflow::util {

/// A declared flag: its name and its value's label (no label: a switch).
struct Flag {
  std::string_view name;
  std::string_view value = {};
};

/// All of `text` as a T (integer or floating point); nothing when
/// characters trail the number or it lies outside T's range.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// `text` cut at every `sep` (a flag value's list items).
inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  for (size_t start = 0;;) {
    const size_t at = text.find(sep, start);
    out.push_back(text.substr(start, at - start));
    if (at == std::string::npos) return out;
    start = at + 1;
  }
}

/// `head [--flag VALUE] [--switch] ...`
inline std::string usage_line(std::string_view head,
                              std::span<const Flag> flags) {
  std::string out(head);
  for (const Flag& f : flags)
    out += " [" + std::string(f.name) + (f.value.empty() ? "" : " ") +
           std::string(f.value) + "]";
  return out;
}

/// One command line's flags, checked against the command's declared flags:
/// a token that is not one of them, a valued flag without a value (or
/// followed by a `--` token) and a repeated flag are refused. A refusal
/// throws std::invalid_argument or, given a usage line (the argv front
/// ends), prints the error and the usage line and exits 2. The accessors
/// take the default at the call site; asking for a flag the command does
/// not declare throws std::out_of_range.
class Args {
 public:
  Args(std::span<const Flag> flags, std::span<const std::string> tokens,
       std::string usage = {})
      : flags_(flags), given_(flags.size()), usage_(std::move(usage)) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      const size_t k = index(tokens[i]);
      if (k == flags.size()) {
        std::string known;
        for (const Flag& f : flags) known += " " + std::string(f.name);
        refuse("unknown flag '" + tokens[i] + "' (known:" +
               (known.empty() ? " none" : known) + ")");
      }
      const std::string name(flags[k].name), value(flags[k].value);
      if (given_[k]) refuse(name + " given twice");
      if (!value.empty() &&
          (i + 1 == tokens.size() || tokens[i + 1].starts_with("--")))
        refuse(name + " needs a value " + value);
      given_[k] = value.empty() ? "" : tokens[++i];
    }
  }

  bool has(std::string_view flag) const { return given(flag).has_value(); }
  std::string string(std::string_view flag, std::string fallback) const {
    return given(flag).value_or(std::move(fallback));
  }
  /// All of the flag's value as a T, within T's range.
  template <typename T>
  T number(std::string_view flag, T fallback) const {
    const std::optional<std::string>& v = given(flag);
    if (!v) return fallback;
    if (const std::optional<T> n = parse_number<T>(*v)) return *n;
    refuse("bad number for " + std::string(flag) + ": '" + *v + "'");
  }

  /// Refuses the command line with `message`, as the parser does.
  [[noreturn]] void refuse(const std::string& message) const {
    if (usage_.empty()) throw std::invalid_argument(message);
    std::fprintf(stderr, "error: %s\n%s\n", message.c_str(), usage_.c_str());
    std::exit(2);
  }

 private:
  size_t index(std::string_view flag) const {
    return std::ranges::find(flags_, flag, &Flag::name) - flags_.begin();
  }
  const std::optional<std::string>& given(std::string_view flag) const {
    return given_.at(index(flag));
  }

  std::span<const Flag> flags_;
  std::vector<std::optional<std::string>> given_; // per declared flag
  std::string usage_;
};

/// Args over argv[1..argc) of the command line `head`; a refusal prints
/// "usage: head ..." and exits 2.
inline Args parse_argv(std::string_view head, std::span<const Flag> flags,
                       int argc, char** argv) {
  const std::vector<std::string> tokens(argv + std::min(argc, 1), argv + argc);
  return Args(flags, tokens, usage_line("usage: " + std::string(head), flags));
}

} // namespace aflow::util
