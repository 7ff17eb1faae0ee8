// Minimal command-line flag parsing shared by the example tools, replacing
// the per-tool strcmp loops. Usage pattern:
//
//   FlagParser flags(argc, argv);
//   bool directed = flags.TakeBool("--directed");
//   uint64_t seed = flags.TakeUint64("--seed").value_or(42);
//   std::vector<std::string> positional = flags.TakePositional();
//   if (!flags.ok()) { std::cerr << "error: " << flags.error() << "\n"; ... }
//
// Each Take* removes the flag (and its value) from the argument list;
// TakePositional returns what is left and reports any unconsumed "--"
// argument as an unknown option. Errors are sticky: the first one wins and
// ok() stays false.
#ifndef SGP_EXAMPLES_FLAGS_H_
#define SGP_EXAMPLES_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sgp {

/// Parses all of `text` as a decimal unsigned integer. A sign, an overflow,
/// an empty string and trailing junk are all rejected (std::strtoull would
/// wrap "-3" to 2^64 - 3 and skip leading whitespace).
inline std::optional<uint64_t> ParseUint64(std::string_view text) {
  uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

class FlagParser {
 public:
  FlagParser(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// True if "--name" is present (and consumes it).
  bool TakeBool(std::string_view name) {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == name) {
        args_.erase(args_.begin() + i);
        return true;
      }
    }
    return false;
  }

  /// The value following "--name", if present (consumes both).
  std::optional<std::string> TakeString(std::string_view name) {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] != name) continue;
      if (i + 1 >= args_.size()) {
        Fail(std::string("option ") + std::string(name) +
             " requires a value");
        args_.erase(args_.begin() + i);
        return std::nullopt;
      }
      std::string value = args_[i + 1];
      args_.erase(args_.begin() + i, args_.begin() + i + 2);
      return value;
    }
    return std::nullopt;
  }

  std::optional<uint64_t> TakeUint64(std::string_view name) {
    std::optional<std::string> value = TakeString(name);
    if (!value) return std::nullopt;
    const std::optional<uint64_t> parsed = ParseUint64(*value);
    if (!parsed) {
      Fail(std::string("option ") + std::string(name) +
           " expects an unsigned integer, got '" + *value + "'");
    }
    return parsed;
  }

  std::optional<double> TakeDouble(std::string_view name) {
    std::optional<std::string> value = TakeString(name);
    if (!value) return std::nullopt;
    char* end = nullptr;
    const double parsed = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0') {
      Fail(std::string("option ") + std::string(name) +
           " expects a number, got '" + *value + "'");
      return std::nullopt;
    }
    return parsed;
  }

  /// Remaining arguments, after every Take* call. Anything still starting
  /// with "--" is an unknown option and fails the parse.
  std::vector<std::string> TakePositional() {
    std::vector<std::string> positional;
    for (const std::string& arg : args_) {
      if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
        Fail("unknown option: " + arg);
      } else {
        positional.push_back(arg);
      }
    }
    args_.clear();
    return positional;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void Fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  std::vector<std::string> args_;
  std::string error_;
};

}  // namespace sgp

#endif  // SGP_EXAMPLES_FLAGS_H_
