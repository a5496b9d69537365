// Minimal command-line flag parsing for p2ps_run, the examples and the
// benchmark driver.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Typed
// accessors validate and fall back to defaults; `usage()` renders the
// registered flags. Deliberately tiny — no subcommands, no config files.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace p2ps::util {

class Flags {
 public:
  /// Parses argv. Arguments not starting with "--" are positional and kept
  /// in order. Throws ContractViolation on malformed input (e.g. "--=x").
  Flags(int argc, const char* const* argv);

  /// True when `--name` appeared (with or without a value).
  [[nodiscard]] bool has(std::string_view name) const;

  /// Raw string value of `--name` (empty for bare boolean flags).
  [[nodiscard]] std::optional<std::string> value(std::string_view name) const;

  /// Typed accessors with defaults; throw on unparseable values.
  [[nodiscard]] std::int64_t get_int(std::string_view name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view name, double fallback) const;
  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string_view fallback) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

  /// Names that were passed but never queried — lets callers reject typos.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  struct Entry {
    std::string name;
    std::string value;
    bool has_value = false;
    mutable bool queried = false;
  };
  [[nodiscard]] const Entry* find(std::string_view name) const;

  std::string program_;
  std::vector<Entry> entries_;
  std::vector<std::string> positional_;
};

}  // namespace p2ps::util
