// Minimal deterministic JSON document builder for scenario results.
//
// Scenario runs must be byte-reproducible for a fixed seed, so this writer
// guarantees: insertion-ordered object keys, locale-independent number
// formatting (shortest round-trip form for doubles), and no whitespace
// variation. It builds values in memory and serialises on demand; there is
// deliberately no parser — the runner only emits results.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace p2ps::scenario {

/// A JSON value: null, bool, integer, double, string, array or object.
/// Object keys keep insertion order so serialisation is deterministic.
class Json {
 public:
  Json() = default;  // null

  static Json boolean(bool value);
  static Json integer(std::int64_t value);
  static Json number(double value);
  static Json string(std::string value);
  static Json array();
  static Json object();

  // Implicit conversions for the common leaf types keep call sites terse.
  // A single constrained template covers every integer width/signedness,
  // so size_t stays unambiguous on platforms where it aliases neither
  // int64_t nor uint64_t exactly.
  Json(bool value) : Json(boolean(value)) {}
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Json(T value) : Json(integer(static_cast<std::int64_t>(value))) {}
  Json(double value) : Json(number(value)) {}
  Json(const char* value) : Json(string(value)) {}
  Json(std::string value) : Json(string(std::move(value))) {}

  /// Appends to an array value; dies on non-arrays.
  Json& push_back(Json value);
  /// Sets (or overwrites) a key on an object value; dies on non-objects.
  Json& set(std::string key, Json value);

  /// Compact serialisation (no whitespace); deterministic byte-for-byte.
  [[nodiscard]] std::string dump() const;
  /// Pretty serialisation (2-space indent); also deterministic.
  [[nodiscard]] std::string dump_pretty() const;
  void write(std::ostream& os, int indent = -1) const;

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  void write_indented(std::ostream& os, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// JSON string escaping (quotes included) — exposed for tests.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Locale-independent double rendering: integers render without a mantissa
/// ("4" not "4.0"), NaN/inf render as null per JSON. Exposed for tests.
[[nodiscard]] std::string json_number(double value);

}  // namespace p2ps::scenario
