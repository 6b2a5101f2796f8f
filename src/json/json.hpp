// The one JSON codec every writer and reader in src/ and tools/ shares:
// one number rule, one string escaper, a streaming writer and a reader.
// Dependency-free on purpose: the offline tools link it without any
// simulator library. Model digests are pinned to the bytes of the number
// and string rules, so neither may change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pdt {

/// Shortest of %.15g / %.16g / %.17g that reads back to the identical
/// double, so written values round-trip losslessly through json_parse
/// (non-finite values become "null" to stay valid JSON).
[[nodiscard]] std::string json_double_exact(double v);

/// JSON string escaping: \" \\ \n \r \t, and \u00XX for the other control
/// characters. The result goes between the quotes.
[[nodiscard]] std::string json_escaped(std::string_view s);

/// Streaming JSON writer (comma/nesting management + escaping), compact
/// output with no whitespace.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  /// Object key; must be followed by exactly one value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
  JsonWriter& value(bool b);
  JsonWriter& null();

  /// Shorthand: key + value.
  template <typename T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

 private:
  void separate();  // emit "," if not the first element at this depth
  void quoted(std::string_view s);
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// One scalar token, written as is.
  template <typename T>
  JsonWriter& put(const T& token);

  std::ostream& os_;
  std::vector<bool> first_;   // per open container: next element is first?
  bool after_key_ = false;
};

/// A parsed document; objects keep their members in insertion order, so
/// renderers over it are deterministic.
class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::Number; }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  /// Typed reads with a fallback for wrong-typed / missing values, so the
  /// renderer can be written without defensive branching everywhere.
  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const {
    return is_number() ? num_ : fallback;
  }
  /// Truncates toward zero; `fallback` also for numbers outside the
  /// int64 range, where the conversion would be undefined.
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const {
    constexpr double kTwo63 = 9223372036854775808.0;
    return is_number() && num_ >= -kTwo63 && num_ < kTwo63
               ? static_cast<std::int64_t>(num_)
               : fallback;
  }
  [[nodiscard]] const std::string& as_string() const {
    static const std::string empty;
    return is_string() ? str_ : empty;
  }

  [[nodiscard]] std::size_t size() const {
    return is_array() ? arr_.size() : (is_object() ? obj_.size() : 0);
  }
  /// Array element (the shared null value when out of range / not an
  /// array).
  [[nodiscard]] const JsonValue& at(std::size_t i) const {
    return is_array() && i < arr_.size() ? arr_[i] : null_value();
  }
  /// Object member by key (the shared null value when absent). Chains:
  /// root.get("critical_path").get("max_clock_us").as_double().
  [[nodiscard]] const JsonValue& get(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return &get(key) != &null_value();
  }

  [[nodiscard]] const std::vector<JsonValue>& array() const {
    static const std::vector<JsonValue> empty;
    return is_array() ? arr_ : empty;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& object()
      const {
    static const std::vector<std::pair<std::string, JsonValue>> empty;
    return is_object() ? obj_ : empty;
  }

  [[nodiscard]] static const JsonValue& null_value();

 private:
  friend class JsonParser;

  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

/// Parse `text` into `*out`. On failure returns false and, when `error`
/// is non-null, fills it with a message including the byte offset.
[[nodiscard]] bool json_parse(std::string_view text, JsonValue* out,
                              std::string* error = nullptr);

/// Serialize a parsed value back to compact JSON (no whitespace).
/// Deterministic: objects keep insertion order, doubles round-trip via
/// json_double_exact — pdt trend uses this to copy fingerprint objects
/// verbatim from envelopes into registry records.
[[nodiscard]] std::string json_serialize(const JsonValue& v);

}  // namespace pdt
