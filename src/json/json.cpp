#include "json/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace pdt {

namespace {

// Big enough for any %.17g rendering ("-2.2250738585072014e-308" is 24).
constexpr std::size_t kDoubleBuf = 32;

/// The number rule; the text lives in `buf` or is a literal. std::to_chars
/// with an explicit precision is exactly printf's %.Ng (the precision-free
/// overload is not: it writes 1e+05 where %.15g writes 100000).
std::string_view format_double(double v, char (&buf)[kDoubleBuf]) {
  if (!std::isfinite(v)) return "null";
  char* end = buf;
  for (const int prec : {15, 16, 17}) {
    end = std::to_chars(buf, buf + kDoubleBuf, v, std::chars_format::general,
                        prec)
              .ptr;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == v) break;
  }
  return {buf, static_cast<std::size_t>(end - buf)};
}

/// The string rule. Hands `emit` each run of bytes that stand for
/// themselves and each escape sequence, in order, so the writer streams
/// escaped text without building a string per key.
template <typename Emit>
void escape_pieces(std::string_view s, Emit&& emit) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char buf[8];
    std::string_view esc;
    switch (s[i]) {
      case '"': esc = "\\\""; break;
      case '\\': esc = "\\\\"; break;
      case '\n': esc = "\\n"; break;
      case '\r': esc = "\\r"; break;
      case '\t': esc = "\\t"; break;
      default:
        if (static_cast<unsigned char>(s[i]) >= 0x20) continue;
        std::snprintf(buf, sizeof buf, "\\u%04x", s[i]);
        esc = buf;
    }
    emit(s.substr(run, i - run));
    emit(esc);
    run = i + 1;
  }
  emit(s.substr(run));
}

}  // namespace

std::string json_double_exact(double v) {
  char buf[kDoubleBuf];
  return std::string(format_double(v, buf));
}

std::string json_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  escape_pieces(s, [&out](std::string_view piece) { out += piece; });
  return out;
}

// ---------------------------------------------------------------- writer --

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) os_ << ',';
    first_.back() = false;
  }
}

void JsonWriter::quoted(std::string_view s) {
  os_ << '"';
  escape_pieces(s, [this](std::string_view piece) { os_ << piece; });
  os_ << '"';
}

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  os_ << bracket;
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  assert(!first_.empty());
  first_.pop_back();
  os_ << bracket;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  quoted(k);
  os_ << ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  quoted(s);
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  separate();
  char buf[kDoubleBuf];
  os_ << format_double(d, buf);
  return *this;
}

template <typename T>
JsonWriter& JsonWriter::put(const T& token) {
  separate();
  os_ << token;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) { return put(i); }
JsonWriter& JsonWriter::value(std::uint64_t u) { return put(u); }
JsonWriter& JsonWriter::value(bool b) { return put(b ? "true" : "false"); }
JsonWriter& JsonWriter::null() { return put("null"); }

// ---------------------------------------------------------------- reader --

const JsonValue& JsonValue::null_value() {
  static const JsonValue v;
  return v;
}

const JsonValue& JsonValue::get(std::string_view key) const {
  if (is_object()) {
    for (const auto& [k, v] : obj_) {
      if (k == key) return v;
    }
  }
  return null_value();
}

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing content after document");
    return true;
  }

 private:
  // Nesting bound: the reports nest a handful of levels; 200 keeps a
  // malformed/adversarial file from overflowing the parser's stack.
  static constexpr int kMaxDepth = 200;

  bool fail(const std::string& msg) {
    if (error_ != nullptr) {
      *error_ = msg + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return fail("invalid literal");
    }
    pos_ += lit.size();
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        out->type_ = JsonValue::Type::Null;
        return expect_literal("null");
      case 't':
        out->type_ = JsonValue::Type::Bool;
        out->bool_ = true;
        return expect_literal("true");
      case 'f':
        out->type_ = JsonValue::Type::Bool;
        out->bool_ = false;
        return expect_literal("false");
      case '"':
        out->type_ = JsonValue::Type::String;
        return parse_string(&out->str_);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      // Some emitters write bare IEEE specials; RFC 8259 forbids them, and
      // accepting them would poison every aggregate downstream. Name them
      // in the error instead of a generic "expected a value".
      case 'N':
      case 'I':
        return fail("NaN/Infinity literals are not valid JSON");
      default:
        return parse_number(out);
    }
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (!eof() && (peek() == 'N' || peek() == 'I')) {
      pos_ = start;
      return fail("NaN/Infinity literals are not valid JSON");
    }
    while (!eof() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '+' ||
                      peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) {
      pos_ = start;
      return fail("malformed number");
    }
    // strtod saturates overflows to +-HUGE_VAL; letting an infinity in
    // here would defeat the literal rejection above.
    if (!std::isfinite(d)) {
      pos_ = start;
      return fail("number out of range");
    }
    out->type_ = JsonValue::Type::Number;
    out->num_ = d;
    return true;
  }

  static void append_utf8(std::string* s, unsigned cp) {
    if (cp < 0x80) {
      s->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape");
      }
    }
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (eof()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (eof()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(&cp)) return false;
          // Surrogate pairs (rare in our files, but be correct).
          if (cp >= 0xD800 && cp <= 0xDBFF &&
              text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            unsigned lo = 0;
            if (!parse_hex4(&lo)) return false;
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              const unsigned full =
                  0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              append_utf8(out, full);
              break;
            }
            append_utf8(out, cp);
            append_utf8(out, lo);
            break;
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
  }

  bool parse_array(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->type_ = JsonValue::Type::Array;
    out->arr_.clear();  // the caller may reuse a JsonValue across parses
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue elem;
      skip_ws();
      if (!parse_value(&elem, depth + 1)) return false;
      out->arr_.push_back(std::move(elem));
      skip_ws();
      if (eof()) return fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') {
        --pos_;
        return fail("expected ',' or ']' in array");
      }
    }
  }

  bool parse_object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->type_ = JsonValue::Type::Object;
    out->obj_.clear();  // the caller may reuse a JsonValue across parses
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(&key)) return false;
      // get() returns the first match, so a duplicate would silently
      // shadow later data; our writers never emit one, so it marks a
      // corrupt or hand-edited file.
      for (const auto& [k, v] : out->obj_) {
        if (k == key) {
          return fail("duplicate object key \"" + key + "\"");
        }
      }
      skip_ws();
      if (eof() || text_[pos_] != ':') return fail("expected ':' after key");
      ++pos_;
      skip_ws();
      JsonValue val;
      if (!parse_value(&val, depth + 1)) return false;
      out->obj_.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (eof()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') {
        --pos_;
        return fail("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  JsonParser p(text, error);
  return p.parse(out);
}

std::string json_serialize(const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::Null:
      return "null";
    case JsonValue::Type::Bool:
      return v.as_bool() ? "true" : "false";
    case JsonValue::Type::Number:
      return json_double_exact(v.as_double());
    case JsonValue::Type::String:
      return "\"" + json_escaped(v.as_string()) + "\"";
    case JsonValue::Type::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ",";
        out += json_serialize(v.at(i));
      }
      return out + "]";
    }
    case JsonValue::Type::Object: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, val] : v.object()) {
        if (!first) out += ",";
        first = false;
        out += "\"" + json_escaped(k) + "\":" + json_serialize(val);
      }
      return out + "}";
    }
  }
  return "null";
}

}  // namespace pdt
