#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <unordered_set>

namespace ftsort::util::json {

const Value* Value::find(std::string_view key) const {
  for (const Member& m : members_)
    if (m.first == key) return &m.second;
  return nullptr;
}

namespace {

/// "null", "a bool", "a number", "a string", "an array", "an object".
const char* kind_name(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::Null: return "null";
    case Value::Kind::Bool: return "a bool";
    case Value::Kind::Number: return "a number";
    case Value::Kind::String: return "a string";
    case Value::Kind::Array: return "an array";
    case Value::Kind::Object: return "an object";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// Parser: recursive descent over the RFC 8259 grammar, depth-bounded.

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value v;
    skip_ws();
    value(v, 0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("byte " + std::to_string(pos_) + ": " + what);
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return at_end() ? '\0' : text_[pos_]; }

  void skip_ws() {
    while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                         text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  void expect(char c, const char* context) {
    if (at_end()) fail(std::string("unexpected end of input, expected '") + c +
                       "' " + context);
    if (text_[pos_] != c)
      fail(std::string("expected '") + c + "' " + context);
    ++pos_;
  }

  void value(Value& out, std::size_t depth) {
    if (at_end()) fail("unexpected end of input, expected a value");
    switch (text_[pos_]) {
      case '{': object(out, depth + 1); return;
      case '[': array(out, depth + 1); return;
      case '"':
        out.kind_ = Value::Kind::String;
        string(out.str_);
        return;
      case 't':
        literal("true");
        out.kind_ = Value::Kind::Bool;
        out.bool_ = true;
        return;
      case 'f':
        literal("false");
        out.kind_ = Value::Kind::Bool;
        return;
      case 'n': literal("null"); return;
      default: number(out); return;
    }
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
    pos_ += word.size();
  }

  void enter(std::size_t depth) {
    if (depth > kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    ++pos_;  // the opening bracket
    skip_ws();
  }

  void array(Value& out, std::size_t depth) {
    out.kind_ = Value::Kind::Array;
    enter(depth);
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      out.items_.emplace_back();
      value(out.items_.back(), depth);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        skip_ws();
        if (peek() == ']') fail("trailing comma in array");
        continue;
      }
      expect(']', "or ',' in array");
      return;
    }
  }

  void object(Value& out, std::size_t depth) {
    out.kind_ = Value::Kind::Object;
    enter(depth);
    if (peek() == '}') {
      ++pos_;
      return;
    }
    // Linear duplicate scan for the small objects every writer emits; a
    // set once an object grows, so a crafted wide object stays linear.
    constexpr std::size_t kScanLimit = 16;
    std::unordered_set<std::string> seen;
    while (true) {
      if (peek() != '"') fail(at_end() ? "unexpected end of input in object"
                                       : "expected a string key in object");
      const std::size_t key_at = pos_;
      std::string key;
      string(key);
      bool dup = false;
      if (out.members_.size() < kScanLimit) {
        dup = out.find(key) != nullptr;
      } else {
        if (seen.empty())
          for (const Value::Member& m : out.members_) seen.insert(m.first);
        dup = !seen.insert(key).second;
      }
      if (dup) {
        pos_ = key_at;
        fail("duplicate key \"" + key + "\"");
      }
      skip_ws();
      expect(':', "after an object key");
      skip_ws();
      out.members_.emplace_back(std::move(key), Value{});
      value(out.members_.back().second, depth);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        skip_ws();
        if (peek() == '}') fail("trailing comma in object");
        continue;
      }
      expect('}', "or ',' in object");
      return;
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    const char* p = text_.data() + pos_;
    const char* end = p + std::min<std::size_t>(4, text_.size() - pos_);
    const auto [last, ec] = std::from_chars(p, end, v, 16);
    if (ec != std::errc{} || last != p + 4) fail("invalid \\u escape");
    pos_ += 4;
    return v;
  }

  static void put_utf8(std::string& out, unsigned cp) {
    static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[extra] | (cp >> (6 * extra)));
    for (int i = extra - 1; i >= 0; --i)
      out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
  }

  /// One well-formed UTF-8 sequence starting at pos_ (lead byte >= 0x80),
  /// copied to `out`: no overlongs, no surrogates, nothing past U+10FFFF.
  void utf8(std::string& out) {
    const auto byte = [&](std::size_t i) {
      return static_cast<unsigned char>(text_[pos_ + i]);
    };
    const unsigned char lead = byte(0);
    std::size_t len = 0;
    unsigned char lo = 0x80;
    unsigned char hi = 0xBF;
    if (lead >= 0xC2 && lead <= 0xDF) {
      len = 2;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      len = 3;
      if (lead == 0xE0) lo = 0xA0;
      if (lead == 0xED) hi = 0x9F;
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      len = 4;
      if (lead == 0xF0) lo = 0x90;
      if (lead == 0xF4) hi = 0x8F;
    } else {
      fail("invalid UTF-8 in string");
    }
    if (text_.size() - pos_ < len) fail("truncated UTF-8 in string");
    for (std::size_t i = 1; i < len; ++i) {
      const unsigned char c = byte(i);
      if (c < (i == 1 ? lo : 0x80) || c > (i == 1 ? hi : 0xBF))
        fail("invalid UTF-8 in string");
    }
    out.append(text_.substr(pos_, len));
    pos_ += len;
  }

  void string(std::string& out) {
    ++pos_;  // opening quote
    while (true) {
      if (at_end()) fail("unexpected end of input in string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (static_cast<unsigned char>(c) >= 0x80) {
        utf8(out);
        continue;
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (at_end()) fail("unexpected end of input in string escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xDC00 && cp <= 0xDFFF) fail("lone low surrogate");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (text_.substr(pos_, 2) != "\\u") fail("lone high surrogate");
            pos_ += 2;
            const unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          put_utf8(out, cp);
          break;
        }
        default: pos_ -= 2; fail("invalid escape in string");
      }
    }
  }

  void number(Value& out) {
    const std::size_t start = pos_;
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ - from;
    };
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
      if (peek() >= '0' && peek() <= '9') fail("leading zero in number");
    } else if (digits() == 0) {
      pos_ = start;
      fail(at_end() ? "unexpected end of input, expected a value"
                    : "expected a value");
    }
    bool integral = true;
    if (peek() == '.') {
      ++pos_;
      integral = false;
      if (digits() == 0) fail("expected a digit after '.'");
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      integral = false;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (digits() == 0) fail("expected a digit in exponent");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    out.kind_ = Value::Kind::Number;
    const auto [dend, derr] = std::from_chars(first, last, out.number_);
    if (derr != std::errc{} || dend != last) {
      pos_ = start;
      fail("number out of range");
    }
    if (!integral) return;
    if (*first == '-') {
      std::int64_t i = 0;
      const auto [end, err] = std::from_chars(first, last, i);
      if (err == std::errc{} && end == last) {
        out.int_ = true;
        out.bits_ = static_cast<std::uint64_t>(i);
      }
    } else {
      std::uint64_t u = 0;
      const auto [end, err] = std::from_chars(first, last, u);
      if (err == std::errc{} && end == last) {
        out.uint_ = true;
        out.int_ = u <= static_cast<std::uint64_t>(INT64_MAX);
        out.bits_ = u;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text) { return Parser(text).document(); }

std::string load_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) throw Error("cannot read " + path);
  return ss.str();
}

Value parse_file(const std::string& path) {
  const std::string text = load_text(path);
  try {
    return parse(text);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

namespace {

void collect_keys(const Value& v, std::set<std::string>& out) {
  for (const Value::Member& m : v.members()) {
    out.insert(m.first);
    collect_keys(m.second, out);
  }
  for (const Value& item : v.items()) collect_keys(item, out);
}

}  // namespace

std::set<std::string> all_keys(const Value& doc) {
  std::set<std::string> keys;
  collect_keys(doc, keys);
  return keys;
}

// ---------------------------------------------------------------------------
// Ref: path-carrying typed access.

void Ref::fail_expected(const char* what) const {
  throw Error(path_ + ": expected " + what + ", got " + kind_name(kind()));
}

Ref Ref::operator[](std::string_view key) const {
  const std::optional<Ref> m = find(key);
  if (!m) throw Error(path_ + ": missing key \"" + std::string(key) + "\"");
  return *m;
}

std::optional<Ref> Ref::find(std::string_view key) const {
  if (kind() != Value::Kind::Object) fail_expected("an object");
  const Value* m = v_->find(key);
  if (m == nullptr) return std::nullopt;
  return Ref(*m, path_ + "." + std::string(key));
}

Ref Ref::item(std::size_t index) const {
  if (kind() != Value::Kind::Array) fail_expected("an array");
  if (index >= v_->items().size())
    throw Error(path_ + ": no element " + std::to_string(index) + " (size " +
                std::to_string(v_->items().size()) + ")");
  return Ref(v_->items()[index], path_ + "[" + std::to_string(index) + "]");
}

std::vector<Ref> Ref::items() const {
  if (kind() != Value::Kind::Array) fail_expected("an array");
  std::vector<Ref> out;
  out.reserve(v_->items().size());
  for (std::size_t i = 0; i < v_->items().size(); ++i)
    out.emplace_back(v_->items()[i], path_ + "[" + std::to_string(i) + "]");
  return out;
}

std::vector<std::pair<std::string, Ref>> Ref::members() const {
  if (kind() != Value::Kind::Object) fail_expected("an object");
  std::vector<std::pair<std::string, Ref>> out;
  out.reserve(v_->members().size());
  for (const Value::Member& m : v_->members())
    out.emplace_back(m.first, Ref(m.second, path_ + "." + m.first));
  return out;
}

std::vector<std::string> Ref::strings() const {
  std::vector<std::string> out;
  for (const Ref& item : items()) out.push_back(item.str());
  return out;
}

bool Ref::boolean() const {
  if (kind() != Value::Kind::Bool) fail_expected("a bool");
  return v_->boolean();
}

const std::string& Ref::str() const {
  if (kind() != Value::Kind::String) fail_expected("a string");
  return v_->str();
}

double Ref::number() const {
  if (kind() != Value::Kind::Number) fail_expected("a number");
  return v_->number();
}

std::int64_t Ref::int64() const {
  if (kind() != Value::Kind::Number || !v_->is_int64())
    fail_expected("an integer in int64 range");
  return v_->int64();
}

std::uint64_t Ref::uint64() const {
  if (kind() != Value::Kind::Number || !v_->is_uint64())
    fail_expected("a non-negative integer in uint64 range");
  return v_->uint64();
}

}  // namespace ftsort::util::json
