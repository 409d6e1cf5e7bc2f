// The one JSON reader: a strict RFC 8259 parser that builds a small DOM,
// shared by every consumer of the repo's exports (ftdiag, the bench
// gates, the Chrome-trace validator).
//
// Strict means a document either parses exactly or is refused with the
// byte offset of the first problem:
//  - one value per text; trailing bytes, trailing commas, NaN/Infinity,
//    leading zeros, raw control characters in strings, invalid UTF-8 and
//    lone surrogates are errors;
//  - an object refuses a duplicate key and keeps its keys in file order;
//  - nesting deeper than kMaxDepth is an error, so a crafted file cannot
//    overflow the parser's stack.
// An integer literal stays exact (int64 when it fits, uint64 when it is
// non-negative and fits); every number also reads as a double.
//
// Readers walk the DOM through Ref, which carries the path a value was
// reached by ("$.buckets[2].trials"): a missing key or a wrong type
// throws Error naming that path and the expected type. Readers catch the
// one Error type at their boundary and refuse the file (ftdiag: exit 2).
//
// There is no writer here: the exports stay hand-rolled, and this module
// only decides how they are read back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ftsort::util::json {

/// Deepest array/object nesting a document may have. The repo's writers
/// nest at most five levels.
inline constexpr std::size_t kMaxDepth = 128;

/// Every parse, file and access failure. Parse errors read
/// "byte N: ...", file errors lead with the file path, access errors
/// lead with the JSON path.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, Value>;

  Kind kind() const { return kind_; }
  bool boolean() const { return bool_; }
  /// Number: exact integer views, and the double every number has.
  bool is_int64() const { return int_; }
  bool is_uint64() const { return uint_; }
  std::int64_t int64() const { return static_cast<std::int64_t>(bits_); }
  std::uint64_t uint64() const { return bits_; }
  double number() const { return number_; }
  const std::string& str() const { return str_; }
  const std::vector<Value>& items() const { return items_; }
  /// Object members in file order.
  const std::vector<Member>& members() const { return members_; }
  /// Object member named `key`, or null (also for a non-object).
  const Value* find(std::string_view key) const;

 private:
  friend class Parser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  bool int_ = false;
  bool uint_ = false;
  std::uint64_t bits_ = 0;  ///< the exact integer, two's complement
  double number_ = 0.0;
  std::string str_;
  std::vector<Value> items_;
  std::vector<Member> members_;
};

/// Parse one document. Throws Error("byte N: ...").
Value parse(std::string_view text);

/// A whole file's bytes. Throws Error("cannot open PATH").
std::string load_text(const std::string& path);

/// Parse a whole file. Throws Error("PATH: byte N: ...").
Value parse_file(const std::string& path);

/// Every object key anywhere in `doc`, at any depth.
std::set<std::string> all_keys(const Value& doc);

/// A value plus the path it was reached by. Ref borrows: the Value it
/// points into must outlive it.
class Ref {
 public:
  explicit Ref(const Value& v, std::string path = "$")
      : v_(&v), path_(std::move(path)) {}

  const Value& value() const { return *v_; }
  const std::string& path() const { return path_; }
  Value::Kind kind() const { return v_->kind(); }

  /// Object member; throws when this is not an object or has no `key`.
  Ref operator[](std::string_view key) const;
  /// Object member, or nullopt when absent; throws on a non-object.
  std::optional<Ref> find(std::string_view key) const;
  /// Array element; throws when this is not an array or out of range.
  Ref item(std::size_t index) const;
  /// Array elements in order; throws on a non-array.
  std::vector<Ref> items() const;
  /// Object members in file order; throws on a non-object.
  std::vector<std::pair<std::string, Ref>> members() const;
  /// An array of strings; throws on a non-array or a non-string element.
  std::vector<std::string> strings() const;

  bool boolean() const;
  const std::string& str() const;
  double number() const;
  std::int64_t int64() const;
  std::uint64_t uint64() const;

  /// Member `key` read as T (bool, std::int64_t, std::uint64_t, double or
  /// std::string), or `fallback` when the key is absent. A present member
  /// of the wrong type still throws.
  template <class T>
  T get_or(std::string_view key, T fallback) const;

 private:
  /// Throws Error("PATH: expected WHAT, got KIND").
  [[noreturn]] void fail_expected(const char* what) const;

  const Value* v_;
  std::string path_;
};

template <class T>
T Ref::get_or(std::string_view key, T fallback) const {
  const std::optional<Ref> m = find(key);
  if (!m) return fallback;
  if constexpr (std::is_same_v<T, bool>) {
    return m->boolean();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return m->int64();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return m->uint64();
  } else if constexpr (std::is_same_v<T, double>) {
    return m->number();
  } else {
    static_assert(std::is_same_v<T, std::string>, "unsupported get_or type");
    return m->str();
  }
}

}  // namespace ftsort::util::json
