// A minimal JSON value: build, dump, parse.  Just enough machinery for the
// repo's machine-readable outputs (the experiment engine's ExperimentResult
// serialization, BENCH_*.json) to be written AND read back — round-trips
// are testable, and tools/bench_compare.py's consumers stay in sync with
// one producer.
//
// Deliberately small: ordered object members (deterministic output),
// doubles printed with max_digits10 so numeric round-trips are exact,
// UTF-8 strings passed through with standard escapes.  Not a general JSON
// library — no comments, no NaN/Inf (serialized as null), no \u surrogate
// pairs on output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace xplain::util {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : kind_(Kind::kNumber), num_(v) {}
  Json(long v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Scalar accessors with defaults (wrong-kind access yields the default —
  /// consumers validate shape via find()/size() first).
  bool as_bool(bool dflt = false) const {
    return kind_ == Kind::kBool ? bool_ : dflt;
  }
  double as_num(double dflt = 0.0) const {
    return kind_ == Kind::kNumber ? num_ : dflt;
  }
  /// Checked integer accessors for untrusted input: the number when it is
  /// finite, integral and in range for the type; nullopt otherwise (and
  /// for every other kind).  Casting such a double directly is undefined
  /// behaviour.
  std::optional<int> as_int() const;
  std::optional<std::uint64_t> as_u64() const;
  const std::string& as_str() const { return str_; }

  /// Array access.
  void push(Json v) { arr_.push_back(std::move(v)); }
  std::size_t size() const { return arr_.size(); }
  const Json& at(std::size_t i) const { return arr_[i]; }
  const std::vector<Json>& items() const { return arr_; }

  /// Object access (insertion-ordered; set() appends or overwrites).
  void set(const std::string& key, Json v);
  const Json* find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return obj_;
  }

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 2) const;

  /// Deepest container nesting parse() accepts (a top-level array is one
  /// level).  Far above any document the repository writes, and low enough
  /// that hostile input cannot exhaust the stack.
  static constexpr int kMaxDepth = 256;

  /// Parses a JSON document; std::nullopt on any syntax error, trailing
  /// garbage, or nesting deeper than kMaxDepth.
  static std::optional<Json> parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Parses an unsigned 64-bit decimal the way 64-bit seeds travel in JSON
/// (as strings: a JSON number is a double and clips above 2^53): ASCII
/// digits only, the whole string, in [0, 2^64).  Anything else — a sign,
/// whitespace, trailing characters, an empty string or overflow — is
/// std::nullopt.
std::optional<std::uint64_t> parse_u64(const std::string& s);

/// Checked readers for one field of an untrusted document (xplaind request
/// lines, the fuzzer's discovery corpus, the result-cache journal).  Each
/// stores `v` into *out when it has the field's JSON kind and a value the
/// type can hold:
///   double         any number;
///   int            an integral number in int range;
///   std::uint64_t  an integral number in [0, 2^64), or a parse_u64 decimal
///                  string (a JSON number clips above 2^53);
///   bool           true or false;
///   std::string    a string.
/// Otherwise *out is untouched, *err (when non-null) reads "<name> must be
/// ..." and the result is false.
bool read_value(const Json& v, const std::string& name, double* out,
                std::string* err);
bool read_value(const Json& v, const std::string& name, int* out,
                std::string* err);
bool read_value(const Json& v, const std::string& name, std::uint64_t* out,
                std::string* err);
bool read_value(const Json& v, const std::string& name, bool* out,
                std::string* err);
bool read_value(const Json& v, const std::string& name, std::string* out,
                std::string* err);

/// read_value on the member `key` of `obj`, named `where` + key; an absent
/// member keeps *out and succeeds.
template <class T>
bool read_field(const Json& obj, const std::string& where, const char* key,
                T* out, std::string* err) {
  const Json* v = obj.find(key);
  return !v || read_value(*v, where + key, out, err);
}

}  // namespace xplain::util
