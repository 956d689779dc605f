#ifndef XQP_XML_ATOMIC_VALUE_H_
#define XQP_XML_ATOMIC_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "base/status.h"

namespace xqp {

/// Dynamic types of atomic values. This is the untyped-data-model subset the
/// paper's examples use: schema validation (PSVI types) is an optional XQuery
/// feature and is not implemented — see DESIGN.md "Substitutions".
/// xs:decimal is carried in a double but keeps its own tag so the numeric
/// promotion lattice (integer -> decimal -> double) is preserved.
enum class XsType : uint8_t {
  kUntypedAtomic,
  kString,
  kAnyUri,
  kBoolean,
  kInteger,
  kDecimal,
  kDouble,
  kQName,
};

/// Name of `t` as written in queries ("xs:integer", "xdt:untypedAtomic").
std::string_view XsTypeName(XsType t);

/// Parses a type name ("xs:integer", "integer") into an XsType.
/// Returns a static error for unknown names.
Result<XsType> XsTypeFromName(std::string_view name);

/// An XQuery atomic value: a dynamic type tag plus the value itself.
/// "Atomic values carry their type together with the value" (paper, Data
/// Model section): (8, xs:integer) differs from (8, my:shoeSize).
class AtomicValue {
 public:
  AtomicValue() : type_(XsType::kUntypedAtomic), value_(std::string()) {}

  static AtomicValue Untyped(std::string s) {
    return AtomicValue(XsType::kUntypedAtomic, std::move(s));
  }
  static AtomicValue String(std::string s) {
    return AtomicValue(XsType::kString, std::move(s));
  }
  static AtomicValue AnyUri(std::string s) {
    return AtomicValue(XsType::kAnyUri, std::move(s));
  }
  static AtomicValue Boolean(bool b) { return AtomicValue(XsType::kBoolean, b); }
  static AtomicValue Integer(int64_t i) {
    return AtomicValue(XsType::kInteger, i);
  }
  static AtomicValue Decimal(double d) {
    return AtomicValue(XsType::kDecimal, d);
  }
  static AtomicValue Double(double d) { return AtomicValue(XsType::kDouble, d); }
  /// QName values are stored in Clark notation "{uri}local".
  static AtomicValue QNameValue(std::string clark) {
    return AtomicValue(XsType::kQName, std::move(clark));
  }

  XsType type() const { return type_; }

  bool IsNumeric() const {
    return type_ == XsType::kInteger || type_ == XsType::kDecimal ||
           type_ == XsType::kDouble;
  }
  bool IsStringLike() const {
    return type_ == XsType::kString || type_ == XsType::kUntypedAtomic ||
           type_ == XsType::kAnyUri;
  }

  bool AsBool() const { return std::get<bool>(value_); }
  int64_t AsInt() const { return std::get<int64_t>(value_); }
  double AsRawDouble() const { return std::get<double>(value_); }
  const std::string& AsString() const { return std::get<std::string>(value_); }

  /// Numeric value widened to double (valid only when IsNumeric()).
  double NumericAsDouble() const {
    return type_ == XsType::kInteger ? static_cast<double>(AsInt())
                                     : AsRawDouble();
  }

  /// Canonical lexical (string) form, as produced by fn:string / cast to
  /// xs:string.
  std::string Lexical() const;

  /// XQuery "cast as": converts this value to `target`, applying the XML
  /// Schema lexical rules for string sources. Errors use err:FORG0001-style
  /// type errors.
  Result<AtomicValue> CastTo(XsType target) const;

  /// Deep equality used by fn:distinct-values and grouping: NaN equals NaN,
  /// numeric types compare by value across tags, strings by codepoints.
  bool DeepEquals(const AtomicValue& other) const;

  /// Hash consistent with DeepEquals.
  size_t Hash() const;

  friend bool operator==(const AtomicValue& a, const AtomicValue& b) {
    return a.type_ == b.type_ && a.value_ == b.value_;
  }

 private:
  AtomicValue(XsType type, std::string s) : type_(type), value_(std::move(s)) {}
  AtomicValue(XsType type, bool b) : type_(type), value_(b) {}
  AtomicValue(XsType type, int64_t i) : type_(type), value_(i) {}
  AtomicValue(XsType type, double d) : type_(type), value_(d) {}

  XsType type_;
  std::variant<bool, int64_t, double, std::string> value_;
};

/// Parses the lexical form of an xs:double (accepts "INF", "-INF", "NaN").
Result<double> ParseXsDouble(std::string_view lexical);

/// ParseXsDouble without the error message: false where ParseXsDouble fails,
/// otherwise the bit-identical value in `*out`. Allocates nothing for
/// lexical forms under 64 bytes, so bulk casts (the value index) use it.
bool TryParseXsDouble(std::string_view lexical, double* out);

/// Parses the lexical form of an xs:integer.
Result<int64_t> ParseXsInteger(std::string_view lexical);

}  // namespace xqp

#endif  // XQP_XML_ATOMIC_VALUE_H_
