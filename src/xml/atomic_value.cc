#include "xml/atomic_value.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>

#include "base/string_util.h"

namespace xqp {

std::string_view XsTypeName(XsType t) {
  switch (t) {
    case XsType::kUntypedAtomic:
      return "xdt:untypedAtomic";
    case XsType::kString:
      return "xs:string";
    case XsType::kAnyUri:
      return "xs:anyURI";
    case XsType::kBoolean:
      return "xs:boolean";
    case XsType::kInteger:
      return "xs:integer";
    case XsType::kDecimal:
      return "xs:decimal";
    case XsType::kDouble:
      return "xs:double";
    case XsType::kQName:
      return "xs:QName";
  }
  return "xs:anyAtomicType";
}

Result<XsType> XsTypeFromName(std::string_view name) {
  // Accept both prefixed ("xs:integer") and bare ("integer") forms.
  size_t colon = name.find(':');
  std::string_view local =
      colon == std::string_view::npos ? name : name.substr(colon + 1);
  if (local == "untypedAtomic") return XsType::kUntypedAtomic;
  if (local == "string") return XsType::kString;
  if (local == "anyURI") return XsType::kAnyUri;
  if (local == "boolean") return XsType::kBoolean;
  if (local == "integer" || local == "int" || local == "long") {
    return XsType::kInteger;
  }
  if (local == "decimal") return XsType::kDecimal;
  if (local == "double" || local == "float") return XsType::kDouble;
  if (local == "QName") return XsType::kQName;
  return Status::StaticError("unknown atomic type: " + std::string(name));
}

bool TryParseXsDouble(std::string_view lexical, double* out) {
  std::string_view s = TrimXmlWhitespace(lexical);
  if (s == "INF" || s == "+INF") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (s == "-INF") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (s == "NaN") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (s.empty()) return false;
  // strtod needs a terminated copy; short forms (every number in practice)
  // stay on the stack.
  char small[64];
  std::string large;
  char* buf = small;
  if (s.size() >= sizeof(small)) {
    large.assign(s);
    buf = large.data();
  } else {
    std::memcpy(small, s.data(), s.size());
    small[s.size()] = '\0';
  }
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf, &end);
  if (end != buf + s.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

Result<double> ParseXsDouble(std::string_view lexical) {
  double v;
  if (TryParseXsDouble(lexical, &v)) return v;
  std::string_view s = TrimXmlWhitespace(lexical);
  if (s.empty()) {
    return Status::TypeError("cannot cast empty string to xs:double");
  }
  return Status::TypeError("cannot cast \"" + std::string(s) +
                           "\" to xs:double");
}

Result<int64_t> ParseXsInteger(std::string_view lexical) {
  std::string_view s = TrimXmlWhitespace(lexical);
  if (s.empty()) {
    return Status::TypeError("cannot cast empty string to xs:integer");
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::TypeError("cannot cast \"" + buf + "\" to xs:integer");
  }
  return static_cast<int64_t>(v);
}

namespace {

std::string FormatDecimal(double v) {
  // xs:decimal has no exponent in its lexical form.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10f", v);
  // Trim trailing zeros but keep at least one fractional digit.
  std::string s(buf);
  size_t last = s.find_last_not_of('0');
  if (s[last] == '.') ++last;
  s.erase(last + 1);
  return s;
}

}  // namespace

std::string AtomicValue::Lexical() const {
  switch (type_) {
    case XsType::kUntypedAtomic:
    case XsType::kString:
    case XsType::kAnyUri:
    case XsType::kQName:
      return AsString();
    case XsType::kBoolean:
      return AsBool() ? "true" : "false";
    case XsType::kInteger:
      return std::to_string(AsInt());
    case XsType::kDecimal:
      return FormatDecimal(AsRawDouble());
    case XsType::kDouble:
      return FormatDouble(AsRawDouble());
  }
  return std::string();
}

Result<AtomicValue> AtomicValue::CastTo(XsType target) const {
  if (target == type_) return *this;
  switch (target) {
    case XsType::kString:
      return String(Lexical());
    case XsType::kUntypedAtomic:
      return Untyped(Lexical());
    case XsType::kAnyUri:
      if (!IsStringLike()) {
        return Status::TypeError("cannot cast " +
                                 std::string(XsTypeName(type_)) +
                                 " to xs:anyURI");
      }
      return AnyUri(std::string(TrimXmlWhitespace(AsString())));
    case XsType::kDouble: {
      if (IsNumeric()) return Double(NumericAsDouble());
      if (type_ == XsType::kBoolean) return Double(AsBool() ? 1.0 : 0.0);
      if (IsStringLike()) {
        XQP_ASSIGN_OR_RETURN(double v, ParseXsDouble(AsString()));
        return Double(v);
      }
      break;
    }
    case XsType::kDecimal: {
      if (IsNumeric()) {
        double v = NumericAsDouble();
        if (std::isnan(v) || std::isinf(v)) {
          return Status::TypeError("cannot cast NaN/INF to xs:decimal");
        }
        return Decimal(v);
      }
      if (type_ == XsType::kBoolean) return Decimal(AsBool() ? 1.0 : 0.0);
      if (IsStringLike()) {
        XQP_ASSIGN_OR_RETURN(double v, ParseXsDouble(AsString()));
        if (std::isnan(v) || std::isinf(v)) {
          return Status::TypeError("cannot cast NaN/INF to xs:decimal");
        }
        return Decimal(v);
      }
      break;
    }
    case XsType::kInteger: {
      if (type_ == XsType::kInteger) return *this;
      if (IsNumeric()) {
        double v = NumericAsDouble();
        if (std::isnan(v) || std::isinf(v)) {
          return Status::TypeError("cannot cast NaN/INF to xs:integer");
        }
        return Integer(static_cast<int64_t>(std::trunc(v)));
      }
      if (type_ == XsType::kBoolean) return Integer(AsBool() ? 1 : 0);
      if (IsStringLike()) {
        XQP_ASSIGN_OR_RETURN(int64_t v, ParseXsInteger(AsString()));
        return Integer(v);
      }
      break;
    }
    case XsType::kBoolean: {
      if (IsNumeric()) {
        double v = NumericAsDouble();
        return Boolean(!(v == 0.0 || std::isnan(v)));
      }
      if (IsStringLike()) {
        std::string_view s = TrimXmlWhitespace(AsString());
        if (s == "true" || s == "1") return Boolean(true);
        if (s == "false" || s == "0") return Boolean(false);
        return Status::TypeError("cannot cast \"" + std::string(s) +
                                 "\" to xs:boolean");
      }
      break;
    }
    case XsType::kQName: {
      if (IsStringLike()) return QNameValue(AsString());
      break;
    }
    default:
      break;
  }
  return Status::TypeError("cannot cast " + std::string(XsTypeName(type_)) +
                           " to " + std::string(XsTypeName(target)));
}

bool AtomicValue::DeepEquals(const AtomicValue& other) const {
  if (IsNumeric() && other.IsNumeric()) {
    double a = NumericAsDouble();
    double b = other.NumericAsDouble();
    if (std::isnan(a) && std::isnan(b)) return true;  // fn:distinct-values.
    return a == b;
  }
  if (IsStringLike() && other.IsStringLike()) {
    return AsString() == other.AsString();
  }
  if (type_ == XsType::kBoolean && other.type_ == XsType::kBoolean) {
    return AsBool() == other.AsBool();
  }
  if (type_ == XsType::kQName && other.type_ == XsType::kQName) {
    return AsString() == other.AsString();
  }
  return false;
}

size_t AtomicValue::Hash() const {
  if (IsNumeric()) {
    double v = NumericAsDouble();
    if (std::isnan(v)) return 0x7ff8dead;
    if (v == 0.0) return 0;  // +0 and -0 hash alike.
    return std::hash<double>()(v);
  }
  if (type_ == XsType::kBoolean) return AsBool() ? 1231 : 1237;
  return std::hash<std::string>()(AsString());
}

}  // namespace xqp
