#ifndef XQP_XML_QNAME_H_
#define XQP_XML_QNAME_H_

#include <string>
#include <string_view>

namespace xqp {

/// Expanded XML qualified name: namespace URI + local part, plus the lexical
/// prefix kept for serialization fidelity. Equality and hashing ignore the
/// prefix, per the XML Namespaces recommendation.
struct QName {
  std::string uri;
  std::string prefix;
  std::string local;

  QName() = default;
  explicit QName(std::string local_name) : local(std::move(local_name)) {}
  QName(std::string uri_in, std::string local_in)
      : uri(std::move(uri_in)), local(std::move(local_in)) {}
  QName(std::string uri_in, std::string prefix_in, std::string local_in)
      : uri(std::move(uri_in)),
        prefix(std::move(prefix_in)),
        local(std::move(local_in)) {}

  bool empty() const { return local.empty(); }

  /// Lexical form "prefix:local" (or just "local").
  std::string Lexical() const {
    return prefix.empty() ? local : prefix + ":" + local;
  }

  /// Clark notation "{uri}local", used in diagnostics.
  std::string Clark() const {
    return uri.empty() ? local : "{" + uri + "}" + local;
  }

  friend bool operator==(const QName& a, const QName& b) {
    return a.local == b.local && a.uri == b.uri;
  }
  friend bool operator!=(const QName& a, const QName& b) { return !(a == b); }
  friend bool operator<(const QName& a, const QName& b) {
    if (a.uri != b.uri) return a.uri < b.uri;
    return a.local < b.local;
  }
};

/// Borrowed expanded name: the key type of allocation-free lookups in
/// QName-keyed hash maps (see QNameHash / QNameEq).
struct QNameView {
  std::string_view uri;
  std::string_view local;
};

/// Hash for QName (uri + local). Transparent: a QNameView hashes to the
/// same value as the QName it spells, so maps declared with QNameHash and
/// QNameEq can be probed without building a QName.
struct QNameHash {
  using is_transparent = void;
  size_t operator()(const QName& q) const {
    return (*this)(QNameView{q.uri, q.local});
  }
  size_t operator()(QNameView q) const;
};

/// Expanded-name equality (prefix ignored), transparent over QNameView.
struct QNameEq {
  using is_transparent = void;
  static QNameView View(const QName& q) { return {q.uri, q.local}; }
  static QNameView View(QNameView q) { return q; }
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    QNameView x = View(a);
    QNameView y = View(b);
    return x.local == y.local && x.uri == y.uri;
  }
};

}  // namespace xqp

#endif  // XQP_XML_QNAME_H_
