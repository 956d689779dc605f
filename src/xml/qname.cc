#include "xml/qname.h"

#include <functional>

namespace xqp {

size_t QNameHash::operator()(QNameView q) const {
  size_t h1 = std::hash<std::string_view>()(q.uri);
  size_t h2 = std::hash<std::string_view>()(q.local);
  return h1 * 1000003u ^ h2;
}

}  // namespace xqp
