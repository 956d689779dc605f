// Engine-independent answers for the benchmark's queries, computed by
// walking a parsed document's node table directly (no query compiler, no
// execution backend, no shared runtime).

#ifndef XQPBENCH_ORACLE_H_
#define XQPBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "xml/document.h"

namespace xqpbench {

/// Facts about one generated XMark document, taken from its node table.
struct XMarkFacts {
  struct Entity {
    std::string id;
    std::string name;
  };
  std::vector<Entity> people;  // Document order.
  std::vector<Entity> items;   // Every item under site/regions.
  std::vector<double> open_current;  // open_auction/current per auction.
  std::map<std::string, size_t> closed_by_buyer;  // buyer/@person -> count.

  /// Expected result cardinality (and, for single-value queries, the
  /// expected serialized value) of the adapted XMark queries, keyed by id.
  /// Queries without an independent oracle are absent.
  std::map<std::string, size_t> cardinality;
  std::map<std::string, std::string> value;
};

/// Walks `doc` (a generated XMark auction document).
XMarkFacts ComputeXMarkFacts(const xqp::Document& doc);

}  // namespace xqpbench

#endif  // XQPBENCH_ORACLE_H_
