#include "oracle.h"

#include <cstdlib>
#include <initializer_list>
#include <set>
#include <string_view>

namespace xqpbench {
namespace {

using xqp::Document;
using xqp::NodeIndex;
using xqp::NodeKind;

/// Child/attribute/descendant walks over the pre-order node table.
class Walker {
 public:
  explicit Walker(const Document& doc) : doc_(doc) {}

  uint32_t Name(std::string_view local) const {
    return doc_.FindNameId("", local);
  }

  bool IsElement(NodeIndex n, uint32_t name) const {
    const xqp::NodeRecord& r = doc_.node(n);
    return name != xqp::kNoName && r.kind == NodeKind::kElement &&
           r.name_id == name;
  }

  std::vector<NodeIndex> Children(NodeIndex n, std::string_view local) const {
    const uint32_t name = Name(local);
    std::vector<NodeIndex> out;
    for (NodeIndex c = doc_.node(n).first_child; c != xqp::kNullNode;
         c = doc_.node(c).next_sibling) {
      if (IsElement(c, name)) out.push_back(c);
    }
    return out;
  }

  /// Nodes reached from `from` by a chain of child steps.
  std::vector<NodeIndex> Path(std::vector<NodeIndex> from,
                              std::initializer_list<const char*> steps) const {
    for (const char* step : steps) {
      std::vector<NodeIndex> next;
      for (NodeIndex n : from) {
        for (NodeIndex c : Children(n, step)) next.push_back(c);
      }
      from = std::move(next);
    }
    return from;
  }

  std::optional<std::string_view> Attr(NodeIndex n,
                                       std::string_view local) const {
    const uint32_t name = Name(local);
    for (NodeIndex a = doc_.node(n).first_attr; a != xqp::kNullNode;
         a = doc_.node(a).next_sibling) {
      if (name != xqp::kNoName && doc_.node(a).name_id == name) {
        return doc_.value(a);
      }
    }
    return std::nullopt;
  }

  std::vector<NodeIndex> Descendants(NodeIndex n,
                                     std::string_view local) const {
    const uint32_t name = Name(local);
    std::vector<NodeIndex> out;
    for (NodeIndex i = n + 1; i <= doc_.node(n).end; ++i) {
      if (IsElement(i, name)) out.push_back(i);
    }
    return out;
  }

  std::string Str(NodeIndex n) const { return doc_.StringValue(n); }

  double Num(std::string_view s) const {
    return std::strtod(std::string(s).c_str(), nullptr);
  }

 private:
  const Document& doc_;
};

}  // namespace

XMarkFacts ComputeXMarkFacts(const Document& doc) {
  Walker w(doc);
  XMarkFacts f;
  const std::vector<NodeIndex> site = {doc.root_element()};
  const std::vector<NodeIndex> persons = w.Path(site, {"people", "person"});
  const std::vector<NodeIndex> regions = w.Path(site, {"regions"});
  const std::vector<NodeIndex> open = w.Path(site, {"open_auctions",
                                                    "open_auction"});
  const std::vector<NodeIndex> closed = w.Path(site, {"closed_auctions",
                                                      "closed_auction"});
  auto name_of = [&](NodeIndex n) {
    std::vector<NodeIndex> names = w.Children(n, "name");
    return names.empty() ? std::string() : w.Str(names[0]);
  };

  size_t high_income = 0, no_homepage = 0, preferred = 0, standard = 0,
         challenge = 0, no_income = 0;
  std::set<std::string> categories;
  for (NodeIndex p : persons) {
    f.people.push_back({std::string(w.Attr(p, "id").value_or("")),
                        name_of(p)});
    if (w.Children(p, "homepage").empty()) ++no_homepage;
    bool has_income = false, high = false;
    for (NodeIndex profile : w.Children(p, "profile")) {
      if (std::optional<std::string_view> income = w.Attr(profile, "income")) {
        has_income = true;
        const double v = w.Num(*income);
        high = high || v > 50000;
        if (v >= 50000) ++preferred;
        if (v < 50000 && v >= 30000) ++standard;
        if (v < 30000) ++challenge;
      }
      for (NodeIndex interest : w.Children(profile, "interest")) {
        if (auto c = w.Attr(interest, "category")) categories.emplace(*c);
      }
    }
    if (high) ++high_income;
    if (!has_income) ++no_income;
  }

  size_t gold = 0;
  for (NodeIndex r : regions) {
    for (NodeIndex item : w.Descendants(r, "item")) {
      f.items.push_back({std::string(w.Attr(item, "id").value_or("")),
                         name_of(item)});
    }
  }
  for (NodeIndex item : w.Descendants(site[0], "item")) {
    std::vector<NodeIndex> desc = w.Children(item, "description");
    if (!desc.empty() && w.Str(desc[0]).find("gold") != std::string::npos) {
      ++gold;
    }
  }

  size_t with_bidder = 0, with_reserve = 0;
  for (NodeIndex a : open) {
    if (!w.Children(a, "bidder").empty()) ++with_bidder;
    if (!w.Children(a, "reserve").empty()) ++with_reserve;
    for (NodeIndex c : w.Children(a, "current")) {
      f.open_current.push_back(w.Num(w.Str(c)));
    }
  }

  size_t price_ge_40 = 0, keyword_auctions = 0, keywords = 0;
  for (NodeIndex c : closed) {
    for (NodeIndex price : w.Children(c, "price")) {
      if (w.Num(w.Str(price)) >= 40) ++price_ge_40;
    }
    for (NodeIndex buyer : w.Children(c, "buyer")) {
      if (auto person = w.Attr(buyer, "person")) {
        ++f.closed_by_buyer[std::string(*person)];
      }
    }
    const size_t k = w.Path({c}, {"annotation", "description", "parlist",
                                  "listitem", "text", "keyword"})
                         .size();
    keywords += k;
    if (k > 0) ++keyword_auctions;
  }

  std::string person0_name;
  for (const XMarkFacts::Entity& p : f.people) {
    if (p.id == "person0") person0_name = p.name;
  }
  const size_t region_items =
      regions.empty() ? 0 : w.Descendants(regions[0], "item").size();
  const size_t kinds = w.Descendants(site[0], "description").size() +
                       w.Descendants(site[0], "annotation").size() +
                       w.Descendants(site[0], "emailaddress").size();
  const std::vector<NodeIndex> australia =
      w.Path(regions, {"australia", "item"});

  f.cardinality = {
      {"Q1", 1},
      {"Q2", with_bidder},
      {"Q5", 1},
      {"Q6", regions.size()},
      {"Q7", 1},
      {"Q8", persons.size()},
      {"Q9", persons.size()},
      {"Q10", categories.size()},
      {"Q11", persons.size()},
      {"Q12", high_income},
      {"Q13", australia.size()},
      {"Q14", gold},
      {"Q15", keywords},
      {"Q16", keyword_auctions},
      {"Q17", no_homepage},
      {"Q18", with_reserve},
      {"Q19", f.items.size()},
      {"Q20", 1},
  };
  f.value = {
      {"Q1", person0_name},
      {"Q5", std::to_string(price_ge_40)},
      {"Q6", std::to_string(region_items)},
      {"Q7", std::to_string(kinds)},
      {"Q20", "<result><preferred>" + std::to_string(preferred) +
                  "</preferred><standard>" + std::to_string(standard) +
                  "</standard><challenge>" + std::to_string(challenge) +
                  "</challenge><na>" + std::to_string(no_income) +
                  "</na></result>"},
  };
  return f;
}

}  // namespace xqpbench
