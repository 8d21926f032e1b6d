#include "core/info.hpp"

#include <algorithm>
#include <cctype>

#include "common/error.hpp"
#include "core/mappers.hpp"

namespace tarr::core {

namespace {

std::string lower_trim(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c)))
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

}  // namespace

TopoAllgatherConfig parse_info(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  TopoAllgatherConfig cfg;
  bool enabled = true;
  for (const auto& [raw_key, raw_value] : kv) {
    const std::string key = lower_trim(raw_key);
    const std::string value = lower_trim(raw_value);
    if (key == "tarr_reorder") {
      if (value == "enabled") {
        enabled = true;
      } else if (value == "disabled") {
        enabled = false;
      } else {
        throw Error("parse_info: bad tarr_reorder value: " + value);
      }
    } else if (key == "tarr_mapper") {
      const MapperRow* row = find_mapper(value);
      if (row == nullptr)
        throw Error("parse_info: bad tarr_mapper value: " + value);
      cfg.mapper = row->kind;
    } else if (key == "tarr_order_fix") {
      if (value == "initcomm") {
        cfg.fix = collectives::OrderFix::InitComm;
      } else if (value == "endshfl") {
        cfg.fix = collectives::OrderFix::EndShuffle;
      } else {
        throw Error("parse_info: bad tarr_order_fix value: " + value);
      }
    } else if (key == "tarr_hierarchical") {
      if (value == "true") {
        cfg.hierarchical = true;
      } else if (value == "false") {
        cfg.hierarchical = false;
      } else {
        throw Error("parse_info: bad tarr_hierarchical value: " + value);
      }
    } else if (key == "tarr_intra") {
      if (value == "binomial") {
        cfg.intra = collectives::IntraAlgo::Binomial;
      } else if (value == "linear") {
        cfg.intra = collectives::IntraAlgo::Linear;
      } else {
        throw Error("parse_info: bad tarr_intra value: " + value);
      }
    } else {
      throw Error("parse_info: unknown info key: " + key);
    }
  }
  if (!enabled) cfg.mapper = MapperKind::None;
  return cfg;
}

TopoAllgatherConfig parse_info_string(const std::string& s) {
  std::vector<std::pair<std::string, std::string>> kv;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t end = std::min(s.find(';', pos), s.size());
    const std::string segment = s.substr(pos, end - pos);
    pos = end + 1;
    if (lower_trim(segment).empty()) continue;
    const std::size_t eq = segment.find('=');
    if (eq == std::string::npos)
      throw Error("parse_info_string: segment without '=': " + segment);
    kv.emplace_back(segment.substr(0, eq), segment.substr(eq + 1));
  }
  return parse_info(kv);
}

}  // namespace tarr::core
