#include "core/mappers.hpp"

#include "common/error.hpp"

namespace tarr::core {
namespace {

using mapping::Pattern;

constexpr MapperRow kMappers[] = {
    {MapperKind::None, nullptr, "default",
     [](Pattern, int) -> std::unique_ptr<mapping::Mapper> { return nullptr; }},
    {MapperKind::Heuristic, "heuristic", "Hrstc",
     [](Pattern p, int) { return mapping::make_heuristic(p); }},
    {MapperKind::ScotchLike, "scotch", "Scotch",
     [](Pattern p, int) { return mapping::make_scotch_like_mapper(p); }},
    {MapperKind::GreedyGraph, "greedy", "Greedy",
     [](Pattern p, int) { return mapping::make_greedy_graph_mapper(p); }},
    {MapperKind::MvapichCyclic, "mvapich-cyclic", "MV-cyclic",
     [](Pattern, int cpn) { return mapping::make_mvapich_cyclic_mapper(cpn); }},
};

}  // namespace

const MapperRow& mapper_row(MapperKind kind) {
  for (const MapperRow& row : kMappers)
    if (row.kind == kind) return row;
  throw Error("mapper_row: unknown mapper kind");
}

const MapperRow* find_mapper(std::string_view key) {
  for (const MapperRow& row : kMappers)
    if (row.key != nullptr && key == row.key) return &row;
  return nullptr;
}

const char* to_string(MapperKind k) { return mapper_row(k).label; }

}  // namespace tarr::core
