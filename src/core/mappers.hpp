#pragma once

#include <memory>
#include <string_view>

#include "mapping/mapper.hpp"

/// \file mappers.hpp
/// The mapper table: one row per way this library reorders a communicator
/// — the paper's fine-tuned heuristics (§IV), the Scotch-like and greedy
/// graph mappers and MVAPICH's block-to-cyclic reorder it is evaluated
/// against (§V-A1).  TopoAllgather, the `tarr_mapper` info key and `tarr
/// --mapper` all build their mappers from this one list.

namespace tarr::core {

/// Which mapping machinery to use (None reproduces the MVAPICH-default
/// baseline the paper's improvement percentages are computed against).
enum class MapperKind { None, Heuristic, ScotchLike, GreedyGraph,
                        MvapichCyclic };

/// One row of the mapper table.
struct MapperRow {
  MapperKind kind;
  /// The value `tarr_mapper` and `tarr --mapper` accept; nullptr for None,
  /// which `tarr_reorder=disabled` selects.
  const char* key;
  /// The short name tables and snapshot keys print (to_string).
  const char* label;
  /// The kind's mapper for `pattern`; the MVAPICH reorder reads
  /// `cores_per_node` instead.  None builds nothing (nullptr).
  std::unique_ptr<mapping::Mapper> (*make)(mapping::Pattern pattern,
                                           int cores_per_node);
};

/// The row of `kind`.
const MapperRow& mapper_row(MapperKind kind);

/// The row whose key is `key`; nullptr for an unknown or empty key.
const MapperRow* find_mapper(std::string_view key);

const char* to_string(MapperKind k);

}  // namespace tarr::core
