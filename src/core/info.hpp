#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/topoallgather.hpp"

/// \file info.hpp
/// MPI-info-key style configuration, as the paper proposes in §IV: "we
/// could also use an info key to allow the programmer to enable/disable the
/// whole approach for each communicator separately."
///
/// Recognized keys (all optional; unknown keys are rejected so typos fail
/// loudly, like MPI implementations' strict-info modes):
///
///   tarr_reorder       = enabled | disabled        (default enabled)
///   tarr_mapper        = a key of the mapper table (core/mappers.hpp):
///                        heuristic | scotch | greedy | mvapich-cyclic
///                        (default heuristic)
///   tarr_order_fix     = initcomm | endshfl        (default initcomm)
///   tarr_hierarchical  = true | false              (default false)
///   tarr_intra         = binomial | linear         (default binomial)

namespace tarr::core {

/// Parse key/value pairs into the TopoAllgather settings they describe;
/// `tarr_reorder = disabled` selects MapperKind::None whatever order the
/// keys come in.  Throws tarr::Error on unknown keys or values.
TopoAllgatherConfig parse_info(
    const std::vector<std::pair<std::string, std::string>>& kv);

/// Parse a compact "key=value;key=value" string (whitespace around tokens
/// is ignored; empty segments are allowed).
TopoAllgatherConfig parse_info_string(const std::string& s);

}  // namespace tarr::core
