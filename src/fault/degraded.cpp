#include "fault/degraded.hpp"

namespace tarr::fault {

DegradedTopology::DegradedTopology(const topology::Machine& base,
                                   FaultMask mask)
    : base_(&base),
      mask_(std::move(mask)),
      machine_(base.shape(), mask_.apply(base.network()),
               topology::Router::HostPolicy::AllowUnreachable) {}

}  // namespace tarr::fault
