#include "capi/tarr.h"

#include <string>

#include "common/error.hpp"
#include "core/info.hpp"
#include "core/topoallgather.hpp"
#include "simmpi/layout.hpp"

/* Opaque handle definitions (C-visible struct tags wrapping C++ objects). */
struct tarr_machine_s {
  tarr::topology::Machine machine;
};
struct tarr_comm_s {
  tarr::simmpi::Communicator comm;
};
struct tarr_framework_s {
  tarr::core::ReorderFramework framework;
};
struct tarr_allgather_s {
  tarr::core::TopoAllgather allgather;
};

namespace {

thread_local std::string g_last_error;

/// Run `fn` translating tarr::Error (and anything else) into TARR_ERROR +
/// the thread-local message.
template <typename Fn>
int guarded(Fn&& fn) {
  try {
    fn();
    g_last_error.clear();
    return TARR_OK;
  } catch (const std::exception& e) {
    g_last_error = e.what();
    return TARR_ERROR;
  } catch (...) {
    g_last_error = "tarr: unknown error";
    return TARR_ERROR;
  }
}

}  // namespace

extern "C" {

const char* tarr_last_error(void) { return g_last_error.c_str(); }

int tarr_machine_create_gpc(int nodes, tarr_machine_t* out) {
  return guarded([&] {
    TARR_REQUIRE(out != nullptr, "tarr_machine_create_gpc: null out");
    *out = new tarr_machine_s{tarr::topology::Machine::gpc(nodes)};
  });
}

int tarr_machine_create_single_switch(int nodes, tarr_machine_t* out) {
  return guarded([&] {
    TARR_REQUIRE(out != nullptr,
                 "tarr_machine_create_single_switch: null out");
    *out = new tarr_machine_s{tarr::topology::Machine::single_switch(nodes)};
  });
}

void tarr_machine_destroy(tarr_machine_t m) { delete m; }

int tarr_machine_total_cores(tarr_machine_t m) {
  return m != nullptr ? m->machine.total_cores() : TARR_ERROR;
}

int tarr_machine_num_nodes(tarr_machine_t m) {
  return m != nullptr ? m->machine.num_nodes() : TARR_ERROR;
}

int tarr_comm_create(tarr_machine_t m, int procs, const char* layout,
                     tarr_comm_t* out) {
  return guarded([&] {
    TARR_REQUIRE(m != nullptr && out != nullptr,
                 "tarr_comm_create: null argument");
    const tarr::simmpi::LayoutSpec spec =
        layout != nullptr && layout[0] != '\0'
            ? tarr::simmpi::parse_layout_spec(layout)
            : tarr::simmpi::LayoutSpec{};
    *out = new tarr_comm_s{tarr::simmpi::Communicator(
        m->machine, tarr::simmpi::make_layout(m->machine, procs, spec))};
  });
}

void tarr_comm_destroy(tarr_comm_t c) { delete c; }

int tarr_comm_size(tarr_comm_t c) {
  return c != nullptr ? c->comm.size() : TARR_ERROR;
}

int tarr_comm_core_of(tarr_comm_t c, int rank) {
  if (c == nullptr || rank < 0 || rank >= c->comm.size()) {
    g_last_error = "tarr_comm_core_of: bad communicator or rank";
    return TARR_ERROR;
  }
  return c->comm.core_of(rank);
}

int tarr_framework_create(tarr_machine_t m, uint64_t seed,
                          tarr_framework_t* out) {
  return guarded([&] {
    TARR_REQUIRE(m != nullptr && out != nullptr,
                 "tarr_framework_create: null argument");
    tarr::core::ReorderFramework::Options opts;
    opts.seed = seed;
    *out = new tarr_framework_s{
        tarr::core::ReorderFramework(m->machine, opts)};
  });
}

void tarr_framework_destroy(tarr_framework_t f) { delete f; }

double tarr_framework_extraction_seconds(tarr_framework_t f) {
  return f != nullptr ? f->framework.distance_extraction_seconds() : 0.0;
}

int tarr_allgather_create(tarr_framework_t f, tarr_comm_t c,
                          const char* info, tarr_allgather_t* out) {
  return guarded([&] {
    TARR_REQUIRE(f != nullptr && c != nullptr && out != nullptr,
                 "tarr_allgather_create: null argument");
    *out = new tarr_allgather_s{tarr::core::TopoAllgather(
        f->framework, c->comm,
        tarr::core::parse_info_string(info != nullptr ? info : ""))};
  });
}

void tarr_allgather_destroy(tarr_allgather_t a) { delete a; }

int tarr_allgather_latency(tarr_allgather_t a, long long msg_bytes,
                           double* out_usec) {
  return guarded([&] {
    TARR_REQUIRE(a != nullptr && out_usec != nullptr,
                 "tarr_allgather_latency: null argument");
    *out_usec = a->allgather.latency(static_cast<tarr::Bytes>(msg_bytes));
  });
}

int tarr_allgather_verify(tarr_allgather_t a, long long msg_bytes) {
  return guarded([&] {
    TARR_REQUIRE(a != nullptr, "tarr_allgather_verify: null argument");
    a->allgather.run_and_check(static_cast<tarr::Bytes>(msg_bytes));
  });
}

double tarr_allgather_mapping_seconds(tarr_allgather_t a) {
  return a != nullptr ? a->allgather.mapping_seconds() : 0.0;
}

}  // extern "C"
