// Tests of the C API facade, including its error-reporting contract.

#include "capi/tarr.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prof/profiler.hpp"
#include "trace/sink.hpp"

namespace {

/// Records the wall spans the library emits through the thread sink.
struct WallSpans : tarr::trace::TraceSink {
  std::vector<tarr::trace::WallSpan> spans;
  void on_wall_span(const tarr::trace::WallSpan& s) override {
    spans.push_back(s);
  }
};

struct Handles {
  tarr_machine_t machine = nullptr;
  tarr_comm_t comm = nullptr;
  tarr_framework_t framework = nullptr;
  tarr_allgather_t allgather = nullptr;

  ~Handles() {
    tarr_allgather_destroy(allgather);
    tarr_framework_destroy(framework);
    tarr_comm_destroy(comm);
    tarr_machine_destroy(machine);
  }
};

TEST(CApi, FullLifecycle) {
  Handles h;
  ASSERT_EQ(tarr_machine_create_gpc(8, &h.machine), TARR_OK);
  EXPECT_EQ(tarr_machine_total_cores(h.machine), 64);
  EXPECT_EQ(tarr_machine_num_nodes(h.machine), 8);

  ASSERT_EQ(tarr_comm_create(h.machine, 64, "cyclic-bunch", &h.comm),
            TARR_OK);
  EXPECT_EQ(tarr_comm_size(h.comm), 64);
  EXPECT_GE(tarr_comm_core_of(h.comm, 0), 0);

  ASSERT_EQ(tarr_framework_create(h.machine, 1, &h.framework), TARR_OK);
  ASSERT_EQ(tarr_allgather_create(h.framework, h.comm,
                                  "tarr_mapper=heuristic;"
                                  "tarr_order_fix=initcomm",
                                  &h.allgather),
            TARR_OK);

  // The first latency query extracts distances and reorders, once each,
  // and the two timing accessors return the seconds measured for those
  // runs: the same values the framework emits as wall spans.
  double latency = 0.0;
  tarr::prof::Profiler profiler;
  WallSpans wall;
  {
    tarr::prof::ScopedThreadProfiler guard(&profiler);
    tarr::trace::ScopedThreadSink sink(&wall);
    ASSERT_EQ(tarr_allgather_latency(h.allgather, 64 * 1024, &latency),
              TARR_OK);
  }
  EXPECT_GT(latency, 0.0);
  const tarr::prof::Profile p = profiler.snapshot();
  for (const char* scope : {"reorder", "reorder/distance-extraction"}) {
    ASSERT_NE(p.find(scope), nullptr) << scope;
    EXPECT_EQ(p.find(scope)->calls, 1) << scope;
  }
  ASSERT_EQ(wall.spans.size(), 2u);
  EXPECT_EQ(wall.spans[0].name, "distance-extraction");
  EXPECT_EQ(tarr_framework_extraction_seconds(h.framework),
            wall.spans[0].seconds);
  EXPECT_EQ(wall.spans[1].name.rfind("map:", 0), 0u) << wall.spans[1].name;
  EXPECT_EQ(tarr_allgather_mapping_seconds(h.allgather),
            wall.spans[1].seconds);

  // Payload-verified execution through the C surface.
  EXPECT_EQ(tarr_allgather_verify(h.allgather, 512), TARR_OK);
}

TEST(CApi, ReorderedPathBeatsDefault) {
  Handles def, heu;
  ASSERT_EQ(tarr_machine_create_gpc(8, &def.machine), TARR_OK);
  heu.machine = nullptr;  // share def.machine; do not double-free
  ASSERT_EQ(tarr_comm_create(def.machine, 64, "cyclic:block", &def.comm),
            TARR_OK);
  ASSERT_EQ(tarr_framework_create(def.machine, 1, &def.framework), TARR_OK);

  ASSERT_EQ(tarr_allgather_create(def.framework, def.comm,
                                  "tarr_reorder=disabled", &def.allgather),
            TARR_OK);
  ASSERT_EQ(tarr_allgather_create(def.framework, def.comm, nullptr,
                                  &heu.allgather),
            TARR_OK);

  double t_def = 0.0, t_heu = 0.0;
  ASSERT_EQ(tarr_allgather_latency(def.allgather, 128 * 1024, &t_def),
            TARR_OK);
  ASSERT_EQ(tarr_allgather_latency(heu.allgather, 128 * 1024, &t_heu),
            TARR_OK);
  EXPECT_LT(t_heu, t_def);
}

TEST(CApi, ErrorsAreReported) {
  tarr_machine_t machine = nullptr;
  EXPECT_EQ(tarr_machine_create_gpc(0, &machine), TARR_ERROR);
  EXPECT_NE(std::string(tarr_last_error()).find("node"), std::string::npos);

  ASSERT_EQ(tarr_machine_create_gpc(1, &machine), TARR_OK);
  tarr_comm_t comm = nullptr;
  EXPECT_EQ(tarr_comm_create(machine, 9, "block-bunch", &comm), TARR_ERROR);
  EXPECT_EQ(tarr_comm_create(machine, 4, "diagonal", &comm), TARR_ERROR);
  EXPECT_NE(std::string(tarr_last_error()).find("diagonal"),
            std::string::npos);

  ASSERT_EQ(tarr_comm_create(machine, 4, nullptr, &comm), TARR_OK);
  EXPECT_EQ(tarr_comm_core_of(comm, 99), TARR_ERROR);

  tarr_framework_t fw = nullptr;
  ASSERT_EQ(tarr_framework_create(machine, 1, &fw), TARR_OK);
  tarr_allgather_t ag = nullptr;
  EXPECT_EQ(tarr_allgather_create(fw, comm, "tarr_mapper=magic", &ag),
            TARR_ERROR);

  // A successful call clears the error.
  ASSERT_EQ(tarr_allgather_create(fw, comm, "", &ag), TARR_OK);
  EXPECT_STREQ(tarr_last_error(), "");

  tarr_allgather_destroy(ag);
  tarr_framework_destroy(fw);
  tarr_comm_destroy(comm);
  tarr_machine_destroy(machine);
}

TEST(CApi, NullHandlesAreSafe) {
  tarr_machine_destroy(nullptr);
  tarr_comm_destroy(nullptr);
  tarr_framework_destroy(nullptr);
  tarr_allgather_destroy(nullptr);
  EXPECT_EQ(tarr_machine_total_cores(nullptr), TARR_ERROR);
  EXPECT_EQ(tarr_comm_size(nullptr), TARR_ERROR);
  double x = 0.0;
  EXPECT_EQ(tarr_allgather_latency(nullptr, 8, &x), TARR_ERROR);
}

}  // namespace
