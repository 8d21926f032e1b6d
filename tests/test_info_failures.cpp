// Tests for the §IV info-key configuration interface (parsed and fuzzed,
// directly and through the C API), layout-spec fuzzing, link-failure
// injection in the network substrate, and trace-file loading.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/appmodel.hpp"
#include "capi/tarr.h"
#include "collectives/allgather.hpp"
#include "common/error.hpp"
#include "core/info.hpp"
#include "simmpi/layout.hpp"
#include "topology/fattree.hpp"
#include "topology/routing.hpp"

namespace tarr {
namespace {

using core::MapperKind;
using core::TopoAllgatherConfig;
using core::parse_info;
using core::parse_info_string;

TEST(InfoKeys, DefaultsWhenEmpty) {
  const TopoAllgatherConfig cfg = parse_info({});
  EXPECT_EQ(cfg.mapper, MapperKind::Heuristic);
  EXPECT_EQ(cfg.fix, collectives::OrderFix::InitComm);
  EXPECT_FALSE(cfg.hierarchical);
}

TEST(InfoKeys, ParsesEveryKey) {
  const TopoAllgatherConfig cfg = parse_info({
      {"tarr_reorder", "enabled"},
      {"tarr_mapper", "scotch"},
      {"tarr_order_fix", "endshfl"},
      {"tarr_hierarchical", "true"},
      {"tarr_intra", "linear"},
  });
  EXPECT_EQ(cfg.mapper, MapperKind::ScotchLike);
  EXPECT_EQ(cfg.fix, collectives::OrderFix::EndShuffle);
  EXPECT_TRUE(cfg.hierarchical);
  EXPECT_EQ(cfg.intra, collectives::IntraAlgo::Linear);
}

TEST(InfoKeys, DisableWinsAndPricesTheDefaultPath) {
  // The paper's §IV off switch beats a mapper key in either order...
  for (const char* info : {"tarr_mapper=scotch;tarr_reorder=disabled",
                           "tarr_reorder=disabled;tarr_mapper=scotch"})
    EXPECT_EQ(parse_info_string(info).mapper, MapperKind::None) << info;

  // ...and the allgather it configures prices the un-reordered recursive
  // doubling (a cyclic layout, so MVAPICH's internal reorder stays off).
  const topology::Machine m = topology::Machine::gpc(2);
  const simmpi::Communicator comm(
      m, simmpi::make_layout(m, 16, {simmpi::NodeOrder::Cyclic,
                                     simmpi::SocketOrder::Bunch}));
  core::ReorderFramework fw(m);
  core::TopoAllgather disabled(fw, comm,
                               parse_info_string("tarr_reorder=disabled"));
  simmpi::Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Timed,
                     1024, 16);
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::RecursiveDoubling,
            collectives::OrderFix::None});
  EXPECT_EQ(disabled.latency(1024), eng.total());
  EXPECT_EQ(disabled.mapping_seconds(), 0.0);
}

TEST(InfoKeys, CaseAndWhitespaceInsensitive) {
  const TopoAllgatherConfig cfg =
      parse_info({{" TARR_Mapper ", " Greedy "}, {"tarr_intra", "BINOMIAL"}});
  EXPECT_EQ(cfg.mapper, MapperKind::GreedyGraph);
}

TEST(InfoKeys, RejectsUnknownKeysAndValues) {
  EXPECT_THROW(parse_info({{"tarr_bogus", "x"}}), Error);
  EXPECT_THROW(parse_info({{"tarr_mapper", "magic"}}), Error);
  EXPECT_THROW(parse_info({{"tarr_reorder", "maybe"}}), Error);
  EXPECT_THROW(parse_info({{"tarr_hierarchical", "1"}}), Error);
}

/// The what() of the tarr::Error `f` throws; "" when it throws none.
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(InfoKeys, BadInputReadsInPlainText) {
  // One bad value per key, an unknown key and a segment without '=': the
  // caller reads the message alone, with no C++ condition or source path.
  const std::pair<std::string, std::string> cases[] = {
      {"tarr_reorder=maybe", "parse_info: bad tarr_reorder value: maybe"},
      {"tarr_mapper=magic", "parse_info: bad tarr_mapper value: magic"},
      {"tarr_order_fix=late", "parse_info: bad tarr_order_fix value: late"},
      {"tarr_hierarchical=1", "parse_info: bad tarr_hierarchical value: 1"},
      {"tarr_intra=ring", "parse_info: bad tarr_intra value: ring"},
      {"tarr_bogus=x", "parse_info: unknown info key: tarr_bogus"},
      {"tarr_mapper", "parse_info_string: segment without '=': tarr_mapper"},
  };
  for (const auto& [info, message] : cases)
    EXPECT_EQ(error_of([&] { (void)parse_info_string(info); }), message)
        << info;
}

TEST(InfoKeys, StringFormParses) {
  const TopoAllgatherConfig cfg = parse_info_string(
      "tarr_mapper=mvapich-cyclic; tarr_order_fix=initcomm;;");
  EXPECT_EQ(cfg.mapper, MapperKind::MvapichCyclic);
  EXPECT_THROW(parse_info_string("tarr_mapper"), Error);  // no '='
}

/// Every cut of `text` (the empty string and `text` itself included) and
/// every single-bit flip of it.
std::vector<std::string> cuts_and_flips(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t cut = 0; cut <= text.size(); ++cut)
    out.push_back(text.substr(0, cut));
  for (std::size_t i = 0; i < text.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      out.push_back(std::move(flipped));
    }
  return out;
}

/// True when `parse(input)` returns, false when it throws tarr::Error; any
/// other exception fails the test.
template <class Parse>
bool parses_or_throws_error(const std::string& input, Parse parse) {
  try {
    parse(input);
    return true;
  } catch (const Error&) {
    return false;
  } catch (...) {
    ADD_FAILURE() << "non-tarr exception on input: " << input;
    return false;
  }
}

constexpr const char* kEveryKey =
    "tarr_reorder=enabled;tarr_mapper=scotch;tarr_order_fix=endshfl;"
    "tarr_hierarchical=true;tarr_intra=linear";

TEST(InfoFuzz, EveryCutAndBitFlipParsesOrThrowsError) {
  const std::vector<std::string> inputs = cuts_and_flips(kEveryKey);
  int parsed = 0;
  for (const std::string& input : inputs)
    parsed += parses_or_throws_error(
        input, [](const std::string& s) { (void)parse_info_string(s); });
  EXPECT_EQ(inputs.size(), 928u);
  EXPECT_EQ(parsed, 98);  // case flips and whitespace still parse
}

TEST(InfoFuzz, CApiReturnsOkOrAnErrorMessage) {
  tarr_machine_t machine = nullptr;
  tarr_comm_t comm = nullptr;
  tarr_framework_t framework = nullptr;
  ASSERT_EQ(tarr_machine_create_gpc(2, &machine), TARR_OK);
  ASSERT_EQ(tarr_comm_create(machine, 16, "block:block", &comm), TARR_OK);
  ASSERT_EQ(tarr_framework_create(machine, 1, &framework), TARR_OK);
  int created = 0;
  for (const std::string& input : cuts_and_flips(kEveryKey)) {
    tarr_allgather_t allgather = nullptr;
    const int rc =
        tarr_allgather_create(framework, comm, input.c_str(), &allgather);
    if (rc == TARR_OK) {
      ++created;
      tarr_allgather_destroy(allgather);
      continue;
    }
    EXPECT_EQ(rc, TARR_ERROR) << input;
    const char* message = tarr_last_error();
    EXPECT_TRUE(message != nullptr && message[0] != '\0') << input;
  }
  EXPECT_EQ(created, 98);
  tarr_framework_destroy(framework);
  tarr_comm_destroy(comm);
  tarr_machine_destroy(machine);
}

TEST(LayoutFuzz, EveryCutAndBitFlipParsesOrThrowsError) {
  std::size_t inputs = 0;
  int parsed = 0;
  for (const char* spec :
       {"block:block", "cyclic:cyclic", "cyclic-bunch", "block-scatter"})
    for (const std::string& input : cuts_and_flips(spec)) {
      ++inputs;
      parsed += parses_or_throws_error(input, [](const std::string& s) {
        (void)simmpi::parse_layout_spec(s);
      });
    }
  EXPECT_EQ(inputs, 445u);
  EXPECT_EQ(parsed, 4);  // only the four unflipped, uncut specs
}

TEST(LinkFailure, RoutesAroundDeadUplink) {
  // Kill one of leaf 0's two uplink bundles: routes to other line groups
  // must use the surviving core switch; hop counts are unchanged (there is
  // a parallel path) and all pairs stay connected.
  using namespace topology;
  const SwitchGraph g = build_gpc_network(240);
  // Find a leaf->line link of leaf 0.
  LinkId victim = -1;
  for (int l = 0; l < g.num_links(); ++l) {
    const auto& link = g.link(l);
    if ((g.vertex(link.a).kind == VertexKind::LeafSwitch &&
         g.vertex(link.b).kind == VertexKind::LineSwitch) ||
        (g.vertex(link.b).kind == VertexKind::LeafSwitch &&
         g.vertex(link.a).kind == VertexKind::LineSwitch)) {
      victim = l;
      break;
    }
  }
  ASSERT_NE(victim, -1);
  const SwitchGraph degraded = g.with_failed_links({victim});
  EXPECT_EQ(degraded.num_links(), g.num_links() - 1);
  const Router r(degraded);
  for (NodeId dst = 0; dst < 240; dst += 17) {
    if (dst != 0) {
      EXPECT_GE(r.hops(0, dst), 2);
    }
  }
}

TEST(LinkFailure, DisconnectedHostDetected) {
  using namespace topology;
  const SwitchGraph g = build_single_switch_network(3);
  // Host links are the last three; cutting one isolates that host.
  const SwitchGraph degraded = g.with_failed_links({0});
  EXPECT_THROW(Router{degraded}, Error);
}

TEST(LinkFailure, BadLinkIdRejected) {
  using namespace topology;
  const SwitchGraph g = build_single_switch_network(2);
  EXPECT_THROW(g.with_failed_links({99}), Error);
  EXPECT_THROW(g.with_failed_links({-1}), Error);
}

TEST(TraceFile, RoundtripAndValidation) {
  const std::string path = ::testing::TempDir() + "/tarr_trace.txt";
  {
    std::ofstream out(path);
    out << "# msg calls\n"
        << "1024 100\n"
        << "\n"
        << "65536 7\n";
  }
  const auto trace = bench::load_app_trace(path);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].msg, 1024);
  EXPECT_EQ(trace[0].calls, 100);
  EXPECT_EQ(bench::trace_calls(trace), 107);
  std::remove(path.c_str());

  EXPECT_THROW(bench::load_app_trace("/nonexistent/trace.txt"), Error);
  {
    std::ofstream out(path);
    out << "garbage here\n";
  }
  EXPECT_THROW(bench::load_app_trace(path), Error);
  {
    std::ofstream out(path);
    out << "# only comments\n";
  }
  EXPECT_THROW(bench::load_app_trace(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tarr
