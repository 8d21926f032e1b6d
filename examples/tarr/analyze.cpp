// tarr analyze — static schedule certification over tarr::analyze
// (docs/CHECKING.md, "Static analysis"):
//   certify      run one named collective in Data mode, record its schedule
//                and verify it against the collective's contract without
//                trusting the execution: dataflow, well-formedness and
//                capacity.  Exits 0 when CERTIFIED, 1 when REJECTED.
//   certify-all  every built-in schedule, one verdict line each (the CI
//                static-audit gate).
//   list         the collective names certify accepts.
// --reorder applies the paper's reordering first; --mutate seeds a schedule
// corruption the certificate must then reject with a counterexample.

#include <cstdio>
#include <functional>
#include <optional>

#include "analyze/analyzer.hpp"
#include "analyze/mutate.hpp"
#include "collectives/allgather.hpp"
#include "collectives/allreduce.hpp"
#include "collectives/alltoall.hpp"
#include "collectives/contracts.hpp"
#include "collectives/gather_bcast.hpp"
#include "collectives/hierarchical.hpp"
#include "common/cli.hpp"
#include "common/permutation.hpp"
#include "driver.hpp"

namespace tarr::driver {
namespace {

using collectives::AllgatherAlgo;
using collectives::AlltoallAlgo;
using collectives::OrderFix;
using collectives::TreeAlgo;
using RankVec = std::vector<Rank>;

/// One certifiable built-in schedule: how to run it and what it promises.
struct Spec {
  const char* name;
  /// buf_blocks = buf_mul * p, or 1 when buf_mul == 0.
  int buf_mul;
  /// Mapping pattern used for --reorder; hierarchical runners need a
  /// node-contiguous communicator, so they ignore --reorder/--procs.
  mapping::Pattern pattern;
  bool reorderable;
  bool hierarchical;
  std::function<void(simmpi::Engine&, const RankVec&)> run;
  std::function<analyze::Contract(int, int, const RankVec&)> contract;
};

/// `fix` is the order fix a reordered run needs; identity runs use none.
OrderFix fix_for(const RankVec& o, OrderFix fix) {
  return o == identity_permutation(static_cast<int>(o.size())) ? OrderFix::None
                                                               : fix;
}

Spec allgather(const char* name, AllgatherAlgo algo, OrderFix fix,
               mapping::Pattern pattern) {
  return {name, 1, pattern, true, false,
          [=](simmpi::Engine& e, const RankVec& o) {
            collectives::run_allgather(e, {algo, fix_for(o, fix)}, o);
          },
          [=](int p, int b, const RankVec& o) {
            return collectives::contract_allgather(p, b, algo, o);
          }};
}

Spec hier_allgather(const char* name, bool pipelined) {
  return {name, 1, mapping::Pattern::RecursiveDoubling, false, true,
          [=](simmpi::Engine& e, const RankVec& o) {
            if (pipelined) {
              collectives::run_hier_allgather_pipelined(
                  e, collectives::IntraAlgo::Binomial, OrderFix::None, o);
            } else {
              collectives::run_hier_allgather(
                  e, collectives::HierAllgatherOptions{}, o);
            }
          },
          [=](int p, int b, const RankVec& o) {
            return collectives::contract_hier_allgather(p, b, o, pipelined);
          }};
}

Spec gather(const char* name, TreeAlgo algo, OrderFix fix) {
  return {name, 1, mapping::Pattern::BinomialGather, true, false,
          [=](simmpi::Engine& e, const RankVec& o) {
            collectives::run_gather(e, algo, fix_for(o, fix), o);
          },
          [=](int p, int b, const RankVec& o) {
            return collectives::contract_gather(p, b, algo, o);
          }};
}

Spec bcast(const char* name, TreeAlgo algo) {
  return {name, 0, mapping::Pattern::BinomialBcast, true, false,
          [=](simmpi::Engine& e, const RankVec&) {
            collectives::run_bcast(e, algo);
          },
          [=](int p, int b, const RankVec&) {
            return collectives::contract_bcast(p, b, algo);
          }};
}

Spec scatter(const char* name, TreeAlgo algo) {
  return {name, 1, mapping::Pattern::BinomialGather, true, false,
          [=](simmpi::Engine& e, const RankVec& o) {
            collectives::run_scatter(e, algo, o);
          },
          [=](int p, int b, const RankVec& o) {
            return collectives::contract_scatter(p, b, algo, o);
          }};
}

Spec alltoall(const char* name, AlltoallAlgo algo) {
  return {name, 2, mapping::Pattern::RecursiveDoubling, true, false,
          [=](simmpi::Engine& e, const RankVec& o) {
            collectives::run_alltoall(e, algo, o);
          },
          [=](int p, int b, const RankVec& o) {
            return collectives::contract_alltoall(p, b, algo, o);
          }};
}

const std::vector<Spec>& specs() {
  using mapping::Pattern;
  static const std::vector<Spec> kSpecs = {
      allgather("allgather-rd", AllgatherAlgo::RecursiveDoubling,
                OrderFix::InitComm, Pattern::RecursiveDoubling),
      allgather("allgather-rd-endshuffle", AllgatherAlgo::RecursiveDoubling,
                OrderFix::EndShuffle, Pattern::RecursiveDoubling),
      allgather("allgather-ring", AllgatherAlgo::Ring, OrderFix::None,
                Pattern::Ring),
      allgather("allgather-bruck", AllgatherAlgo::Bruck, OrderFix::None,
                Pattern::Bruck),
      hier_allgather("hier-allgather", false),
      hier_allgather("hier-allgather-pipelined", true),
      gather("gather-linear", TreeAlgo::Linear, OrderFix::None),
      gather("gather-binomial", TreeAlgo::Binomial, OrderFix::InitComm),
      bcast("bcast-linear", TreeAlgo::Linear),
      bcast("bcast-binomial", TreeAlgo::Binomial),
      {"bcast-scatter-allgather", 1, Pattern::BinomialBcast, false, false,
       [](simmpi::Engine& e, const RankVec&) {
         collectives::run_bcast_scatter_allgather(
             e, AllgatherAlgo::RecursiveDoubling);
       },
       [](int p, int b, const RankVec&) {
         return collectives::contract_bcast_scatter_allgather(
             p, b, AllgatherAlgo::RecursiveDoubling);
       }},
      scatter("scatter-linear", TreeAlgo::Linear),
      scatter("scatter-binomial", TreeAlgo::Binomial),
      alltoall("alltoall-rotation", AlltoallAlgo::Rotation),
      alltoall("alltoall-pairwise", AlltoallAlgo::PairwiseXor),
      {"allreduce-rd", 0, Pattern::RecursiveDoubling, false, false,
       [](simmpi::Engine& e, const RankVec&) {
         collectives::run_allreduce_rd(e);
       },
       [](int p, int b, const RankVec&) {
         return collectives::contract_allreduce_rd(p, b);
       }},
      {"allreduce-rabenseifner", 1, Pattern::RecursiveDoubling, false, false,
       [](simmpi::Engine& e, const RankVec&) {
         collectives::run_allreduce_rabenseifner(e);
       },
       [](int p, int b, const RankVec&) {
         return collectives::contract_allreduce_rabenseifner(p, b);
       }},
  };
  return kSpecs;
}

/// The parsed run options of certify and certify-all.
struct Audit {
  RunSpec run;
  bool reorder = false;
  std::optional<analyze::Mutation> mutate;
  std::uint64_t mutate_seed = 1;
  analyze::AnalyzeOptions aopts;
};

Audit parse_audit(const Flags& f) {
  Audit a;
  RunSpec defaults;
  defaults.nodes = 2;
  defaults.procs = 16;
  defaults.layout = "block-bunch";
  defaults.msg_bytes = 256;
  a.run = parse_run(f, defaults);
  a.reorder = f.has("--reorder");
  a.mutate_seed = f.seed("--mutate-seed", a.mutate_seed);
  a.aopts.max_link_load = f.real("--max-link-load", 0.0, 0.0, 1e18);
  a.aopts.max_qpi_bytes = f.real("--max-qpi-bytes", 0.0, 0.0, 1e18);
  if (const std::string m = f.str("--mutate"); !m.empty()) {
    for (auto c :
         {analyze::Mutation::DropTransfer, analyze::Mutation::SwapStages,
          analyze::Mutation::TruncateBytes, analyze::Mutation::DuplicateBlock})
      if (m == analyze::to_string(c)) a.mutate = c;
    if (!a.mutate) throw Error("unknown mutation class: " + m);
  }
  return a;
}

/// Record + analyze one spec; prints nothing but the mutation, returns the
/// certificate.
analyze::Certificate certify_spec(const Spec& spec, const Audit& a,
                                  const topology::Machine& machine) {
  // Hierarchical runners need node-contiguous full nodes.
  const int p = spec.hierarchical ? machine.total_cores() : a.run.procs;
  const simmpi::Communicator comm(
      machine, simmpi::make_layout(machine, p,
                                   spec.hierarchical ? simmpi::LayoutSpec{}
                                                     : a.run.layout_spec()));
  core::ReorderFramework fw = a.run.framework(machine);
  const core::ReorderedComm rc = reorder(
      fw, comm, spec.pattern,
      a.reorder && spec.reorderable ? "heuristic" : "identity");
  const int buf_blocks = spec.buf_mul == 0 ? 1 : spec.buf_mul * p;
  simmpi::Engine eng(rc.comm, simmpi::CostConfig{}, simmpi::ExecMode::Data,
                     a.run.msg_bytes, buf_blocks);
  report::ScheduleRecorder recorder;
  eng.set_trace_sink(&recorder);
  spec.run(eng, rc.oldrank);
  report::ScheduleRecord rec = recorder.take();
  if (a.mutate)
    std::printf("mutated schedule: %s\n",
                analyze::apply_mutation(rec, *a.mutate, a.mutate_seed).c_str());
  return analyze::analyze(rec, machine,
                          spec.contract(p, buf_blocks, rc.oldrank), a.aopts);
}

}  // namespace

int cmd_analyze_certify(const Flags& f) {
  const std::string name = f.str("--collective");
  if (name.empty()) throw cli::UsageError("certify needs --collective");
  const Audit a = parse_audit(f);
  for (const Spec& spec : specs()) {
    if (name != spec.name) continue;
    const analyze::Certificate cert =
        certify_spec(spec, a, topology::Machine::gpc(a.run.nodes));
    std::fputs(cert.format().c_str(), stdout);
    return cert.certified ? 0 : 1;
  }
  throw Error("unknown collective: " + name);
}

int cmd_analyze_certify_all(const Flags& f) {
  const Audit a = parse_audit(f);
  if (a.mutate) throw Error("--mutate applies to a single `certify` run");
  const topology::Machine machine = topology::Machine::gpc(a.run.nodes);
  int rejected = 0;
  for (const Spec& spec : specs()) {
    const analyze::Certificate cert = certify_spec(spec, a, machine);
    std::printf("%-26s %s (%d stages, %d copies)\n", spec.name,
                cert.certified ? "CERTIFIED" : "REJECTED",
                cert.stages_checked, cert.copies_checked);
    if (!cert.certified) {
      std::fputs(cert.format().c_str(), stdout);
      ++rejected;
    }
  }
  if (rejected > 0) std::printf("%d schedule(s) REJECTED\n", rejected);
  return rejected > 0 ? 1 : 0;
}

int cmd_analyze_list(const Flags&) {
  for (const Spec& spec : specs()) std::printf("%s\n", spec.name);
  return 0;
}

}  // namespace tarr::driver
