// tarr analyze — static schedule certification over tarr::analyze
// (docs/CHECKING.md, "Static analysis"):
//   certify      run one named collective in Data mode, record its schedule
//                and verify it against the collective's contract without
//                trusting the execution: dataflow, well-formedness and
//                capacity.  Exits 0 when CERTIFIED, 1 when REJECTED.
//   certify-all  every schedule of collectives/schedules.hpp, one verdict
//                line each (the CI static-audit gate).
//   list         the schedule names certify accepts.
// --reorder applies the paper's reordering first; --mutate seeds a schedule
// corruption the certificate must then reject with a counterexample.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#include "analyze/analyzer.hpp"
#include "analyze/mutate.hpp"
#include "collectives/schedules.hpp"
#include "common/cli.hpp"
#include "driver.hpp"

namespace tarr::driver {
namespace {

using collectives::Schedule;

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

/// Record + analyze one schedule; prints nothing but the mutation, returns
/// the certificate.
analyze::Certificate certify(const Schedule& sched, const Audit& a,
                             const topology::Machine& machine) {
  // Hierarchical runners need node-contiguous full nodes.
  const int p = sched.hierarchical ? machine.total_cores() : a.run.procs;
  const simmpi::Communicator comm(
      machine, simmpi::make_layout(machine, p,
                                   sched.hierarchical ? simmpi::LayoutSpec{}
                                                      : a.run.layout_spec()));
  core::ReorderFramework fw = a.run.framework(machine);
  const core::ReorderedComm rc = reorder(
      fw, comm, sched.pattern,
      a.reorder && sched.reorderable ? "heuristic" : "identity");
  const int buf_blocks = sched.buf_blocks(p);
  trace::Tracer tracer;
  {
    obs::Install traced(&tracer);
    simmpi::Engine eng(rc.comm, simmpi::CostConfig{}, simmpi::ExecMode::Data,
                       a.run.msg_bytes, buf_blocks);
    sched.run(eng, rc.oldrank);
  }
  trace::ScheduleRecord rec = tracer.take();
  if (a.mutate)
    std::printf("mutated schedule: %s\n",
                analyze::apply_mutation(rec, *a.mutate, a.mutate_seed).c_str());
  return analyze::analyze(rec, machine,
                          sched.contract(p, buf_blocks, rc.oldrank), a.aopts);
}

}  // namespace

int cmd_analyze_certify(const Flags& f) {
  const std::string name = f.str("--collective");
  if (name.empty()) throw cli::UsageError("certify needs --collective");
  const Audit a = parse_audit(f);
  const analyze::Certificate cert =
      certify(collectives::find_schedule(name), a,
              topology::Machine::gpc(a.run.nodes));
  std::fputs(cert.format().c_str(), stdout);
  return cert.certified ? 0 : 1;
}

int cmd_analyze_certify_all(const Flags& f) {
  const Audit a = parse_audit(f);
  if (a.mutate) throw Error("--mutate applies to a single `certify` run");
  const topology::Machine machine = topology::Machine::gpc(a.run.nodes);
  int width = 0;
  for (const Schedule& sched : collectives::schedules())
    width = std::max(width, static_cast<int>(std::strlen(sched.name)));
  int rejected = 0;
  for (const Schedule& sched : collectives::schedules()) {
    const analyze::Certificate cert = certify(sched, a, machine);
    std::printf("%-*s %s (%d stages, %d copies)\n", width, sched.name,
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
  for (const Schedule& sched : collectives::schedules())
    std::printf("%s\n", sched.name);
  return 0;
}

}  // namespace tarr::driver
