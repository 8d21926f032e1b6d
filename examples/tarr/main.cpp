// tarr — the reproduction's one command-line driver.  Every subcommand runs
// the paper's library path (§IV: extract distances once, reorder a
// communicator per pattern, run collectives over it) through the shared
// pieces in driver.hpp; this file owns the dispatch table, the usage text,
// the error prefix and the exit codes: 2 for usage errors, 1 for errors,
// 3 for the `insight diagnose --fail-on` gate.

#include <cstdio>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "driver.hpp"

namespace {

using namespace tarr::driver;

/// One command: a subcommand plus, for the groups that have them, its
/// second-level command ("" otherwise), with the flags it accepts.
struct Command {
  const char* group;
  const char* name;
  std::string flags;  ///< see Flags: value flags end in '='
  bool positionals;
  int (*run)(const Flags&);
};

const std::string kRun =
    "--nodes= --procs= --layout= --pattern= --mapper= --seed= --msg= ";
const std::string kViz =
    kRun +
    "--out= --snapshots= --label= --rel-tolerance= --abs-tolerance= "
    "--tlog-baseline= --tlog= --from-tlog-baseline= --from-tlog=";
const std::string kReportRun = kRun + "--top= --markdown --tlog= --from-tlog=";
const std::string kAudit =
    "--collective= --nodes= --procs= --layout= --reorder --seed= --msg= "
    "--max-link-load= --max-qpi-bytes= --mutate= --mutate-seed=";
const std::string kFilters = "--kinds= --stages= --ranks= ";

const Command kCommands[] = {
    {"map", "",
     kRun + "--quiet --trace= --metrics= --tlog= --wall --report --html= "
            "--prof= --prof-speedscope= --prof-collapsed= --insight= "
            "--out-dir=",
     false, cmd_map},
    {"campaign", "",
     "--smoke --nodes= --trials= --failures= --kind= --seed= --drop= --csv= "
     "--json= --metrics= --html= --prof= --tlog=",
     false, cmd_campaign},
    {"probe", "",
     "--smoke --fail-probe --nodes= --epochs= --noise= --churn= --seed= "
     "--csv= --metrics= --trace= --prof= --tlog=",
     false, cmd_probe},
    {"report", "critical-path", kReportRun, false, cmd_report_critical_path},
    {"report", "diff", kReportRun, false, cmd_report_diff},
    {"report", "compare",
     "--rel-tolerance= --abs-tolerance= --baseline-dir= --candidate-dir= "
     "--markdown",
     true, cmd_report_compare},
    {"viz", "topo", kViz, false,
     [](const Flags& f) { return cmd_viz(f, "topo"); }},
    {"viz", "matrix", kViz, false,
     [](const Flags& f) { return cmd_viz(f, "matrix"); }},
    {"viz", "timeline", kViz, false,
     [](const Flags& f) { return cmd_viz(f, "timeline"); }},
    {"viz", "trend", kViz, true,
     [](const Flags& f) { return cmd_viz(f, "trend"); }},
    {"viz", "dashboard", kViz, false,
     [](const Flags& f) { return cmd_viz(f, "dashboard"); }},
    {"insight", "diagnose",
     kRun + "--top= --congested --epoch= --cong-seed= --cong-prob= "
            "--fail-on= --out= --markdown --tlog= --from-tlog=",
     false, cmd_insight_diagnose},
    {"insight", "trend",
     "--label= --rel-threshold= --abs-threshold= --all --fail-on-regression",
     true, cmd_insight_trend},
    {"analyze", "certify", kAudit, false, cmd_analyze_certify},
    {"analyze", "certify-all", kAudit, false, cmd_analyze_certify_all},
    {"analyze", "list", "", false, cmd_analyze_list},
    {"log", "info", kFilters, true, cmd_log_info},
    {"log", "cat", kFilters + "--json= --metrics=", true, cmd_log_cat},
    {"log", "stats", kFilters + "--by=", true, cmd_log_stats},
};

const char* const kRunUsage =
    "run options: --nodes N --procs P --layout L --pattern PAT --seed S\n"
    "             --mapper identity|heuristic|scotch|greedy|mvapich-cyclic\n"
    "             --msg BYTES\n";

/// Usage text per subcommand, in the order `tarr` alone prints it.
const std::pair<std::string, std::string> kUsage[] = {
    {"map",
     "usage: tarr map [run options] [--quiet] [--trace F] [--metrics F]\n"
     "                [--tlog F] [--wall] [--report] [--html F] [--prof F]\n"
     "                [--prof-speedscope F] [--prof-collapsed F]\n"
     "                [--insight F] [--out-dir DIR]\n" +
         std::string(kRunUsage)},
    {"campaign",
     "usage: tarr campaign [--smoke] [--nodes N] [--trials T]\n"
     "                     [--failures a,b,c] [--kind links|nodes] [--seed S]\n"
     "                     [--drop P] [--csv F] [--json F] [--metrics F]\n"
     "                     [--html F] [--prof F] [--tlog F]\n"},
    {"probe",
     "usage: tarr probe [--smoke] [--fail-probe] [--nodes N] [--epochs E]\n"
     "                  [--noise X] [--churn X] [--seed S] [--csv F]\n"
     "                  [--metrics F] [--trace F] [--prof F] [--tlog F]\n"},
    {"report",
     "usage: tarr report critical-path [run options] [--markdown]\n"
     "                   [--tlog F] [--from-tlog F]\n"
     "       tarr report diff [run options] [--top K] [--markdown]\n"
     "       tarr report compare [BASELINE CURRENT] [--baseline-dir G]\n"
     "                   [--candidate-dir G] [--rel-tolerance P]\n"
     "                   [--abs-tolerance V] [--markdown]\n"
     "                   (G: dir, file, or glob like 'b/BENCH_fig?_*.json')\n" +
         std::string(kRunUsage)},
    {"viz",
     "usage: tarr viz topo|matrix|timeline [run options] [--out F]\n"
     "       tarr viz dashboard [run options] [--snapshots SET]... [--out F]\n"
     "       tarr viz trend SET... [--label NAME]... [--rel-tolerance P]\n"
     "               [--abs-tolerance V] [--out F]\n"
     "schedule views: [--tlog-baseline F --tlog F]\n"
     "                [--from-tlog-baseline F --from-tlog F]\n"
     "--out - writes to stdout (the default)\n" +
         std::string(kRunUsage)},
    {"insight",
     "usage: tarr insight diagnose [run options] [--top K] [--congested]\n"
     "                    [--epoch E] [--cong-seed S] [--cong-prob P]\n"
     "                    [--fail-on info|warning|critical] [--out F]\n"
     "                    [--markdown] [--tlog F] [--from-tlog F]\n"
     "       tarr insight trend SELECTOR [--label L] [SELECTOR ...]\n"
     "                    [--rel-threshold P] [--abs-threshold V] [--all]\n"
     "                    [--fail-on-regression]\n" +
         std::string(kRunUsage)},
    {"analyze",
     "usage: tarr analyze certify --collective NAME [audit options]\n"
     "       tarr analyze certify-all [audit options]\n"
     "       tarr analyze list\n"
     "audit options: --nodes N --procs P --layout L --reorder --seed S\n"
     "               --msg BYTES --max-link-load X --max-qpi-bytes B\n"
     "               --mutate drop-transfer|swap-stages|truncate-bytes|\n"
     "                        duplicate-block --mutate-seed S\n"},
    {"log",
     "usage: tarr log info FILE\n"
     "       tarr log cat FILE [--json F] [--metrics F] [filters]\n"
     "       tarr log stats FILE --by rank|stage|channel [filters]\n"
     "filters: --kinds K1,K2,...  --stages LO:HI  --ranks LO:HI\n"
     "kinds: stage transfer phase wall-span time count observe\n"},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string group = argc > 1 ? argv[1] : "";
  const std::string name = argc > 2 ? argv[2] : "";
  const std::string* usage = nullptr;
  for (const auto& [g, text] : kUsage)
    if (g == group) usage = &text;
  if (usage == nullptr) {
    std::fputs("usage: tarr <command> ...\n", stderr);
    for (const auto& entry : kUsage) std::fputs(entry.second.c_str(), stderr);
    return 2;
  }
  const Command* cmd = nullptr;
  for (const Command& c : kCommands)
    if (group == c.group && (*c.name == '\0' || name == c.name)) cmd = &c;
  try {
    if (cmd == nullptr)
      throw tarr::cli::UsageError(name.empty() ? "missing command"
                                               : "unknown command " + name);
    const int first = *cmd->name == '\0' ? 2 : 3;
    return cmd->run(
        Flags(argc - first, argv + first, cmd->flags, cmd->positionals));
  } catch (const tarr::cli::UsageError& e) {
    std::fprintf(stderr, "tarr %s: %s\n%s", group.c_str(), e.what(),
                 usage->c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tarr %s: %s\n", group.c_str(), e.what());
    return 1;
  }
}
