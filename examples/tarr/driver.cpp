#include "driver.hpp"

#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>

#include "collectives/allgather.hpp"
#include "collectives/gather_bcast.hpp"
#include "common/cli.hpp"
#include "common/permutation.hpp"
#include "mapping/comparators.hpp"
#include "prof/prof.hpp"
#include "simmpi/layout.hpp"

namespace tarr::driver {

Flags::Flags(int argc, char** argv, const std::string& accepted,
             bool positionals) {
  std::set<std::string> values, switches;
  std::istringstream words(accepted);
  for (std::string w; words >> w;) {
    if (w.back() == '=') {
      values.insert(w.substr(0, w.size() - 1));
    } else {
      switches.insert(w);
    }
  }
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.empty() || a[0] != '-') {
      if (!positionals) throw cli::UsageError("unknown option " + a);
      items_.emplace_back("", a);
    } else if (values.count(a) != 0) {
      if (i + 1 >= argc) throw cli::UsageError("missing value for " + a);
      items_.emplace_back(a, argv[++i]);
    } else if (switches.count(a) != 0) {
      items_.emplace_back(a, "");
    } else {
      throw cli::UsageError("unknown option " + a);
    }
  }
}

bool Flags::has(const std::string& flag) const {
  for (const auto& item : items_)
    if (item.first == flag) return true;
  return false;
}

std::string Flags::str(const std::string& flag, std::string def) const {
  for (const auto& [f, v] : items_)
    if (f == flag) def = v;
  return def;
}

long long Flags::num(const std::string& flag, long long def, long long lo,
                     long long hi) const {
  for (const auto& [f, v] : items_)
    if (f == flag) def = cli::parse_int(f, v.c_str(), lo, hi);
  return def;
}

double Flags::real(const std::string& flag, double def, double lo,
                   double hi) const {
  for (const auto& [f, v] : items_)
    if (f == flag) def = cli::parse_double(f, v.c_str(), lo, hi);
  return def;
}

std::uint64_t Flags::seed(const std::string& flag, std::uint64_t def) const {
  for (const auto& [f, v] : items_)
    if (f == flag) def = cli::parse_seed(f, v.c_str());
  return def;
}

std::vector<std::string> Flags::positionals() const {
  std::vector<std::string> out;
  for (const auto& [f, v] : items_)
    if (f.empty()) out.push_back(v);
  return out;
}

RunSpec parse_run(const Flags& f, RunSpec d) {
  d.nodes = static_cast<int>(f.num("--nodes", d.nodes, 1, 1 << 20));
  d.procs = static_cast<int>(f.num("--procs", d.procs, 1, 1 << 26));
  d.layout = f.str("--layout", d.layout);
  d.pattern = f.str("--pattern", d.pattern);
  d.mapper = f.str("--mapper", d.mapper);
  d.seed = f.seed("--seed", d.seed);
  d.msg_bytes = f.num("--msg", d.msg_bytes, 1,
                      std::numeric_limits<long long>::max());
  return d;
}

simmpi::LayoutSpec RunSpec::layout_spec() const {
  for (const auto& spec : simmpi::all_layouts())
    if (to_string(spec) == layout) return spec;
  throw Error("unknown layout: " + layout);
}

mapping::Pattern RunSpec::collective() const {
  for (auto p : {mapping::Pattern::RecursiveDoubling, mapping::Pattern::Ring,
                 mapping::Pattern::BinomialBcast,
                 mapping::Pattern::BinomialGather, mapping::Pattern::Bruck})
    if (pattern == mapping::to_string(p)) return p;
  throw Error("unknown pattern: " + pattern);
}

simmpi::Communicator RunSpec::comm(const topology::Machine& m) const {
  return simmpi::Communicator(m, simmpi::make_layout(m, procs, layout_spec()));
}

core::ReorderFramework RunSpec::framework(const topology::Machine& m) const {
  core::ReorderFramework::Options opts;
  opts.seed = seed;
  return core::ReorderFramework(m, opts);
}

std::string RunSpec::describe(int ranks) const {
  return pattern + " over " + std::to_string(ranks) + " ranks on " +
         std::to_string(nodes) + " nodes, " + layout + " layout vs " +
         mapper + " mapping, " + std::to_string(msg_bytes) +
         " B blocks (seed " + std::to_string(seed) + ")";
}

core::ReorderedComm reorder(core::ReorderFramework& fw,
                            const simmpi::Communicator& comm,
                            mapping::Pattern pattern,
                            const std::string& mapper) {
  if (mapper == "identity")
    return {comm, identity_permutation(comm.size()), 0.0};
  if (mapper == "heuristic") return fw.reorder(comm, pattern);
  if (mapper == "scotch")
    return fw.reorder_with(comm, *mapping::make_scotch_like_mapper(pattern));
  if (mapper == "greedy")
    return fw.reorder_with(comm, *mapping::make_greedy_graph_mapper(pattern));
  throw Error("unknown mapper: " + mapper);
}

void run_collective(simmpi::Engine& eng, mapping::Pattern pattern,
                    const std::vector<Rank>& oldrank) {
  using collectives::AllgatherAlgo;
  using collectives::OrderFix;
  switch (pattern) {
    case mapping::Pattern::RecursiveDoubling:
      collectives::run_allgather(
          eng, {AllgatherAlgo::RecursiveDoubling, OrderFix::InitComm},
          oldrank);
      break;
    case mapping::Pattern::Ring:
      collectives::run_allgather(eng, {AllgatherAlgo::Ring, OrderFix::None},
                                 oldrank);
      break;
    case mapping::Pattern::Bruck:
      collectives::run_allgather(eng, {AllgatherAlgo::Bruck, OrderFix::None},
                                 oldrank);
      break;
    case mapping::Pattern::BinomialBcast:
      collectives::run_bcast(eng, collectives::TreeAlgo::Binomial);
      break;
    case mapping::Pattern::BinomialGather:
      collectives::run_gather(eng, collectives::TreeAlgo::Binomial,
                              OrderFix::InitComm, oldrank);
      break;
    default:
      throw Error("pattern has no collective to run");
  }
}

Usec simulate(const simmpi::Communicator& comm, mapping::Pattern pattern,
              const std::vector<Rank>& oldrank, long long msg_bytes,
              trace::TraceSink* sink, const char* scope) {
  simmpi::Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Timed,
                     msg_bytes, comm.size());
  eng.set_trace_sink(sink);
  {
    // Engine construction stays outside the scope: the profile charges
    // only the collective itself.
    prof::ProfScope pscope(scope);
    run_collective(eng, pattern, oldrank);
  }
  return eng.total();
}

trace::ScheduleRecord record(const simmpi::Communicator& comm,
                             mapping::Pattern pattern,
                             const std::vector<Rank>& oldrank,
                             long long msg_bytes, trace::TraceSink* also) {
  trace::ScheduleRecorder recorder;
  trace::TeeSink tee({&recorder, also});
  simulate(comm, pattern, oldrank, msg_bytes, &tee);
  return recorder.take();
}

void Capture::finish() {
  guard([&] { sink_.finish(); });
  if (!error_.empty()) throw Error(error_);
}

Obs::Obs(const Flags& f, std::optional<trace::TracerOptions> tracer_opts)
    : wall_(f.has("--wall")) {
  for (const char* flag :
       {"--trace", "--metrics", "--tlog", "--tlog-baseline", "--html",
        "--prof", "--prof-speedscope", "--prof-collapsed", "--insight",
        "--csv", "--json", "--out"})
    if (f.has(flag)) paths_[flag] = f.str(flag);
  // --out-dir derives every artifact path not given explicitly.
  if (f.has("--out-dir")) {
    const std::string dir = f.str("--out-dir");
    std::filesystem::create_directories(dir);
    for (const auto& [flag, name] :
         std::map<std::string, std::string>{{"--trace", "trace.json"},
                                            {"--metrics", "metrics.csv"},
                                            {"--tlog", "trace.tlog"},
                                            {"--html", "dashboard.html"},
                                            {"--prof", "prof.csv"},
                                            {"--insight", "insight.txt"},
                                            {"--report", "report.txt"}})
      paths_.try_emplace(flag, dir + "/" + name);
  }
  // Fail fast: the run below can take minutes at scale, and a typo'd path
  // discovered only afterwards throws that work away.  "-" is stdout.
  for (const auto& [flag, path] : paths_)
    if (path != "-") ensure_writable(path);

  for (const char* flag : {"--tlog", "--tlog-baseline"})
    if (paths_.contains(flag)) tlogs_.try_emplace(flag, paths_[flag]);
  if (paths_.contains("--prof") || paths_.contains("--prof-speedscope") ||
      paths_.contains("--prof-collapsed")) {
    prof::link_memhook();
    ambient_.emplace(&profiler_);
  }
  if (tracer_opts) {
    tracer_opts->real_wall_time = wall_;
    tracer.emplace(*tracer_opts);
  }
  tee_.emplace(std::vector<trace::TraceSink*>{tracer ? &*tracer : nullptr,
                                              tlog()});
}

std::string Obs::path(const std::string& flag) const {
  const auto it = paths_.find(flag);
  return it == paths_.end() ? std::string() : it->second;
}

Capture* Obs::tlog(const std::string& flag) {
  const auto it = tlogs_.find(flag);
  return it == tlogs_.end() ? nullptr : &it->second;
}

void Obs::write_trace(bool print) {
  if (!tracer) return;
  if (const std::string p = path("--trace"); !p.empty()) {
    write_file(p, tracer->timeline_json());
    if (print) std::printf("trace   : %s\n", p.c_str());
  }
  if (const std::string p = path("--metrics"); !p.empty()) {
    // Profiler totals ride the metrics CSV as prof.* counter rows.
    if (profiling()) prof::publish(profile(), tracer->metrics());
    write_file(p, tracer->metrics().csv());
    if (print) std::printf("metrics : %s\n", p.c_str());
  }
}

void Obs::write_prof() {
  if (!profiling()) return;
  const prof::Profile p = profile();
  if (const std::string out = path("--prof"); !out.empty()) {
    prof::ExportOptions opts;
    opts.include_wall = wall_;
    write_file(out, prof::flat_csv(p, opts));
    std::printf("prof    : %s (%zu scopes%s)\n", out.c_str(),
                p.entries.size(), wall_ ? ", wall columns on" : "");
  }
  if (const std::string out = path("--prof-speedscope"); !out.empty()) {
    write_file(out, prof::speedscope_json(p, "work", "tarr"));
    std::printf("prof-ss : %s\n", out.c_str());
  }
  if (const std::string out = path("--prof-collapsed"); !out.empty()) {
    write_file(out, prof::collapsed_stacks(p, "work"));
    std::printf("prof-cs : %s\n", out.c_str());
  }
}

void Obs::finish_tlog(bool print) {
  for (auto& [flag, capture] : tlogs_) capture.finish();
  if (const Capture* c = tlog(); print && c != nullptr)
    std::printf("tlog    : %s (%llu bytes, %lld events)\n",
                c->sink().path().c_str(),
                static_cast<unsigned long long>(c->sink().totals().bytes),
                c->sink().totals().stored_events());
}

}  // namespace tarr::driver
