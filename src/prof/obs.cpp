#include "prof/obs.hpp"

#include <string>

#include "prof/profiler.hpp"
#include "trace/sink.hpp"

namespace tarr::obs {

namespace {
thread_local Ambient t_ambient;
}  // namespace

const Ambient& ambient() { return t_ambient; }

Install::Install(trace::TraceSink* sink) : sink_leg_(true), prev_(t_ambient) {
  if (sink != nullptr) t_ambient.sink = sink;
}

Install::Install(prof::Profiler* prof) : sink_leg_(false), prev_(t_ambient) {
  if (prof != nullptr) t_ambient.prof = prof;
}

Install::~Install() {
  if (sink_leg_)
    t_ambient.sink = prev_.sink;
  else
    t_ambient.prof = prev_.prof;
}

void count(std::string_view name, double delta) {
  const Ambient& a = t_ambient;
  if (a.sink == nullptr && a.prof == nullptr) return;
  const std::string key(name);
  if (a.sink != nullptr) a.sink->add_count(key, delta);
  if (a.prof != nullptr) a.prof->count(key, delta);
}

void wall_span(std::string_view name, double seconds) {
  if (trace::TraceSink* sink = t_ambient.sink)
    sink->on_wall_span(trace::WallSpan{std::string(name), seconds});
}

}  // namespace tarr::obs
