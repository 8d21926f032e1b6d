#include "trace/sink.hpp"

namespace tarr::trace {

const char* to_string(Channel c) {
  switch (c) {
    case Channel::SameComplex:
      return "same-complex";
    case Channel::SameSocket:
      return "same-socket";
    case Channel::CrossSocket:
      return "cross-socket";
    case Channel::Network:
      return "network";
    case Channel::Local:
      return "local";
  }
  return "?";
}

TeeSink::TeeSink(std::vector<TraceSink*> legs) {
  for (TraceSink* leg : legs)
    if (leg != nullptr) legs_.push_back(leg);
}

void TeeSink::on_stage(const StageEvent& e) {
  for (TraceSink* leg : legs_) leg->on_stage(e);
}

void TeeSink::on_transfer(const TransferEvent& e) {
  for (TraceSink* leg : legs_) leg->on_transfer(e);
}

void TeeSink::on_phase(const PhaseEvent& e) {
  for (TraceSink* leg : legs_) leg->on_phase(e);
}

void TeeSink::on_wall_span(const WallSpan& s) {
  for (TraceSink* leg : legs_) leg->on_wall_span(s);
}

void TeeSink::on_time(const TimeEvent& e) {
  for (TraceSink* leg : legs_) leg->on_time(e);
}

void TeeSink::add_count(const std::string& name, double delta) {
  for (TraceSink* leg : legs_) leg->add_count(name, delta);
}

void TeeSink::observe(const std::string& name, double value) {
  for (TraceSink* leg : legs_) leg->observe(name, value);
}

}  // namespace tarr::trace
