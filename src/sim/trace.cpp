#include "sim/trace.hpp"

namespace sidis::sim {

Trace channel_view(const Trace& trace, Channel channel) {
  Trace out;
  out.meta = trace.meta;
  out.meta.em_gain_estimate = 1.0;
  out.meta.em_fault_severity = 0.0;
  if (channel == Channel::kPower) {
    out.samples = trace.samples;
  } else {
    out.samples = trace.em_samples;
    out.meta.gain_estimate = trace.meta.em_gain_estimate;
    out.meta.fault_severity = trace.meta.em_fault_severity;
  }
  return out;
}

TraceSet channel_views(const TraceSet& traces, Channel channel) {
  TraceSet out;
  out.reserve(traces.size());
  for (const Trace& t : traces) out.push_back(channel_view(t, channel));
  return out;
}

}  // namespace sidis::sim
