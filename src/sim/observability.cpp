#include "sim/observability.hpp"

#include <cstdio>
#include <string>

#include "support/trace.hpp"
#include "wsn/message.hpp"

namespace cdpf::sim {

void observe_comm(const wsn::CommStats& stats, support::MetricsRegistry& registry) {
  for (std::size_t i = 0; i < wsn::kNumMessageKinds; ++i) {
    const auto kind = static_cast<wsn::MessageKind>(i);
    const std::string base = "comm-" + std::string(wsn::message_kind_name(kind));
    registry.add(registry.counter(base + "-messages", "messages"),
                 static_cast<std::uint64_t>(stats.messages(kind)));
    registry.add(registry.counter(base + "-bytes", "bytes"),
                 static_cast<std::uint64_t>(stats.bytes(kind)));
    registry.add(registry.counter(base + "-receptions", "receptions"),
                 static_cast<std::uint64_t>(stats.receptions(kind)));
  }
  registry.add(registry.counter("comm-total-messages", "messages"),
               static_cast<std::uint64_t>(stats.total_messages()));
  registry.add(registry.counter("comm-total-bytes", "bytes"),
               static_cast<std::uint64_t>(stats.total_bytes()));
  registry.add(registry.counter("comm-total-receptions", "receptions"),
               static_cast<std::uint64_t>(stats.total_receptions()));
}

ObservabilityScope::ObservabilityScope(std::string trace_path,
                                       std::string metrics_path)
    : trace_path_(std::move(trace_path)), metrics_path_(std::move(metrics_path)) {
  support::global_metrics().reset();
  if (!trace_path_.empty()) {
    support::Trace::start();
#ifndef CDPF_TRACING
    std::fprintf(stderr,
                 "warning: --trace requested but instrumentation was compiled "
                 "out; reconfigure with -DCDPF_TRACING=ON (or the `trace` "
                 "preset) to record spans\n");
#endif
  }
}

ObservabilityScope::~ObservabilityScope() {
  if (!trace_path_.empty()) {
    support::Trace::stop();
    if (const std::size_t dropped = support::Trace::dropped(); dropped > 0) {
      std::fprintf(stderr, "warning: trace dropped %zu events\n", dropped);
    }
    if (!support::Trace::write_chrome_json(trace_path_)) {
      std::fprintf(stderr, "warning: failed to write trace to %s\n",
                   trace_path_.c_str());
    }
  }
  if (!metrics_path_.empty()) {
    if (!support::global_metrics().snapshot().write_json(metrics_path_)) {
      std::fprintf(stderr, "warning: failed to write metrics to %s\n",
                   metrics_path_.c_str());
    }
  }
}

}  // namespace cdpf::sim
