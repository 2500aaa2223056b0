// Observability plane tests: trace sessions produce valid Chrome-trace
// JSON under span nesting and thread interleaving, and metrics counters are
// exact (bitwise-identical snapshots) for any run_slots_ordered worker count.
//
// These tests exercise the always-compiled runtime API (Trace::record_*,
// MetricsRegistry) directly, so they pass identically whether or not the
// CDPF_TRACE_* instrumentation macros are compiled in (CDPF_TRACING).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/observability.hpp"
#include "sim/runspec.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "wsn/comm_stats.hpp"
#include "wsn/message.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf {
namespace {

using support::JsonValue;

/// The member `key` of a parsed object; a missing member fails the test and
/// reads as null.
const JsonValue& member(const JsonValue& object, const std::string& key) {
  static const JsonValue kMissing;
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    ADD_FAILURE() << "JSON object lacks member '" << key << "'";
    return kMissing;
  }
  return *value;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem;
}

// ---------------------------------------------------------------------------
// Trace sessions

TEST(Trace, SpansNestAndExportValidChromeJson) {
  support::Trace::start(1024);
  {
    support::TraceSpan outer("outer-span");
    {
      support::TraceSpan inner("inner-span");
    }
    support::Trace::record_instant("instant-mark");
    support::Trace::record_counter("counter-mark", 42.5);
  }
  support::Trace::stop();

  const std::vector<support::TraceEvent> events = support::Trace::events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(support::Trace::dropped(), 0u);

  // The inner span closes before the outer: events appear in completion
  // order, and the outer duration contains the inner's.
  const support::TraceEvent* outer = nullptr;
  const support::TraceEvent* inner = nullptr;
  for (const support::TraceEvent& e : events) {
    if (std::string(e.name) == "outer-span") {
      outer = &e;
    }
    if (std::string(e.name) == "inner-span") {
      inner = &e;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_LE(outer->ts_ns, inner->ts_ns);
  EXPECT_GE(outer->ts_ns + outer->dur_ns, inner->ts_ns + inner->dur_ns);

  const std::string path = temp_path("trace_nesting.json");
  ASSERT_TRUE(support::Trace::write_chrome_json(path));
  const JsonValue doc = support::parse_json(read_file(path));
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const std::vector<JsonValue>& trace_events = member(doc, "traceEvents").array;
  ASSERT_EQ(trace_events.size(), 4u);
  for (const JsonValue& ev : trace_events) {
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    for (const char* key : {"name", "ph", "ts", "pid", "tid"}) {
      EXPECT_NE(ev.find(key), nullptr) << key;
    }
    const std::string& ph = member(ev, "ph").string;
    if (ph == "X") {
      EXPECT_NE(ev.find("dur"), nullptr);
    } else if (ph == "i") {
      EXPECT_EQ(member(ev, "s").string, "t");
    } else if (ph == "C") {
      EXPECT_EQ(member(member(ev, "args"), "value").number, 42.5);
    } else {
      ADD_FAILURE() << "unexpected phase " << ph;
    }
  }
  std::remove(path.c_str());
}

TEST(Trace, ThreadInterleavingKeepsPerThreadBuffersValid) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpansPerThread = 100;
  support::Trace::start(4 * kSpansPerThread);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (std::size_t i = 0; i < kSpansPerThread; ++i) {
          support::TraceSpan span("worker-span");
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  support::Trace::stop();

  const std::vector<support::TraceEvent> events = support::Trace::events();
  EXPECT_EQ(events.size(), kThreads * kSpansPerThread);
  EXPECT_EQ(support::Trace::dropped(), 0u);

  // Events from each thread carry that thread's dense tid and are in
  // monotonically non-decreasing timestamp order within the thread.
  std::map<std::uint32_t, std::uint64_t> last_ts;
  std::map<std::uint32_t, std::size_t> per_thread;
  for (const support::TraceEvent& e : events) {
    EXPECT_GE(e.ts_ns, last_ts[e.tid]);
    last_ts[e.tid] = e.ts_ns;
    ++per_thread[e.tid];
  }
  EXPECT_EQ(per_thread.size(), kThreads);
  for (const auto& [tid, count] : per_thread) {
    EXPECT_EQ(count, kSpansPerThread) << "tid " << tid;
  }

  const std::string path = temp_path("trace_threads.json");
  ASSERT_TRUE(support::Trace::write_chrome_json(path));
  const JsonValue doc = support::parse_json(read_file(path));
  EXPECT_EQ(member(doc, "traceEvents").array.size(), kThreads * kSpansPerThread);
  std::remove(path.c_str());
}

TEST(Trace, FullBufferDropsAndCounts) {
  support::Trace::start(8);
  for (int i = 0; i < 20; ++i) {
    support::Trace::record_instant("overflow-mark");
  }
  support::Trace::stop();
  EXPECT_EQ(support::Trace::events().size(), 8u);
  EXPECT_EQ(support::Trace::dropped(), 12u);
}

TEST(Trace, InactiveSessionRecordsNothing) {
  support::Trace::start(64);
  support::Trace::stop();
  {
    support::TraceSpan span("ignored-span");
    support::Trace::record_instant("ignored-mark");
  }
  EXPECT_TRUE(support::Trace::events().empty());
}

// ---------------------------------------------------------------------------
// Metrics registry

/// The snapshot entry named `name`, or nullptr.
const support::MetricsSnapshot::Entry* find_entry(const support::MetricsSnapshot& snap,
                                                  std::string_view name) {
  for (const support::MetricsSnapshot::Entry& entry : snap.entries) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

TEST(Metrics, CounterTotalsExactForAnyWorkerCount) {
  constexpr std::size_t kItems = 10000;
  constexpr std::uint64_t kExpected =
      static_cast<std::uint64_t>(kItems) * (kItems + 1) / 2;
  support::MetricsRegistry registry;
  const auto id = registry.counter("test-work-items", "items");
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    registry.reset();
    (void)sim::run_slots_ordered<char>(kItems, workers, [&](std::size_t i) {
      registry.add(id, static_cast<std::uint64_t>(i) + 1);
      return char{};
    });
    const support::MetricsSnapshot snap = registry.snapshot();
    const auto* entry = find_entry(snap, "test-work-items");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->count, kExpected) << "workers=" << workers;
    EXPECT_EQ(entry->unit, "items");
  }
}

TEST(Metrics, SnapshotJsonIsValid) {
  support::MetricsRegistry registry;
  registry.add(registry.counter("test-bytes", "bytes"), 1234);

  const std::string path = temp_path("metrics_snapshot.json");
  ASSERT_TRUE(registry.snapshot().write_json(path));
  const JsonValue doc = support::parse_json(read_file(path));
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(member(doc, "schema").string, "cdpf-metrics/1");
  const std::vector<JsonValue>& metrics = member(doc, "metrics").array;
  ASSERT_EQ(metrics.size(), 1u);
  for (const JsonValue& m : metrics) {
    EXPECT_NE(m.find("name"), nullptr);
    EXPECT_NE(m.find("kind"), nullptr);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CommStats bridge: snapshots reproduce the simulator's accounting exactly

wsn::CommStats make_stats(std::size_t salt) {
  wsn::CommStats stats;
  for (std::size_t i = 0; i < wsn::kNumMessageKinds; ++i) {
    const auto kind = static_cast<wsn::MessageKind>(i);
    for (std::size_t n = 0; n < (i + salt) % 5 + 1; ++n) {
      stats.record(kind, 16 * (i + 1) + salt, 3 + i);
    }
  }
  return stats;
}

TEST(ObserveComm, ReproducesCommStatsTotalsBitwise) {
  const wsn::CommStats stats = make_stats(1);
  support::MetricsRegistry registry;
  sim::observe_comm(stats, registry);
  const support::MetricsSnapshot snap = registry.snapshot();

  EXPECT_EQ(find_entry(snap, "comm-total-bytes")->count,
            static_cast<std::uint64_t>(stats.total_bytes()));
  EXPECT_EQ(find_entry(snap, "comm-total-messages")->count,
            static_cast<std::uint64_t>(stats.total_messages()));
  EXPECT_EQ(find_entry(snap, "comm-total-receptions")->count,
            static_cast<std::uint64_t>(stats.total_receptions()));
  for (std::size_t i = 0; i < wsn::kNumMessageKinds; ++i) {
    const auto kind = static_cast<wsn::MessageKind>(i);
    const std::string base = "comm-" + std::string(wsn::message_kind_name(kind));
    EXPECT_EQ(find_entry(snap, base + "-bytes")->count,
              static_cast<std::uint64_t>(stats.bytes(kind)));
    EXPECT_EQ(find_entry(snap, base + "-messages")->count,
              static_cast<std::uint64_t>(stats.messages(kind)));
    EXPECT_EQ(find_entry(snap, base + "-receptions")->count,
              static_cast<std::uint64_t>(stats.receptions(kind)));
  }
}

TEST(ObserveComm, ConcurrentFoldsMatchSerialFoldForAnyWorkerCount) {
  // The Table I / Monte-Carlo situation: many trials fold their CommStats
  // into the registry from worker threads. Counter addition commutes, so
  // the totals must be bitwise identical to a serial fold, whatever the
  // worker count or interleaving.
  constexpr std::size_t kTrials = 64;
  std::vector<wsn::CommStats> trials;
  trials.reserve(kTrials);
  std::size_t serial_bytes = 0;
  std::size_t serial_messages = 0;
  std::size_t serial_receptions = 0;
  for (std::size_t t = 0; t < kTrials; ++t) {
    trials.push_back(make_stats(t));
    serial_bytes += trials.back().total_bytes();
    serial_messages += trials.back().total_messages();
    serial_receptions += trials.back().total_receptions();
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4},
                                    std::size_t{9}}) {
    support::MetricsRegistry registry;
    (void)sim::run_slots_ordered<char>(kTrials, workers, [&](std::size_t t) {
      sim::observe_comm(trials[t], registry);
      return char{};
    });
    const support::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(find_entry(snap, "comm-total-bytes")->count,
              static_cast<std::uint64_t>(serial_bytes))
        << "workers=" << workers;
    EXPECT_EQ(find_entry(snap, "comm-total-messages")->count,
              static_cast<std::uint64_t>(serial_messages))
        << "workers=" << workers;
    EXPECT_EQ(find_entry(snap, "comm-total-receptions")->count,
              static_cast<std::uint64_t>(serial_receptions))
        << "workers=" << workers;
  }
}

TEST(ObservabilityScope, WritesTraceAndMetricsFilesOnDestruction) {
  const std::string trace_path = temp_path("scope_trace.json");
  const std::string metrics_path = temp_path("scope_metrics.json");
  {
    sim::ObservabilityScope scope(trace_path, metrics_path);
    sim::observe_comm(make_stats(3));
  }
  // Both files must exist and parse, with or without CDPF_TRACING: a
  // default build writes an empty-but-valid trace.
  const JsonValue trace_doc = support::parse_json(read_file(trace_path));
  EXPECT_NE(trace_doc.find("traceEvents"), nullptr);
  const JsonValue metrics_doc = support::parse_json(read_file(metrics_path));
  EXPECT_EQ(member(metrics_doc, "schema").string, "cdpf-metrics/1");
  EXPECT_GT(member(metrics_doc, "metrics").array.size(), 0u);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(ObservabilityScope, WarnsOnStderrWhenTheTraceDroppedEvents) {
  const std::string trace_path = temp_path("scope_dropped.json");
  for (const int records : {4, 10}) {
    testing::internal::CaptureStderr();
    {
      sim::ObservabilityScope scope(trace_path, "");
      support::Trace::start(4);  // a 4-event buffer: 10 records drop 6
      for (int i = 0; i < records; ++i) {
        support::Trace::record_counter("scope-fill", 1.0);
      }
    }
    const std::string err = testing::internal::GetCapturedStderr();
    const std::string expected = records == 10 ? "warning: trace dropped 6 events\n" : "";
    EXPECT_EQ(err.substr(std::min(err.find("warning: trace dropped"), err.size())), expected);
  }
  std::remove(trace_path.c_str());
}

// ---------------------------------------------------------------------------
// Macro smoke tests: valid in every build; record only under CDPF_TRACING.

TEST(TraceMacros, CompileAndRespectBuildConfiguration) {
  support::Trace::start(64);
  {
    CDPF_TRACE_SPAN("macro-smoke-span");
    CDPF_TRACE_INSTANT("macro-smoke-instant");
    CDPF_TRACE_COUNTER("macro-smoke-counter", 1.0);
  }
  support::Trace::stop();
#ifdef CDPF_TRACING
  EXPECT_EQ(support::Trace::events().size(), 3u);
#else
  EXPECT_TRUE(support::Trace::events().empty());
#endif
}

/// Span names in `events`, counted.
std::map<std::string, std::size_t> span_counts(
    const std::vector<support::TraceEvent>& events) {
  std::map<std::string, std::size_t> counts;
  for (const support::TraceEvent& e : events) {
    ++counts[e.name];
  }
  return counts;
}

// SDPF's and CPF's stage spans: once per steady-state iteration each.
TEST(TraceMacros, SdpfAndCpfStagesSpanOncePerIteration) {
  struct Stages {
    sim::AlgorithmKind kind;
    std::vector<std::string> spans;
  };
  const Stages trackers[] = {
      {sim::AlgorithmKind::kSdpf,
       {"sdpf-propagate", "sdpf-seed", "sdpf-share", "sdpf-weight", "sdpf-aggregate",
        "sdpf-resample"}},
      {sim::AlgorithmKind::kCpf,
       {"cpf-route", "cpf-predict", "cpf-likelihood", "cpf-resample"}},
  };
  constexpr std::size_t kIterations = 5;
  for (const Stages& stages : trackers) {
    rng::Rng rng(3);
    const sim::Scenario scenario;
    wsn::Network network = sim::build_network(scenario, rng);
    wsn::Radio radio(network, scenario.payloads);
    const auto tracker = sim::make_tracker(stages.kind, network, radio, {});
    geom::Vec2 target{60.0, 100.0};
    const double dt = tracker->time_step();
    auto step = [&](std::size_t k) {
      tracker->iterate({target, {3.0, 0.0}}, dt * static_cast<double>(k), rng);
      target.x += 3.0 * dt;
    };
    step(0);  // the first iteration only seeds (SDPF) or initializes (CPF)
    support::Trace::start(std::size_t{1} << 16);
    for (std::size_t k = 1; k <= kIterations; ++k) {
      step(k);
    }
    support::Trace::stop();
    ASSERT_EQ(support::Trace::dropped(), 0u);
    const std::map<std::string, std::size_t> counts =
        span_counts(support::Trace::events());
    for (const std::string& name : stages.spans) {
#ifdef CDPF_TRACING
      EXPECT_EQ(counts.count(name) ? counts.at(name) : 0u, kIterations) << name;
#else
      EXPECT_EQ(counts.count(name), 0u) << name;
#endif
    }
  }
}

}  // namespace
}  // namespace cdpf
