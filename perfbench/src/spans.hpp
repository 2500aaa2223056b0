// In-memory span recording around the library calls the benchmark makes.
//
// Spans are recorded from the benchmark's own code only: one per call into a
// library layer (deploy, radio, trajectory, construct, churn, iterate) plus
// the trial / set-up / iteration spans that group them. A trial's spans are
// collected in a single-threaded SpanBuffer and appended to the shared
// SpanLog when the trial ends, so worker threads never contend per span.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call in this process (monotonic).
double now_s();

enum class SpanName : std::uint8_t {
  kTrial,
  kSetup,
  kDeploy,
  kRadio,
  kTrajectory,
  kConstruct,
  kIteration,
  kChurn,
  kIterate,
  kScore,
  kFinalize,
};
inline constexpr std::size_t kSpanNameCount = 11;
const char* span_name(SpanName name);

struct Span {
  SpanName name;
  std::int32_t parent;  // index into the owning buffer/log, -1 at the root
  std::uint64_t trial;  // spans of one trial share this id
  double start;
  double end;
};

/// Spans of one trial. A disabled buffer records nothing and costs one
/// branch per call.
class SpanBuffer {
 public:
  SpanBuffer(bool enabled, std::uint64_t trial) : enabled_(enabled), trial_(trial) {}

  bool enabled() const { return enabled_; }

  /// Open a span starting at `start` under the innermost open span.
  void open(SpanName name, double start);
  /// Close the innermost open span at `end`.
  void close(double end);
  /// Close every open span at `end` (a trial that threw mid-way).
  void close_all(double end);
  /// Record a closed child span of the innermost open span.
  void leaf(SpanName name, double start, double end);

  std::vector<Span>& spans() { return spans_; }

 private:
  bool enabled_;
  std::uint64_t trial_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Every span of a run, appended trial by trial (thread-safe).
class SpanLog {
 public:
  void append(SpanBuffer& buffer);

  /// Per span name: summed duration and summed self time (duration minus the
  /// part covered by direct children), in seconds.
  struct Totals {
    double total_s[kSpanNameCount] = {};
    double self_s[kSpanNameCount] = {};
    std::size_t count[kSpanNameCount] = {};
  };
  Totals totals() const;

  /// Chrome trace-event JSON ("X" events, one track per trial).
  void write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
