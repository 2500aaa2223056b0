// Structured tracing: scoped spans + instant events + counter samples,
// recorded into lock-free per-thread ring buffers and exported as Chrome
// trace format (chrome://tracing / Perfetto-loadable JSON) or a JSONL event
// stream.
//
// Cost model, from cold to hot:
//   * macros compiled out (the default, no CDPF_TRACING) — zero overhead,
//     the instrumentation does not exist in the binary;
//   * compiled in, no active session — one relaxed atomic load per site;
//   * compiled in, session active — one steady-clock read per event end
//     plus an append into a pre-reserved per-thread buffer: no locks, no
//     allocation on the hot path (a thread's buffer is allocated once, the
//     first time that thread records into a session).
// Tracing therefore never perturbs the filter's results: it reads the clock
// and writes side buffers, but touches no RNG stream, no weight, and no
// allocator in the steady state — the PR-2 zero-allocation and PR-3
// bitwise-determinism contracts hold with tracing on and off.
//
// Instrumentation goes through the CDPF_TRACE_* macros below, never through
// direct Trace:: calls, so a default build compiles it all away. Span names
// must be unique kebab-case string literals (tools/cdpf_lint.py enforces
// this for src/), which makes every span a stable, greppable identifier in
// trace viewers and in tools/trace_summary.py output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cdpf::support {

/// One recorded event. `name` must point at static-storage strings (the
/// macros pass literals); events are POD so the ring buffers stay trivially
/// copyable.
struct TraceEvent {
  const char* name = nullptr;
  char phase = 'X';        // 'X' complete span, 'i' instant, 'C' counter
  std::uint32_t tid = 0;   // dense per-thread index, assigned at first use
  std::uint64_t ts_ns = 0; // steady-clock nanoseconds since session start
  std::uint64_t dur_ns = 0;  // span duration ('X' only)
  double value = 0.0;        // counter sample ('C' only)
};

/// Process-global trace session. All members are static: a session is a
/// property of the process run, like a profiler attachment. start()/stop()
/// and the writers take a registry lock; the record_*() fast paths touch
/// only the calling thread's buffer and are safe from any thread.
class Trace {
 public:
  /// Begin a new session: clears previously recorded events, restarts the
  /// clock epoch, and pre-sizes each thread's buffer to `events_per_thread`
  /// events (~40 B each). When a buffer fills up further events on that
  /// thread are dropped and counted (see dropped()).
  static void start(std::size_t events_per_thread = kDefaultCapacity);

  /// End the session. Recorded events are retained for the writers until
  /// the next start().
  static void stop();

  /// True between start() and stop() — the fast-path gate.
  static bool active();

  /// Nanoseconds since the session epoch (0 when no session ever started).
  static std::uint64_t now_ns();

  // -- Recording (call through the CDPF_TRACE_* macros) --------------------
  static void record_span(const char* name, std::uint64_t ts_ns,
                          std::uint64_t dur_ns);
  static void record_instant(const char* name);
  static void record_counter(const char* name, double value);

  // -- Introspection & export ---------------------------------------------
  /// Events recorded so far (all threads, buffer order within a thread).
  static std::vector<TraceEvent> events();
  /// Events refused because a per-thread buffer was full.
  static std::size_t dropped();

  /// Write all recorded events as Chrome trace format JSON — an object with
  /// a `traceEvents` array, loadable by chrome://tracing and Perfetto.
  /// Returns false when the file cannot be written.
  static bool write_chrome_json(const std::string& path);

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;
};

/// RAII span: captures the start timestamp on construction and records one
/// complete ('X') event on destruction. When no session is active the
/// constructor reduces to one relaxed load and the destructor to one branch.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(name), start_ns_(Trace::active() ? Trace::now_ns() : kInactive) {}
  ~TraceSpan() {
    if (start_ns_ != kInactive) {
      Trace::record_span(name_, start_ns_, Trace::now_ns() - start_ns_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static constexpr std::uint64_t kInactive = ~std::uint64_t{0};
  const char* name_;
  std::uint64_t start_ns_;
};

}  // namespace cdpf::support

// Instrumentation macros. Arguments must be side-effect free: when tracing
// is compiled out (or the session is inactive, for the value expression of
// CDPF_TRACE_COUNTER) they are not evaluated.
#define CDPF_TRACE_CONCAT_INNER(a, b) a##b
#define CDPF_TRACE_CONCAT(a, b) CDPF_TRACE_CONCAT_INNER(a, b)

#ifdef CDPF_TRACING
/// Scoped span covering the rest of the enclosing block. `name` must be a
/// unique kebab-case string literal (enforced by tools/cdpf_lint.py).
#define CDPF_TRACE_SPAN(name) \
  ::cdpf::support::TraceSpan CDPF_TRACE_CONCAT(cdpf_trace_span_, __LINE__)(name)
/// Zero-duration event (e.g. one radio transmission).
#define CDPF_TRACE_INSTANT(name)                    \
  do {                                              \
    if (::cdpf::support::Trace::active()) {         \
      ::cdpf::support::Trace::record_instant(name); \
    }                                               \
  } while (false)
/// Sampled counter value (rendered as a counter track by trace viewers).
#define CDPF_TRACE_COUNTER(name, value)                      \
  do {                                                       \
    if (::cdpf::support::Trace::active()) {                  \
      ::cdpf::support::Trace::record_counter(name, (value)); \
    }                                                        \
  } while (false)
#else
#define CDPF_TRACE_SPAN(name) static_cast<void>(0)
#define CDPF_TRACE_INSTANT(name) static_cast<void>(0)
#define CDPF_TRACE_COUNTER(name, value) static_cast<void>(0)
#endif
