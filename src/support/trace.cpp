#include "support/trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

#include "support/json.hpp"

namespace cdpf::support {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-thread event storage. Owned by the registry (so events survive the
/// recording thread), written by exactly one thread while a session is
/// active, and read only after stop() or under the registry lock.
struct ThreadBuffer {
  std::vector<TraceEvent> events;  // reserved to capacity at registration
  std::size_t dropped = 0;
  std::uint32_t tid = 0;
};

struct Registry {
  std::mutex mutex;  // guards buffers/capacity/epoch; never on the hot path
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::size_t capacity = Trace::kDefaultCapacity;
  Clock::time_point epoch{};
  // Session generation: bumped by start() so threads holding a pointer into
  // a previous session's buffer list re-register instead of writing stale
  // storage. The flag is the fast-path gate; both are relaxed because the
  // session boundary is externally synchronized (a session is started
  // before the traced work is handed to worker threads).
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> active{false};
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_generation = 0;

/// The calling thread's buffer for the current session, registering (and
/// allocating, once per thread per session) on first use.
ThreadBuffer* local_buffer() {
  Registry& r = registry();
  const std::uint64_t generation = r.generation.load(std::memory_order_relaxed);
  if (t_buffer != nullptr && t_generation == generation) {
    return t_buffer;
  }
  std::lock_guard lock(r.mutex);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->events.reserve(r.capacity);
  buffer->tid = static_cast<std::uint32_t>(r.buffers.size());
  t_buffer = buffer.get();
  t_generation = generation;
  r.buffers.push_back(std::move(buffer));
  return t_buffer;
}

void record(const char* name, char phase, std::uint64_t ts_ns, std::uint64_t dur_ns,
            double value) {
  ThreadBuffer* buffer = local_buffer();
  if (buffer->events.size() >= buffer->events.capacity()) {
    ++buffer->dropped;
    return;
  }
  buffer->events.push_back({name, phase, buffer->tid, ts_ns, dur_ns, value});
}

}  // namespace

void Trace::start(std::size_t events_per_thread) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.buffers.clear();
  r.capacity = events_per_thread > 0 ? events_per_thread : 1;
  r.epoch = Clock::now();
  r.generation.fetch_add(1, std::memory_order_relaxed);
  r.active.store(true, std::memory_order_release);
}

void Trace::stop() { registry().active.store(false, std::memory_order_release); }

bool Trace::active() {
  return registry().active.load(std::memory_order_relaxed);
}

std::uint64_t Trace::now_ns() {
  const Registry& r = registry();
  if (r.epoch == Clock::time_point{}) {
    return 0;
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - r.epoch)
          .count());
}

void Trace::record_span(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns) {
  if (!active()) {
    return;
  }
  record(name, 'X', ts_ns, dur_ns, 0.0);
}

void Trace::record_instant(const char* name) {
  if (!active()) {
    return;
  }
  record(name, 'i', now_ns(), 0, 0.0);
}

void Trace::record_counter(const char* name, double value) {
  if (!active()) {
    return;
  }
  record(name, 'C', now_ns(), 0, value);
}

std::vector<TraceEvent> Trace::events() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::vector<TraceEvent> out;
  for (const auto& buffer : r.buffers) {
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

std::size_t Trace::dropped() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::size_t total = 0;
  for (const auto& buffer : r.buffers) {
    total += buffer->dropped;
  }
  return total;
}

bool Trace::write_chrome_json(const std::string& path) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  // Chrome trace format: timestamps and durations in fractional
  // microseconds; "i" events carry a thread ("t") scope.
  out << "{\"traceEvents\":[";
  bool first = true;
  std::size_t dropped_total = 0;
  for (const auto& buffer : r.buffers) {
    dropped_total += buffer->dropped;
    for (const TraceEvent& e : buffer->events) {
      if (!first) {
        out << ",";
      }
      first = false;
      out << "\n{\"name\":\"" << json_escape(e.name)
          << "\",\"cat\":\"cdpf\",\"ph\":\"" << e.phase
          << "\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
          << static_cast<double>(e.ts_ns) / 1e3;
      if (e.phase == 'X') {
        out << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3;
      } else if (e.phase == 'i') {
        out << ",\"s\":\"t\"";
      } else if (e.phase == 'C') {
        out << ",\"args\":{\"value\":" << e.value << "}";
      }
      out << "}";
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":\""
      << dropped_total << "\"}}\n";
  return static_cast<bool>(out);
}

}  // namespace cdpf::support
