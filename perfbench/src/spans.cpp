#include "spans.hpp"

#include <fstream>

namespace perfbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kTrial: return "trial";
    case SpanName::kSetup: return "setup";
    case SpanName::kDeploy: return "deploy";
    case SpanName::kRadio: return "radio";
    case SpanName::kTrajectory: return "trajectory";
    case SpanName::kConstruct: return "construct";
    case SpanName::kIteration: return "iteration";
    case SpanName::kChurn: return "churn";
    case SpanName::kIterate: return "iterate";
    case SpanName::kScore: return "score";
    case SpanName::kFinalize: return "finalize";
  }
  return "?";
}

void SpanBuffer::open(SpanName name, double start) {
  if (!enabled_) {
    return;
  }
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<std::int32_t>(spans_.size()));
  spans_.push_back({name, parent, trial_, start, start});
}

void SpanBuffer::close(double end) {
  if (!enabled_) {
    return;
  }
  spans_[static_cast<std::size_t>(open_.back())].end = end;
  open_.pop_back();
}

void SpanBuffer::close_all(double end) {
  while (!open_.empty()) {
    close(end);
  }
}

void SpanBuffer::leaf(SpanName name, double start, double end) {
  if (!enabled_) {
    return;
  }
  spans_.push_back({name, open_.empty() ? -1 : open_.back(), trial_, start, end});
}

void SpanLog::append(SpanBuffer& buffer) {
  std::vector<Span>& local = buffer.spans();
  std::lock_guard lock(mutex_);
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span s : local) {
    if (s.parent >= 0) {
      s.parent += offset;
    }
    spans_.push_back(s);
  }
  local.clear();
}

SpanLog::Totals SpanLog::totals() const {
  std::lock_guard lock(mutex_);
  Totals t;
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_cover[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto n = static_cast<std::size_t>(s.name);
    t.total_s[n] += s.end - s.start;
    t.self_s[n] += (s.end - s.start) - child_cover[i];
    ++t.count[n];
  }
  return t;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << span_name(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.trial
        << ",\"ts\":" << s.start * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
