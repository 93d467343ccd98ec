#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint32_t SpanRecorder::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return 0;
  const auto now = Clock::now();
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(
      {name, now, now, id, open_.empty() ? 0u : open_.back(), request});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end = Clock::now();
  open_.pop_back();
}

namespace {

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent.
std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent - 1].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point cursor = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end);
      if (b <= a) continue;
      covered += seconds_between(a, b);
      cursor = b;
    }
    self[i] = seconds_between(s.start, s.end) - covered;
  }
  return self;
}

}  // namespace

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  const std::vector<double> self = self_seconds(spans_);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_seconds += seconds_between(spans_[i].start, spans_[i].end);
    t.self_seconds += self[i];
  }
  return out;
}

double SpanRecorder::root_uncovered_share() const {
  const std::vector<double> self = self_seconds(spans_);
  double root_total = 0.0;
  double root_self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) continue;
    root_total += seconds_between(spans_[i].start, spans_[i].end);
    root_self += self[i];
  }
  return root_total > 0.0 ? root_self / root_total : 0.0;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin = spans_.empty() ? Clock::now() : spans_[0].start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"request\":%llu}}%s\n",
                 s.name, seconds_between(origin, s.start) * 1e6,
                 seconds_between(s.start, s.end) * 1e6, s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

void print_self_time_table(const std::map<std::string, SpanTotals>& totals) {
  double root_total = 0.0;
  for (const auto& [name, t] : totals) {
    if (name.rfind("bench.", 0) == 0) root_total += t.total_seconds;
  }
  std::printf("%-28s %10s %12s %12s %8s\n", "span", "count", "total_s",
              "self_s", "self%");
  for (const auto& [name, t] : totals) {
    std::printf("%-28s %10zu %12.6f %12.6f %7.2f%%\n", name.c_str(), t.count,
                t.total_seconds, t.self_seconds,
                root_total > 0.0 ? 100.0 * t.self_seconds / root_total : 0.0);
  }
}

}  // namespace perfbench
