#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <utility>

namespace perfbench {

int64_t Tracer::Begin(const std::string& layer, const std::string& operation,
                      uint64_t trace_id, int64_t parent) {
  const int64_t now = ToNs(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({layer, operation, trace_id, parent, now, now});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t index) {
  const int64_t now = ToNs(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

int64_t Tracer::Record(const std::string& layer, const std::string& operation,
                       uint64_t trace_id, int64_t parent,
                       Clock::time_point start, Clock::time_point end) {
  const Span span{layer, operation, trace_id, parent, ToNs(start), ToNs(end)};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = std::numeric_limits<int64_t>::min();
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, cursor);
      if (end > from) {
        covered += end - from;
        cursor = end;
      }
    }
    const int64_t length = span.end_ns - span.start_ns;
    self[span.layer] +=
        static_cast<double>(length - std::min(length, covered)) * 1e-9;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"spans\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\":" << i << ",\"layer\":\""
        << span.layer << "\",\"op\":\"" << span.operation
        << "\",\"trace\":" << span.trace_id << ",\"parent\":" << span.parent
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
