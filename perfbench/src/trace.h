// Span recorder for the traced run. Spans are recorded from the benchmark's
// own files around each call into a layer of the program; nothing inside
// the program is instrumented. Each span carries its name, start, end, the
// index of its parent span (-1 for a root), and the id of the request or
// work item it belongs to. Spans stay in memory until the run ends, when
// WriteJson() dumps them and SelfSeconds() attributes time to layers.
//
// The program's internal calls cannot be seen from outside, so a child span
// is the same work replayed one layer down and timed on its own: the read a
// router forwarded, sent straight to the owning backend; a read, answered by
// an in-process FeatureService; an update, applied by an in-process
// StreamEngine. A child therefore need not lie inside its parent's interval.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string layer;      // e.g. "core.extractor"
    std::string operation;  // e.g. "BasicExtractor::Run"
    uint64_t trace_id = 0;
    int64_t parent = -1;
    int64_t start_ns = 0;  // since the tracer was created
    int64_t end_ns = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  uint64_t NewTraceId() { return next_trace_id_.fetch_add(1) + 1; }

  // Opens a span now; returns its index for End() and as a parent.
  int64_t Begin(const std::string& layer, const std::string& operation,
                uint64_t trace_id, int64_t parent = -1);
  void End(int64_t index);
  // Records a span whose interval was measured by the caller.
  int64_t Record(const std::string& layer, const std::string& operation,
                 uint64_t trace_id, int64_t parent, Clock::time_point start,
                 Clock::time_point end);

  // Per layer: summed span time minus, for each span, the length of the
  // union of its children's intervals (capped at the span's own length).
  // Children measured concurrently, such as the per-shard parts of a
  // batch, are counted once.
  std::map<std::string, double> SelfSeconds() const;
  size_t size() const;
  bool WriteJson(const std::string& path) const;

 private:
  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  const Clock::time_point origin_;
  std::atomic<uint64_t> next_trace_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// RAII span; a no-op when `tracer` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& layer,
             const std::string& operation, uint64_t trace_id,
             int64_t parent = -1)
      : tracer_(tracer),
        index_(tracer != nullptr
                   ? tracer->Begin(layer, operation, trace_id, parent)
                   : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
