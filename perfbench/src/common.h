// Shared plumbing of the same-box benchmark: run options, the metric and
// correctness-gate ledger every phase writes into, order statistics, and
// process-memory probes.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

class Tracer;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;      // nproc: extractor threads and loadgen budget
  std::string work_dir;      // scratch files (containers, snapshots, traces)
};

// One correctness gate: how many roots/rows it compared and whether every
// comparison held. A failed gate fails the whole run.
struct Gate {
  std::string name;
  int64_t compared = 0;
  int64_t mismatched = 0;
  std::string detail;  // first mismatch, for the log
};

// Everything a run reports. End-to-end metrics are measured with tracing
// off; per-layer metrics only in the traced run. Phases add to both, and
// main() prints the set the run mode asks for.
struct RunLedger {
  std::vector<std::pair<std::string, double>> end_to_end;
  std::vector<std::pair<std::string, double>> per_layer;
  std::vector<Gate> gates;
  int64_t attempted = 0;
  int64_t failed = 0;

  void E2E(const std::string& name, double value) {
    end_to_end.emplace_back(name, value);
  }
  void Layer(const std::string& name, double value) {
    per_layer.emplace_back(name, value);
  }
  bool AllGatesPassed() const;
};

struct Context {
  Options options;
  RunLedger ledger;
  Tracer* tracer = nullptr;  // non-null only in the traced run
};

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

// Peak resident set size of this process in bytes (VmHWM).
int64_t PeakRssBytes();
// Returns freed heap to the kernel and restarts the peak-RSS watermark at
// the current resident size, so the peak that follows excludes the input
// generator. Returns false when the kernel does not support the reset.
bool ResetPeakRss();

// Logs a progress line to stderr (stdout carries only results).
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Runs `teardown` (untimed) and then `setup` (timed) `repeats` times and
// returns the median time of `setup`. The last repetition's state is the one
// the caller keeps.
constexpr int kSetupRepeats = 25;
template <typename Teardown, typename Setup>
double MedianSetupSeconds(Teardown&& teardown, Setup&& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    teardown();
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(SecondsBetween(start, Clock::now()));
  }
  return Median(std::move(times));
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
