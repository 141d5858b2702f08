// The measured phases a workload is built from. Every workload runs one
// extraction phase and then one serving phase; subgraphs_per_s comes from
// the first, the latencies from the second (see BENCHMARK.json).
#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/extractor.h"
#include "trace.h"

namespace perfbench {

struct PhaseReport {
  double setup_s = 0.0;          // median of the phase's repeated set-ups
  double subgraphs_per_s = 0.0;  // median over the phase's Run() calls
  int64_t peak_rss_bytes = 0;    // peak after the phase's inputs were made
};

// Batch extraction over the in-memory CSR: LOAD-shaped graph, emax 5,
// dmax 40, hub-inclusive root samples, one extractor thread per core.
PhaseReport RunExtractCsrPhase(Context& ctx, double budget_s);

// Batch extraction over a block-compressed container several times larger
// than its block-cache budget: emax 3, many cheap roots.
PhaseReport RunExtractOocPhase(Context& ctx, double budget_s);

// Serving: snapshot extraction (not timed), snapshot save/open, a server
// (or a router in front of two sliced backends) with the graph and a stream
// engine attached, then an open-loop request schedule at the reference rate
// and, in the traced run, a read-rate ladder on a fresh deployment.
PhaseReport RunServePhase(Context& ctx, bool routed, double budget_s);

// Shared by the phases: the result of timing repeated Run() calls.
struct RunSeries {
  std::vector<double> wall_s;
  std::vector<double> subgraphs_per_s;
  std::vector<bool> traced;  // run carried a span (every other run, traced)
  double median_subgraphs_per_s = 0.0;
  int64_t failed_runs = 0;  // stopped early or with truncated roots
  size_t last_sample = 0;   // which sample `last` extracted
  hsgf::core::ExtractionResult last;
  // Run() calls, warm-up included, on the extractor that produced `last`;
  // its metrics in `last` are cumulative over them.
  int64_t last_extractor_runs = 0;
};

// Calls extractor.Run() once untimed (warm-up), then repeatedly until
// `budget_s` has passed and at least `min_runs` timed runs were made; run i
// extracts samples[i % samples.size()]. Throughput is the median over the
// runs, so a run slowed by another tenant of a shared machine does not move
// it. In the traced run every other call gets a core.extractor span, so the
// two halves give the tracing overhead.
template <typename GraphT>
RunSeries TimeRuns(Context& ctx, hsgf::core::BasicExtractor<GraphT>& extractor,
                   const std::vector<std::vector<hsgf::graph::NodeId>>& samples,
                   double budget_s, int min_runs) {
  RunSeries series;
  series.last = extractor.Run(samples[0]);
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(series.wall_s.size()) < min_runs ||
         SecondsBetween(start, Clock::now()) < budget_s) {
    const size_t run = series.wall_s.size();
    series.last_sample = run % samples.size();
    const bool traced = ctx.tracer != nullptr && run % 2 == 0;
    ScopedSpan span(traced ? ctx.tracer : nullptr, "core.extractor",
                    "BasicExtractor::Run",
                    traced ? ctx.tracer->NewTraceId() : 0);
    series.last = {};  // keep one result alive at a time, as a caller would
    const Clock::time_point run_start = Clock::now();
    series.last = extractor.Run(samples[series.last_sample]);
    const double wall = SecondsBetween(run_start, Clock::now());
    series.wall_s.push_back(wall);
    series.traced.push_back(traced);
    series.subgraphs_per_s.push_back(
        static_cast<double>(series.last.total_subgraphs) / wall);
    if (series.last.stopped_early || series.last.truncated_nodes > 0) {
      ++series.failed_runs;
    }
  }
  series.median_subgraphs_per_s = Median(series.subgraphs_per_s);
  series.last_extractor_runs = static_cast<int64_t>(series.wall_s.size()) + 1;
  return series;
}

// Runs ctx.options.threads single-thread extractors side by side, each on
// its own thread and timed by TimeRuns over its own samples (lane l runs
// samples[l]), and returns their runs together. The throughput is the sum
// of the lanes' median rates. make(l) builds lane l's extractor together
// with whatever it reads through, so the lanes share no cache and no lock.
// One lane follows the speed of the vCPU it runs on, which on a shared host
// moves by a third from minute to minute; the vCPUs move independently, so
// their sum moves far less (a served snapshot's extraction, repeats of one
// seed: one lane 2.4-3.3e7 subgraphs/s, four lanes summed 9.6-10.6e7).
// `last` and its sample are lane 0's.
template <typename Make>
RunSeries TimeLanes(
    Context& ctx, Make make,
    const std::vector<std::vector<std::vector<hsgf::graph::NodeId>>>& samples,
    double budget_s, int min_runs) {
  const size_t lanes = samples.size();
  std::vector<RunSeries> per_lane(lanes);
  std::vector<std::thread> threads;
  for (size_t l = 0; l < lanes; ++l) {
    threads.emplace_back([&, l] {
      auto extractor = make(l);
      if (extractor == nullptr) {
        Log("error: extraction lane %zu could not start", l);
        per_lane[l].failed_runs = 1;
        return;
      }
      per_lane[l] = TimeRuns(ctx, *extractor, samples[l], budget_s, min_runs);
    });
  }
  for (std::thread& thread : threads) thread.join();
  RunSeries series = std::move(per_lane[0]);
  for (size_t l = 1; l < lanes; ++l) {
    const RunSeries& lane = per_lane[l];
    series.wall_s.insert(series.wall_s.end(), lane.wall_s.begin(), lane.wall_s.end());
    series.subgraphs_per_s.insert(series.subgraphs_per_s.end(),
                                  lane.subgraphs_per_s.begin(),
                                  lane.subgraphs_per_s.end());
    series.traced.insert(series.traced.end(), lane.traced.begin(), lane.traced.end());
    series.median_subgraphs_per_s += lane.median_subgraphs_per_s;
    series.failed_runs += lane.failed_runs;
  }
  return series;
}

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
