// perfbench — the repository's same-box benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Extraction and load generation size themselves to the machine: one
// extractor thread (or lane) and one connection per hardware thread (nproc).
// Runs one workload (csr_direct, ooc_routed): an extraction phase and then a
// serving phase. Checks every output it produces against an independent
// computation, and prints one "name value unit" line per metric, one line
// per correctness gate, and finally one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the end-to-end set; with
// --trace 1 spans are recorded around every call into the program and the
// metrics are the per-layer set. Exit status 0 means the run completed,
// whatever the gates said; the JSON's "correct" carries their verdict.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "common.h"
#include "phases.h"
#include "trace.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"subgraphs_per_s", "1/s"}, {"read_p50_ms", "ms"},
    {"batch_p50_ms", "ms"},
};

constexpr const char* kLayers[] = {"core.census", "core.extractor", "gstore",
                                   "io",          "serve",          "router",
                                   "stream"};

// Per-layer metrics; a workload that does not exercise a layer reports 0
// for it (no router or container on csr_direct).
constexpr MetricSpec kPerLayer[] = {
    {"core.census.busy_s", "s"},
    {"core.census.subgraphs_per_busy_s", "1/s"},
    {"core.census.root_p50_us", "us"},
    {"core.census.root_p99_us", "us"},
    {"core.census.root_max_us", "us"},
    {"core.census.label_group_saved_frac", "fraction"},
    {"core.census.dmax_blocked", "count"},
    {"core.census.materializations", "count"},
    {"core.extractor.wall_s", "s"},
    {"core.extractor.scaling_eff", "fraction"},
    {"core.extractor.critical_root_share", "fraction"},
    {"core.extractor.vocab_matrix_s", "s"},
    {"gstore.write_s", "s"},
    {"gstore.open_s", "s"},
    {"gstore.cache_hit_frac", "fraction"},
    {"gstore.blocks_decoded", "count"},
    {"gstore.cache_evictions", "count"},
    {"gstore.prefetch_issued", "count"},
    {"gstore.view_penalty", "ratio"},
    {"gstore.container_mb", "MB"},
    {"gstore.cache_budget_mb", "MB"},
    {"io.snapshot_save_s", "s"},
    {"io.snapshot_open_s", "s"},
    {"serve.service_read_p50_us", "us"},
    {"serve.service_read_p99_us", "us"},
    {"serve.transport_p50_us", "us"},
    {"serve.server_request_p99_us", "us"},
    {"serve.update_mean_ms", "ms"},
    {"serve.snapshot_frac", "fraction"},
    {"serve.cache_hit_frac", "fraction"},
    {"serve.stream_frac", "fraction"},
    {"serve.cold_frac", "fraction"},
    {"serve.cold_census_p99_us", "us"},
    {"serve.overloaded", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.cache_invalidations_per_update", "count"},
    {"router.hop_p50_ms", "ms"},
    {"router.hop_p99_ms", "ms"},
    {"router.fanout_per_batch", "count"},
    {"router.request_p99_us", "us"},
    {"router.shard_errors", "count"},
    {"router.shard_timeouts", "count"},
    {"router.unavailable_roots", "count"},
    {"router.overloaded_roots", "count"},
    {"stream.apply_p50_ms", "ms"},
    {"stream.apply_p99_ms", "ms"},
    {"stream.dirty_roots_per_update", "count"},
    {"stream.incremental_speedup", "ratio"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.sent", "count"},
    {"loadgen.ok", "count"},
    {"loadgen.failed", "count"},
    {"loadgen.error_frac", "fraction"},
    {"loadgen.max_read_rps", "1/s"},
    {"loadgen.ladder_probes", "count"},
    {"trace.overhead_subgraphs_per_s_frac", "fraction"},
    {"trace.overhead_read_p50_frac", "fraction"},
    {"trace.self_s.core.census", "s"},
    {"trace.self_s.core.extractor", "s"},
    {"trace.self_s.gstore", "s"},
    {"trace.self_s.io", "s"},
    {"trace.self_s.serve", "s"},
    {"trace.self_s.router", "s"},
    {"trace.self_s.stream", "s"},
    {"trace.spans", "count"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "csr_direct|ooc_routed --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               message);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  options.work_dir = ".perfbench_work";
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + flag).c_str());
    seen.insert(flag);
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(required) == 0) Usage((std::string(required) + " is required").c_str());
  }
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");
  return options;
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 1e300);
  return buffer;
}

int Main(int argc, char** argv) {
  Context ctx;
  ctx.options = ParseOptions(argc, argv);
  const Options& options = ctx.options;
  mkdir(options.work_dir.c_str(), 0755);
  Tracer tracer;
  if (options.trace) ctx.tracer = &tracer;

  const double s = options.seconds;
  PhaseReport extraction, serving;
  if (options.workload == "csr_direct") {
    extraction = RunExtractCsrPhase(ctx, 0.4 * s);
    serving = RunServePhase(ctx, false, s);
  } else if (options.workload == "ooc_routed") {
    extraction = RunExtractOocPhase(ctx, 0.4 * s);
    serving = RunServePhase(ctx, true, s);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }

  RunLedger& ledger = ctx.ledger;
  ledger.E2E("setup_s", extraction.setup_s + serving.setup_s);
  const int64_t peak = std::max(extraction.peak_rss_bytes, serving.peak_rss_bytes);
  ledger.E2E("peak_rss_mb", static_cast<double>(peak) / (1 << 20));
  ledger.E2E("subgraphs_per_s", extraction.subgraphs_per_s);

  if (ctx.tracer != nullptr) {
    const std::map<std::string, double> self = tracer.SelfSeconds();
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      ledger.Layer(std::string("trace.self_s.") + layer,
                   it == self.end() ? 0.0 : it->second);
    }
    ledger.Layer("trace.spans", static_cast<double>(tracer.size()));
    const std::string path = options.work_dir + "/trace." + options.workload +
                             "." + std::to_string(options.seed) + ".json";
    if (tracer.WriteJson(path)) {
      std::printf("trace %s (%zu spans)\n", path.c_str(), tracer.size());
    }
  }

  for (const Gate& gate : ledger.gates) {
    std::printf("gate %s: compared %lld, mismatched %lld%s%s\n",
                gate.name.c_str(), static_cast<long long>(gate.compared),
                static_cast<long long>(gate.mismatched),
                gate.detail.empty() ? "" : " — ", gate.detail.c_str());
  }

  const auto& measured = options.trace ? ledger.per_layer : ledger.end_to_end;
  std::map<std::string, double> values;
  for (const auto& [name, value] : measured) values.emplace(name, value);
  std::string json = "{\"correct\": ";
  json += ledger.AllGatesPassed() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, ledger.attempted));
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    const auto it = values.find(spec.name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::printf("metric %s %s %s\n", spec.name, FormatNumber(value).c_str(), spec.unit);
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + FormatNumber(value) + ", \"unit\": \"" +
            spec.unit + "\"}";
    first = false;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
