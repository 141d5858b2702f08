// Serving phase: the program as a feature server, driven open-loop over
// loopback TCP, directly or through the router in front of two sliced
// backends. Both variants run the identical schedule from the same seed.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/census.h"
#include "core/extractor.h"
#include "graph/builder.h"
#include "io/snapshot.h"
#include "loadgen.h"
#include "phases.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "router/slicer.h"
#include "serve/client.h"
#include "serve/feature_service.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stream/stream_engine.h"
#include "trace.h"
#include "util/metrics.h"

namespace perfbench {

namespace core = hsgf::core;
namespace graph = hsgf::graph;
namespace io = hsgf::io;
namespace router = hsgf::router;
namespace serve = hsgf::serve;
namespace stream = hsgf::stream;
namespace util = hsgf::util;

namespace {

// The served graph: five interleaved components of LOAD shape at scale 0.2
// (~4,500 nodes; with one such 900-node graph setup_s spread 0.46 across
// six seeds, with five 0.04-0.11); 60% of the non-isolated nodes are
// persisted snapshot rows, the rest are served by on-demand census (emax 3,
// dmax 10: an update then dirties ~100 roots; at dmax 40 it dirtied a third
// of a component).
constexpr double kServeScale = 0.2;
constexpr int kServeComponents = 5;
constexpr int kServeEmax = 3;
constexpr int kServeDmax = 10;
constexpr double kSnapshotFrac = 0.6;
constexpr uint32_t kShards = 2;

// The reference rate is low on purpose: at 60 requests/s per connection a
// transport stall shorter than the gap between a connection's requests
// (such as Nagle's algorithm waiting on a delayed ACK) is not hidden by
// the next request's ACK, so it shows in the latency.
constexpr double kReferenceRate = 240.0;
// A read rate "meets the limit" when p99 read latency, failures counted as
// misses, stays within this and the backlog does not grow.
constexpr double kLatencyLimitMs = 100.0;
// Backlog test: the mean latency of a rung's last third may exceed its
// first third's by at most this much (a 10% overload grows the backlog by
// ~40 ms over a rung).
constexpr double kBacklogGrowthMs = 20.0;
// The fixed rate ladder: kLadderBase * kLadderStep^k requests/s.
constexpr double kLadderBase = 100.0;
constexpr double kLadderStep = 1.1;
// The ladder tops out at ~11.7k reads/s. Above it the verdict follows the
// shared machine's background load more than the server: direct serving met
// the limit anywhere from 65k to 127k reads/s and routed serving from 28k
// to 49k in repeated runs of one seed, and at ~23k routed serving missed
// twice in a row whenever the machine was busy. A deployment that meets the
// limit at the top reads the rate measured on the top rung, so the figure
// is a floor check.
constexpr int kLadderTop = 50;
constexpr int kWarmupRung = 40;
constexpr double kRungSeconds = 0.5;

struct Backend {
  util::MetricsRegistry metrics;
  io::Snapshot snapshot;
  std::unique_ptr<stream::StreamEngine> engine;
  std::unique_ptr<serve::FeatureService> service;
  std::unique_ptr<serve::SocketServer> server;
  std::thread thread;

  Backend() = default;
  ~Backend() {
    if (server) server->RequestStop();
    if (thread.joinable()) thread.join();
  }
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
};

struct Deployment {
  std::vector<std::unique_ptr<Backend>> backends;
  router::ShardMap map;
  util::MetricsRegistry router_metrics;
  std::unique_ptr<router::Router> router;
  std::thread router_thread;
  int port = -1;  // where clients connect

  Deployment() = default;
  ~Deployment() {
    if (router) router->RequestStop();
    if (router_thread.joinable()) router_thread.join();
    backends.clear();
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
};

stream::StreamEngineConfig EngineConfigFor(const io::Snapshot& snapshot) {
  stream::StreamEngineConfig config;
  config.census.max_edges = snapshot.max_edges();
  config.census.max_degree = snapshot.effective_dmax();
  config.census.mask_start_label = snapshot.mask_start_label();
  config.census.hash_seed = snapshot.hash_seed();
  config.log1p_transform = snapshot.log1p_transform();
  return config;
}

// A backend serving `snapshot` with the graph (cold misses) and a fresh
// stream engine (updates) attached. Without `listen` it is in-process only.
// With a tracer, the start is a serve span and the engine's construction a
// stream span inside it.
std::unique_ptr<Backend> StartBackend(io::Snapshot snapshot,
                                      const graph::HetGraph& graph,
                                      bool listen, Tracer* tracer,
                                      uint64_t trace_id, std::string* error) {
  ScopedSpan span(tracer, "serve", "StartBackend", trace_id);
  auto backend = std::make_unique<Backend>();
  backend->snapshot = std::move(snapshot);
  backend->service = std::make_unique<serve::FeatureService>(
      backend->snapshot, backend->metrics);
  {
    ScopedSpan engine_span(tracer, "stream", "StreamEngine()", trace_id,
                           span.index());
    backend->engine = std::make_unique<stream::StreamEngine>(
        graph, EngineConfigFor(backend->snapshot));
  }
  if (!backend->service->AttachGraph(graph, error) ||
      !backend->service->AttachStream(*backend->engine, error)) {
    return nullptr;
  }
  if (!listen) return backend;
  serve::ServerConfig config;
  config.tcp_port = 0;
  backend->server = std::make_unique<serve::SocketServer>(
      *backend->service, backend->metrics, config);
  if (!backend->server->Start(error)) return nullptr;
  backend->thread = std::thread([server = backend->server.get()] { server->Serve(); });
  return backend;
}

double LatencyPercentile(const LoadResult& load, OpKind kind, double q,
                         size_t* samples = nullptr) {
  std::vector<double> latencies;
  for (const RequestOutcome& outcome : load.outcomes) {
    if (outcome.kind == kind) latencies.push_back(outcome.latency_ms);
  }
  if (samples != nullptr) *samples = latencies.size();
  return Percentile(std::move(latencies), q);
}

struct RungVerdict {
  bool pass = false;
  double p99_ms = 0.0;
  double growth_ms = 0.0;
  double achieved_rps = 0.0;  // answered reads / (last answer - first send)
};

RungVerdict JudgeRung(const LoadResult& load) {
  RungVerdict verdict;
  std::vector<double> latencies;
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last = Clock::time_point::min();
  for (const RequestOutcome& outcome : load.outcomes) {
    latencies.push_back(outcome.latency_ms);
    if (!outcome.ok) continue;
    first = std::min(first, outcome.sent);
    last = std::max(last, outcome.answered);
  }
  if (load.ok > 0 && last > first) {
    verdict.achieved_rps =
        static_cast<double>(load.ok) / SecondsBetween(first, last);
  }
  verdict.p99_ms = Percentile(latencies, 0.99);
  const size_t third = latencies.size() / 3;
  if (third > 0) {
    const std::vector<double> first(latencies.begin(),
                                    latencies.begin() + static_cast<long>(third));
    const std::vector<double> last(latencies.end() - static_cast<long>(third),
                                   latencies.end());
    verdict.growth_ms = (Sum(last) - Sum(first)) / static_cast<double>(third);
  }
  verdict.pass = load.failed == 0 && verdict.p99_ms <= kLatencyLimitMs &&
                 verdict.growth_ms <= kBacklogGrowthMs;
  return verdict;
}

// Served rows must equal `expected` (rows of an extraction, keyed by column
// hash) projected onto the served vocabulary, bit for bit.
int64_t CompareServed(const std::vector<graph::NodeId>& roots,
                      const core::FeatureSet& expected,
                      const std::vector<uint64_t>& vocabulary, int port,
                      std::string* detail) {
  serve::Client client;
  if (!client.ConnectTcp(port).ok() || !client.Hello().ok()) {
    *detail = "gate client cannot connect";
    return -1;
  }
  std::unordered_map<uint64_t, size_t> column_of;
  for (size_t c = 0; c < expected.feature_hashes.size(); ++c) {
    column_of[expected.feature_hashes[c]] = c;
  }
  int64_t compared = 0;
  for (size_t begin = 0; begin < roots.size(); begin += serve::kMaxBatchRoots) {
    const size_t end = std::min(roots.size(), begin + serve::kMaxBatchRoots);
    const std::vector<int32_t> chunk(roots.begin() + static_cast<long>(begin),
                                     roots.begin() + static_cast<long>(end));
    serve::Response response;
    if (!client.GetFeaturesBatch(chunk, &response).ok() ||
        response.batch.size() != chunk.size()) {
      *detail = "gate batch request failed";
      return -1;
    }
    for (size_t i = 0; i < chunk.size(); ++i) {
      const serve::BatchEntry& entry = response.batch[i];
      if (entry.status != serve::StatusCode::kOk ||
          entry.values.size() != vocabulary.size()) {
        *detail = "root " + std::to_string(chunk[i]) + " not served in full";
        return -1;
      }
      for (size_t c = 0; c < vocabulary.size(); ++c) {
        const auto it = column_of.find(vocabulary[c]);
        const double want =
            it == column_of.end()
                ? 0.0
                : expected.matrix(static_cast<int>(begin + i),
                                  static_cast<int>(it->second));
        if (entry.values[c] != want) {
          *detail = "root " + std::to_string(chunk[i]) + " column " +
                    std::to_string(c) + " differs";
          return -1;
        }
      }
      ++compared;
    }
  }
  return compared;
}

std::vector<uint64_t> ServedVocabulary(int port) {
  serve::Client client;
  serve::Response response;
  if (!client.ConnectTcp(port).ok() || !client.Hello().ok() ||
      !client.GetVocabulary(&response).ok()) {
    return {};
  }
  return response.hashes;
}

core::ExtractorConfig ServeExtractorConfig(unsigned threads) {
  core::ExtractorConfig config;
  config.census.max_edges = kServeEmax;
  config.census.max_degree = kServeDmax;
  config.census.keep_encodings = true;
  config.num_threads = threads;
  return config;
}

// The base graph with every update applied. Updates never reuse a node
// pair, so the result does not depend on the order they were applied in.
graph::HetGraph ApplyAll(const graph::HetGraph& base,
                         const std::vector<ScheduledOp>& schedule) {
  std::set<std::pair<graph::NodeId, graph::NodeId>> removed, added;
  for (const ScheduledOp& op : schedule) {
    for (const stream::DeltaOp& delta : op.ops) {
      const auto key = std::minmax(delta.u, delta.v);
      (delta.kind == stream::DeltaKind::kRemoveEdge ? removed : added).insert(key);
    }
  }
  graph::GraphBuilder builder(base.label_names());
  for (graph::NodeId v = 0; v < base.num_nodes(); ++v) builder.AddNode(base.label(v));
  for (graph::NodeId u = 0; u < base.num_nodes(); ++u) {
    for (graph::NodeId v : base.neighbors(u)) {
      if (u < v && removed.count({u, v}) == 0) builder.AddEdge(u, v);
    }
  }
  for (const auto& [u, v] : added) builder.AddEdge(u, v);
  return std::move(builder).Build();
}

double HistogramP99(const util::MetricsSnapshot& snapshot, const char* name) {
  const util::HistogramSnapshot* histogram = snapshot.Histogram(name);
  return histogram != nullptr && histogram->count > 0
             ? static_cast<double>(histogram->Percentile(99.0))
             : 0.0;
}

}  // namespace

PhaseReport RunServePhase(Context& ctx, bool routed, double budget_s) {
  PhaseReport report;
  RunLedger& ledger = ctx.ledger;
  const uint64_t seed = ctx.options.seed * 7919 + 17;

  // --- inputs --------------------------------------------------------------
  const graph::HetGraph graph = MakeLoadLikeGraph(kServeScale, kServeComponents, seed);
  std::vector<graph::NodeId> candidates = SampleRoots(
      graph, RootSpec{static_cast<size_t>(graph.num_nodes()), 0, 0, 0}, seed + 1);
  const size_t snapshot_count =
      static_cast<size_t>(kSnapshotFrac * static_cast<double>(candidates.size()));
  std::vector<graph::NodeId> snapshot_rows(
      candidates.begin(), candidates.begin() + static_cast<long>(snapshot_count));
  std::sort(snapshot_rows.begin(), snapshot_rows.end());
  TrafficModel traffic(graph, snapshot_rows, kServeDmax, seed + 2);
  const uint32_t connections = std::max(1u, ctx.options.threads);
  const double reference_s = 0.6 * budget_s;
  const std::vector<ScheduledOp> schedule = traffic.Schedule(
      kReferenceRate, reference_s, connections, false, seed + 3);
  Log("serve (%s): %d nodes, %lld edges, %zu snapshot rows, %zu requests at "
      "%.0f/s over %u connections",
      routed ? "routed" : "direct", graph.num_nodes(),
      static_cast<long long>(graph.num_edges()), snapshot_rows.size(),
      schedule.size(), kReferenceRate, connections);
  ResetPeakRss();

  // --- the snapshot extraction (not timed) ----------------------------------
  const core::ExtractorConfig config = ServeExtractorConfig(ctx.options.threads);
  const core::ExtractionResult extracted = core::Extractor(graph, config).Run(snapshot_rows);
  ledger.attempted += 1;
  if (extracted.stopped_early || extracted.truncated_nodes > 0) ledger.failed += 1;
  const io::SnapshotContents contents =
      io::MakeSnapshotContents(graph, snapshot_rows, extracted, config);

  // --- set-up, repeated; the last deployment serves the run ---------------
  const std::string stem = ctx.options.work_dir + "/serve." + std::to_string(getpid());
  const std::string snapshot_path = stem + ".hsnap";
  auto slice_path = [&stem](uint32_t shard) {
    return stem + ".shard" + std::to_string(shard) + ".hsnap";
  };
  std::unique_ptr<Deployment> deployment;
  std::vector<double> save_times, open_times;
  std::string error;
  // Builds a deployment; null (with `error` set) if any step failed.
  auto deploy = [&]() -> std::unique_ptr<Deployment> {
    if (!error.empty()) return nullptr;
    const uint64_t id = ctx.tracer != nullptr ? ctx.tracer->NewTraceId() : 0;
    auto next = std::make_unique<Deployment>();
    io::SnapshotError snapshot_error;
    Clock::time_point start = Clock::now();
    {
      ScopedSpan span(ctx.tracer, "io", "SaveSnapshot", id);
      if (!io::SaveSnapshot(snapshot_path, contents, &snapshot_error)) {
        error = "SaveSnapshot: " + snapshot_error.message;
        return nullptr;
      }
    }
    save_times.push_back(SecondsBetween(start, Clock::now()));
    start = Clock::now();
    std::optional<io::Snapshot> snapshot;
    {
      ScopedSpan span(ctx.tracer, "io", "OpenSnapshot", id);
      snapshot = io::OpenSnapshot(snapshot_path, &snapshot_error);
    }
    open_times.push_back(SecondsBetween(start, Clock::now()));
    if (!snapshot.has_value()) {
      error = "OpenSnapshot: " + snapshot_error.message;
      return nullptr;
    }
    if (!routed) {
      auto backend = StartBackend(*snapshot, graph, true, ctx.tracer, id, &error);
      if (backend == nullptr) return nullptr;
      next->port = backend->server->tcp_port();
      next->backends.push_back(std::move(backend));
    } else {
      next->map = router::ShardMap::Build(kShards);
      {
        ScopedSpan span(ctx.tracer, "router", "WriteShardSlices", id);
        router::SliceStats stats;
        if (!router::WriteShardSlices(*snapshot, next->map, slice_path, &stats,
                                      &error)) {
          return nullptr;
        }
      }
      for (uint32_t shard = 0; shard < kShards; ++shard) {
        std::optional<io::Snapshot> slice;
        {
          ScopedSpan span(ctx.tracer, "io", "OpenSnapshot", id);
          slice = io::OpenSnapshot(slice_path(shard), &snapshot_error);
        }
        if (!slice.has_value()) {
          error = "OpenSnapshot(slice): " + snapshot_error.message;
          return nullptr;
        }
        auto backend = StartBackend(*slice, graph, true, ctx.tracer, id, &error);
        if (backend == nullptr) return nullptr;
        next->map.set_endpoints(
            shard, {"tcp:" + std::to_string(backend->server->tcp_port())});
        next->backends.push_back(std::move(backend));
      }
      ScopedSpan span(ctx.tracer, "router", "Router::Start", id);
      router::RouterConfig router_config;
      router_config.tcp_port = 0;
      next->router = std::make_unique<router::Router>(
          next->map, next->router_metrics, router_config);
      if (!next->router->Start(&error)) return nullptr;
      next->router_thread =
          std::thread([r = next->router.get()] { r->Serve(); });
      next->port = next->router->tcp_port();
    }
    return next;
  };
  report.setup_s = MedianSetupSeconds([&] { deployment.reset(); },
                                      [&] { deployment = deploy(); });
  if (deployment == nullptr) {
    Log("error: serving set-up failed: %s", error.c_str());
    ledger.gates.push_back({"serve: set-up", 1, 1, error});
    return report;
  }

  // --- gate 1: every pre-update row against the extractor -----------------
  {
    Gate gate{"serve: pre-update rows vs extractor (snapshot rows)", 0, 0, {}};
    gate.compared = CompareServed(snapshot_rows, extracted.features,
                                  ServedVocabulary(deployment->port),
                                  deployment->port, &gate.detail);
    if (gate.compared < 0) {
      gate.compared = static_cast<int64_t>(snapshot_rows.size());
      gate.mismatched = 1;
    }
    ledger.gates.push_back(gate);
  }

  // --- reference rate --------------------------------------------------------
  LoadOptions load_options;
  load_options.ports.assign(connections, deployment->port);
  load_options.tracer = ctx.tracer;
  load_options.layer = routed ? "router" : "serve";
  const LoadResult load = RunOpenLoop(schedule, load_options);
  ledger.attempted += static_cast<int64_t>(schedule.size());
  ledger.failed += load.failed;
  std::vector<util::MetricsSnapshot> backend_metrics;
  for (const auto& backend : deployment->backends) {
    backend_metrics.push_back(backend->metrics.Snapshot());
  }
  const util::MetricsSnapshot router_metrics = deployment->router_metrics.Snapshot();

  size_t reads = 0, batches = 0, updates = 0;
  const double read_p50 = LatencyPercentile(load, OpKind::kRead, 0.50, &reads);
  const double read_p99 = LatencyPercentile(load, OpKind::kRead, 0.99);
  const double batch_p50 = LatencyPercentile(load, OpKind::kBatch, 0.50, &batches);
  std::vector<double> update_ms;
  for (const RequestOutcome& outcome : load.outcomes) {
    if (outcome.kind == OpKind::kUpdate) update_ms.push_back(outcome.latency_ms);
  }
  updates = update_ms.size();
  const double update_mean =
      updates > 0 ? Sum(update_ms) / static_cast<double>(updates) : 0.0;
  Log("serve: reference %zu reads p50 %.3f p99 %.3f ms; %zu batches "
      "p50 %.3f ms; %zu updates mean %.3f ms; %lld failed",
      reads, read_p50, read_p99, batches, batch_p50, updates,
      update_mean, static_cast<long long>(load.failed));

  // The ladder below overloads the server on purpose; memory is reported
  // for the operation at the reference rate.
  report.peak_rss_bytes = PeakRssBytes();

  // --- gate 2: touched roots against a from-scratch census of the final
  // mutated graph (the stream engine's bit-identity contract) --------------
  bool updates_ok = true;
  std::set<graph::NodeId> touched;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const ScheduledOp& op = schedule[i];
    if (op.kind == OpKind::kUpdate) {
      updates_ok = updates_ok && load.outcomes[i].ok;
      for (const stream::DeltaOp& delta : op.ops) {
        touched.insert(delta.u);
        touched.insert(delta.v);
      }
    }
    touched.insert(op.nodes.begin(), op.nodes.end());
  }
  const graph::HetGraph final_graph = ApplyAll(graph, schedule);
  {
    Gate gate{"serve: touched roots vs from-scratch census of the final graph (roots)", 0, 0, {}};
    const std::vector<graph::NodeId> roots(touched.begin(), touched.end());
    core::ExtractorConfig scratch_config = config;
    scratch_config.census.keep_encodings = false;
    scratch_config.census.max_degree = extracted.effective_dmax;
    core::Extractor scratch(final_graph, scratch_config);
    const core::ExtractionResult expected = scratch.Run(roots);
    gate.compared = CompareServed(roots, expected.features,
                                  ServedVocabulary(deployment->port),
                                  deployment->port, &gate.detail);
    if (!updates_ok) {
      gate.mismatched = 1;
      gate.detail = "an update failed, so the final graph is unknown";
    }
    if (gate.compared < 0) {
      gate.compared = static_cast<int64_t>(roots.size());
      gate.mismatched = 1;
    }
    ledger.gates.push_back(gate);
  }

  ledger.E2E("read_p50_ms", read_p50);
  ledger.E2E("batch_p50_ms", batch_p50);

  // --- per-layer metrics (traced run) ---------------------------------------
  if (ctx.tracer != nullptr) {
    // --- rate ladder, on a fresh deployment: the top rung first, then
    // bisection below a miss. After the reference run's updates the first
    // heavy traffic missed the limit at rates that passed a few probes later
    // (routed p99 ~450 ms at ~11.7k reads/s, then ~2 ms), so the ladder
    // measures a deployment no update has touched. --------------------------
    deployment.reset();
    deployment = deploy();
    if (deployment == nullptr) {
      Log("error: serving set-up failed: %s", error.c_str());
      ledger.gates.push_back({"serve: set-up for the ladder", 1, 1, error});
      return report;
    }
    load_options.ports.assign(connections, deployment->port);
    load_options.tracer = nullptr;
    int64_t ladder_probes = 0;
    std::map<int, double> achieved_rps;  // per rung, from its latest probe
    // A rung counts as missed only if it misses twice in a row, so one
    // scheduling hiccup on a shared machine cannot decide the verdict.
    auto probe_once = [&](int k) {
      // Each rung's schedule depends on the seed and the rung alone, not on
      // the search path that reached it.
      const LoadResult rung = RunOpenLoop(
          traffic.Schedule(kLadderBase * std::pow(kLadderStep, k), kRungSeconds,
                           connections, true, seed * 131 + static_cast<uint64_t>(k)),
          load_options);
      ++ladder_probes;
      const RungVerdict verdict = JudgeRung(rung);
      achieved_rps[k] = verdict.achieved_rps;
      Log("serve: ladder %.0f/s -> achieved %.0f/s, p99 %.2f ms, growth %.2f ms, "
          "failed %lld: %s",
          kLadderBase * std::pow(kLadderStep, k), verdict.achieved_rps, verdict.p99_ms,
          verdict.growth_ms, static_cast<long long>(rung.failed),
          verdict.pass ? "meets" : "misses");
      return verdict.pass;
    };
    // A missed probe can leave requests queued in the server; they drain
    // before the next probe starts.
    auto probe_drained = [&](int k) {
      if (probe_once(k)) return true;
      std::this_thread::sleep_for(std::chrono::seconds(1));
      return false;
    };
    auto probe = [&](int k) { return probe_drained(k) || probe_drained(k); };
    // Warm-up, not judged: the fresh deployment's feature cache is empty, and
    // its first reads of rows outside the snapshot are cold censuses. The
    // rung is a moderate one (~4.5k reads/s).
    RunOpenLoop(traffic.Schedule(kLadderBase * std::pow(kLadderStep, kWarmupRung),
                                 kRungSeconds, connections, true, seed * 131 + 997),
                load_options);
    // A deployment that meets the limit on the top rung needs one probe. The
    // low rungs carry a few dozen requests each, so their p99 is one request's
    // latency, and they are only probed when a higher rung missed.
    int pass = -1;
    int fail = kLadderTop + 1;
    if (probe(kLadderTop)) {
      pass = kLadderTop;
    } else {
      fail = kLadderTop;
    }
    while (fail - pass > 1) {
      const int mid = pass + (fail - pass) / 2;
      if (probe(mid)) {
        pass = mid;
      } else {
        fail = mid;
      }
    }
    // Even the lowest rung missed: report its rate, with the log above.
    pass = std::max(pass, 0);
    // The measured read rate of the highest rung that met the limit.
    ledger.Layer("loadgen.max_read_rps", achieved_rps[pass]);
    ledger.Layer("loadgen.ladder_probes", static_cast<double>(ladder_probes));

    ledger.Layer("io.snapshot_save_s", Median(save_times));
    ledger.Layer("io.snapshot_open_s", Median(open_times));

    // Router: the same reads and batches sent straight to the owning
    // backends, at the same times, give the latency the hop adds. In the
    // trace each replayed request is a serve child of the routed request
    // (a batch has one child per owning shard), so the router's self time
    // is the hop.
    std::vector<int64_t> owner_span(schedule.size(), -1);
    double hop_p50 = 0.0, hop_p99 = 0.0, fanout = 0.0;
    if (routed) {
      const uint32_t per_shard = std::max(1u, connections / kShards);
      LoadOptions owner_options = load_options;
      owner_options.ports.clear();
      for (uint32_t shard = 0; shard < kShards; ++shard) {
        for (uint32_t c = 0; c < per_shard; ++c) {
          owner_options.ports.push_back(
              deployment->backends[shard]->server->tcp_port());
        }
      }
      std::vector<ScheduledOp> owned;
      std::vector<size_t> origin;  // owned[j] replays schedule[origin[j]]
      double shards_touched = 0.0, batch_count = 0.0;
      for (size_t i = 0; i < schedule.size(); ++i) {
        const ScheduledOp& op = schedule[i];
        if (op.kind == OpKind::kUpdate) continue;
        std::map<uint32_t, std::vector<int32_t>> by_shard;
        for (int32_t node : op.nodes) {
          by_shard[deployment->map.ShardOf(node)].push_back(node);
        }
        if (op.kind == OpKind::kBatch) {
          shards_touched += static_cast<double>(by_shard.size());
          batch_count += 1.0;
        }
        for (auto& [shard, nodes] : by_shard) {
          ScheduledOp part = op;
          part.nodes = std::move(nodes);
          part.connection = shard * per_shard + op.connection % per_shard;
          owned.push_back(std::move(part));
          origin.push_back(i);
        }
      }
      const LoadResult direct = RunOpenLoop(owned, owner_options);
      hop_p50 = read_p50 - LatencyPercentile(direct, OpKind::kRead, 0.50);
      hop_p99 = read_p99 - LatencyPercentile(direct, OpKind::kRead, 0.99);
      fanout = batch_count > 0 ? shards_touched / batch_count : 0.0;
      for (size_t j = 0; j < owned.size(); ++j) {
        const RequestOutcome& routed_request = load.outcomes[origin[j]];
        const RequestOutcome& replay = direct.outcomes[j];
        if (routed_request.span < 0 || !replay.ok) continue;
        owner_span[origin[j]] = ctx.tracer->Record(
            "serve", owned[j].kind == OpKind::kRead ? "GetFeatures (owner)"
                                                    : "GetFeaturesBatch (owner)",
            routed_request.trace_id, routed_request.span, replay.sent,
            replay.answered);
      }
    }
    ledger.Layer("router.hop_p50_ms", hop_p50);
    ledger.Layer("router.hop_p99_ms", hop_p99);
    ledger.Layer("router.fanout_per_batch", fanout);
    ledger.Layer("router.request_p99_us", HistogramP99(router_metrics, "router.request_micros"));
    ledger.Layer("router.shard_errors", static_cast<double>(router_metrics.Counter("router.shard_errors")));
    ledger.Layer("router.shard_timeouts", static_cast<double>(router_metrics.Counter("router.shard_timeouts")));
    ledger.Layer("router.unavailable_roots", static_cast<double>(router_metrics.Counter("router.unavailable_roots")));
    ledger.Layer("router.overloaded_roots", static_cast<double>(router_metrics.Counter("router.overloaded_roots")));

    // In-process service time on the same read sequence, on a fresh
    // backend so the cache starts as cold as the server's did. Each call is
    // a child of the read it replays: of the client's request when served
    // directly, of the owner replay when routed.
    std::vector<double> service_us;
    {
      io::SnapshotError snapshot_error;
      auto snapshot = io::OpenSnapshot(snapshot_path, &snapshot_error);
      auto local = snapshot ? StartBackend(*snapshot, graph, false, nullptr, 0, &error)
                            : nullptr;
      for (size_t i = 0; local != nullptr && i < schedule.size(); ++i) {
        if (schedule[i].kind != OpKind::kRead) continue;
        const RequestOutcome& request = load.outcomes[i];
        const int64_t parent = routed ? owner_span[i] : request.span;
        ScopedSpan span(ctx.tracer, "serve", "FeatureService::GetFeatures",
                        parent >= 0 ? request.trace_id : ctx.tracer->NewTraceId(),
                        parent);
        const Clock::time_point start = Clock::now();
        const auto reply = local->service->GetFeatures(schedule[i].nodes[0]);
        service_us.push_back(SecondsBetween(start, Clock::now()) * 1e6);
        (void)reply;
      }
    }
    const double service_p50 = Percentile(service_us, 0.50);
    ledger.Layer("serve.service_read_p50_us", service_p50);
    ledger.Layer("serve.service_read_p99_us", Percentile(service_us, 0.99));
    ledger.Layer("serve.transport_p50_us", read_p50 * 1e3 - service_p50);

    double request_p99 = 0.0, cold_p99 = 0.0;
    int64_t overloaded = 0, deadline = 0, invalidations = 0, applied = 0;
    for (const util::MetricsSnapshot& m : backend_metrics) {
      request_p99 = std::max(request_p99, HistogramP99(m, "serve.request_micros"));
      cold_p99 = std::max(cold_p99, HistogramP99(m, "serve.cold_census_micros"));
      overloaded += m.Counter("serve.overloaded");
      deadline += m.Counter("serve.deadline_exceeded");
      invalidations += m.Counter("serve.cache_invalidations");
      applied += m.Counter("serve.updates");
    }
    ledger.Layer("serve.server_request_p99_us", request_p99);
    ledger.Layer("serve.update_mean_ms", update_mean);
    std::map<uint8_t, double> sources;
    double answered = 0.0;
    for (const RequestOutcome& outcome : load.outcomes) {
      if (outcome.kind != OpKind::kRead || !outcome.ok) continue;
      sources[outcome.source] += 1.0;
      answered += 1.0;
    }
    auto share = [&](serve::FeatureSource source) {
      return answered > 0 ? sources[static_cast<uint8_t>(source)] / answered : 0.0;
    };
    ledger.Layer("serve.snapshot_frac", share(serve::FeatureSource::kSnapshot));
    ledger.Layer("serve.cache_hit_frac", share(serve::FeatureSource::kCache));
    ledger.Layer("serve.stream_frac", share(serve::FeatureSource::kStream));
    ledger.Layer("serve.cold_frac", share(serve::FeatureSource::kComputed));
    ledger.Layer("serve.cold_census_p99_us", cold_p99);
    ledger.Layer("serve.overloaded", static_cast<double>(overloaded));
    ledger.Layer("serve.deadline_exceeded", static_cast<double>(deadline));
    ledger.Layer("serve.cache_invalidations_per_update",
                 applied > 0 ? static_cast<double>(invalidations) /
                                   static_cast<double>(applied)
                             : 0.0);

    // Stream: the run's update batches applied in-process, in schedule
    // order, against a full re-census of the final graph. Each apply is a
    // child of the client's update request.
    {
      stream::StreamEngine engine(graph, EngineConfigFor(deployment->backends[0]->snapshot));
      const std::vector<uint64_t> hashes(extracted.features.feature_hashes);
      engine.SeedVocabulary(hashes);
      std::vector<double> apply_ms;
      double dirty = 0.0;
      for (size_t i = 0; i < schedule.size(); ++i) {
        const ScheduledOp& op = schedule[i];
        if (op.kind != OpKind::kUpdate) continue;
        const RequestOutcome& request = load.outcomes[i];
        ScopedSpan span(ctx.tracer, "stream", "StreamEngine::ApplyBatch",
                        request.span >= 0 ? request.trace_id : ctx.tracer->NewTraceId(),
                        request.span);
        const Clock::time_point start = Clock::now();
        const auto result = engine.ApplyBatch(op.ops);
        apply_ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
        dirty += static_cast<double>(result.dirty_roots.size());
      }
      core::CensusConfig census = config.census;
      census.keep_encodings = false;
      census.max_degree = extracted.effective_dmax;
      core::CensusWorker worker(final_graph, census);
      core::CensusResult result;
      const Clock::time_point start = Clock::now();
      for (graph::NodeId v = 0; v < final_graph.num_nodes(); ++v) worker.Run(v, result);
      const double full_s = SecondsBetween(start, Clock::now());
      ledger.Layer("stream.apply_p50_ms", Percentile(apply_ms, 0.50));
      ledger.Layer("stream.apply_p99_ms", Percentile(apply_ms, 0.99));
      ledger.Layer("stream.dirty_roots_per_update",
                   apply_ms.empty() ? 0.0 : dirty / static_cast<double>(apply_ms.size()));
      ledger.Layer("stream.incremental_speedup",
                   apply_ms.empty() ? 0.0 : full_s / (Sum(apply_ms) * 1e-3));
    }

    std::vector<double> late, traced, untraced;
    for (const RequestOutcome& outcome : load.outcomes) {
      late.push_back(outcome.late_ms);
      if (outcome.kind != OpKind::kRead || !outcome.ok) continue;
      (outcome.index % 2 == 0 ? traced : untraced).push_back(outcome.latency_ms);
    }
    ledger.Layer("loadgen.late_p99_ms", Percentile(late, 0.99));
    ledger.Layer("loadgen.sent", static_cast<double>(load.sent));
    ledger.Layer("loadgen.ok", static_cast<double>(load.ok));
    ledger.Layer("loadgen.failed", static_cast<double>(load.failed));
    ledger.Layer("loadgen.error_frac",
                 schedule.empty() ? 0.0
                                  : static_cast<double>(load.failed) /
                                        static_cast<double>(schedule.size()));
    ledger.Layer("trace.overhead_read_p50_frac",
                 Median(untraced) > 0 ? Median(traced) / Median(untraced) - 1.0 : 0.0);
  }

  deployment.reset();
  std::remove(snapshot_path.c_str());
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    std::remove(slice_path(shard).c_str());
  }
  return report;
}

}  // namespace perfbench
