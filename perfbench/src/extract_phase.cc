// Batch-extraction phases: the CSR headline (hub-skewed, emax 5) and the
// out-of-core container (many cheap roots through a small block cache).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>

#include "core/census.h"
#include "core/extractor.h"
#include "gstore/cgraph_writer.h"
#include "gstore/compressed_graph.h"
#include "loadgen.h"
#include "phases.h"
#include "trace.h"
#include "util/metrics.h"

namespace perfbench {

namespace core = hsgf::core;
namespace graph = hsgf::graph;
namespace gstore = hsgf::gstore;

namespace {

// extract_csr: LOAD shape at scale 1 (4,500 nodes), emax 5, dmax 40. Every
// Run() extracts one seeded sample of 158 roots: 150 of degree <= dmax and
// 8 hubs of degree in (dmax, 1.5 dmax], which the census expands only as
// start nodes. A hub root costs tens of ordinary ones and a single hub is a
// large share of a thread's work, so the extractor's scheduling decides the
// wall time. The graph's top hubs (degree in the hundreds) are left out: at
// emax 5 one of them alone runs for minutes, the paper's Table 3 outliers.
// The sample is large so that one sample per seed is representative; the
// same sample in every run keeps the allocation pattern, and so the peak
// memory, repeatable.
constexpr double kCsrScale = 1.0;
constexpr int kCsrEmax = 5;
constexpr int kCsrDmax = 40;
constexpr RootSpec kCsrRoots{158, 8, kCsrDmax, 3 * kCsrDmax / 2};
constexpr size_t kCsrGateRoots = 12;

// extract_ooc: ~45k nodes / ~270k edges (four interleaved LOAD-shaped
// components at scale 2.5) in a container written with the default block
// size (~1.6 MB on disk, ~3 MB decoded) read through a 1 MB decoded-block
// cache, so blocks are fetched, decoded and evicted throughout the run
// (cache hit rate ~0.5%, census ~14x slower than on the CSR). Roots are
// drawn among nodes of degree <= dmax: many cheap censuses, whose cost is
// dominated by fetching the adjacency of the hubs around them. Four
// components rather than one graph: the hubs' size, and with it the
// throughput, differs from seed to seed (one scale-10 graph: 1.5 to 2.0e6
// subgraphs/s over five seeds); ten scale-1 components have hubs too small
// to stress the cache. The extraction runs as nproc single-thread lanes
// (TimeLanes), each with its own graph, container and 1 MB cache. Threads of
// one extractor share its one cache and evict each other's blocks, so the
// hit rate and the throughput followed how their progress interleaved (four
// threads: 1.5 to 3.3e6 subgraphs/s on repeats of one seed, and barely
// faster than one thread). With one graph shared by the lanes, the sum
// still followed that graph: 1.27 to 1.94e7 subgraphs/s over six seeds.
constexpr double kOocScale = 2.5;
constexpr int kOocComponents = 4;
constexpr int kOocEmax = 3;
constexpr int kOocDmax = 40;
constexpr RootSpec kOocRoots{500, 0, kOocDmax, 0};
constexpr size_t kOocSamples = 16;
constexpr size_t kOocCacheBytes = 1u << 20;
constexpr size_t kPenaltyRoots = 200;

// Lane 0 keeps the run's seed; the others draw from streams of their own.
uint64_t LaneSeed(uint64_t seed, size_t lane) {
  return seed ^ (static_cast<uint64_t>(lane) * 0xd1b54a32d192ed03ULL);
}

core::ExtractorConfig MakeConfig(int emax, int dmax, unsigned threads) {
  core::ExtractorConfig config;
  config.census.max_edges = emax;
  config.census.max_degree = dmax;
  config.num_threads = threads;
  return config;
}

// Feature rows equal as sparse (column hash -> value) maps; values must be
// bit-identical. Returns the number of rows compared, or -1 with *detail set
// at the first mismatch. Rows are matched by position.
int64_t CompareFeatureRows(const core::FeatureSet& expected,
                           const std::vector<size_t>& expected_rows,
                           const core::FeatureSet& actual,
                           const std::vector<size_t>& actual_rows,
                           std::string* detail) {
  auto sparse_row = [](const core::FeatureSet& set, size_t row) {
    std::map<uint64_t, double> values;
    for (size_t c = 0; c < set.feature_hashes.size(); ++c) {
      const double v =
          set.matrix(static_cast<int>(row), static_cast<int>(c));
      if (v != 0.0) values[set.feature_hashes[c]] = v;
    }
    return values;
  };
  for (size_t i = 0; i < expected_rows.size(); ++i) {
    if (sparse_row(expected, expected_rows[i]) !=
        sparse_row(actual, actual_rows[i])) {
      *detail = "row " + std::to_string(actual_rows[i]) + " differs";
      return -1;
    }
  }
  return static_cast<int64_t>(expected_rows.size());
}

// The feature matrix of a seeded subset of the roots, extracted on one
// thread, must equal those rows of the multi-threaded matrix.
void GateSingleThreadSubset(Context& ctx, const graph::HetGraph& graph,
                            const std::vector<graph::NodeId>& roots,
                            const core::ExtractionResult& full,
                            const core::ExtractorConfig& config) {
  std::vector<size_t> picks(roots.size());
  for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
  std::mt19937_64 rng(ctx.options.seed ^ 0x5eedULL);
  std::shuffle(picks.begin(), picks.end(), rng);
  picks.resize(std::min(picks.size(), kCsrGateRoots));
  std::vector<graph::NodeId> subset;
  for (size_t i : picks) subset.push_back(roots[i]);

  core::ExtractorConfig single = config;
  single.num_threads = 1;
  core::Extractor extractor(graph, single);
  const core::ExtractionResult result = extractor.Run(subset);
  std::vector<size_t> own(subset.size());
  for (size_t i = 0; i < own.size(); ++i) own[i] = i;
  Gate gate{"extract_csr: single-thread subset vs multi-thread matrix (roots)", 0, 0, {}};
  gate.compared = CompareFeatureRows(result.features, own, full.features,
                                     picks, &gate.detail);
  if (gate.compared < 0) {
    gate.compared = static_cast<int64_t>(subset.size());
    gate.mismatched = 1;
  }
  ctx.ledger.gates.push_back(gate);
}

// Single-thread CensusWorker::Run over every root: the census layer's own
// cost, free of scheduling.
struct CensusPass {
  double busy_s = 0.0;
  int64_t subgraphs = 0;
  std::vector<double> root_us;
};

template <typename View>
CensusPass TimeCensusPerRoot(Tracer* tracer, const View& view,
                             const core::CensusConfig& config,
                             const std::vector<graph::NodeId>& roots) {
  CensusPass pass;
  core::BasicCensusWorker<View> worker(view, config);
  core::CensusResult result;
  for (graph::NodeId root : roots) {
    ScopedSpan span(tracer, "core.census", "CensusWorker::Run",
                    tracer != nullptr ? tracer->NewTraceId() : 0);
    const Clock::time_point start = Clock::now();
    worker.Run(root, result);
    const double seconds = SecondsBetween(start, Clock::now());
    pass.busy_s += seconds;
    pass.root_us.push_back(seconds * 1e6);
    pass.subgraphs += result.total_subgraphs;
  }
  return pass;
}

// Per-layer metrics shared by both extraction phases.
void ReportExtractionLayers(Context& ctx, const RunSeries& series,
                            const CensusPass& pass, unsigned thread_count) {
  RunLedger& ledger = ctx.ledger;
  const double threads = static_cast<double>(thread_count);
  const double wall = Median(series.wall_s);
  const double root_max = pass.root_us.empty()
                              ? 0.0
                              : *std::max_element(pass.root_us.begin(),
                                                  pass.root_us.end());
  ledger.Layer("core.census.busy_s", pass.busy_s);
  ledger.Layer("core.census.subgraphs_per_busy_s",
               static_cast<double>(pass.subgraphs) / pass.busy_s);
  ledger.Layer("core.census.root_p50_us", Percentile(pass.root_us, 0.50));
  ledger.Layer("core.census.root_p99_us", Percentile(pass.root_us, 0.99));
  ledger.Layer("core.census.root_max_us", root_max);

  const hsgf::util::MetricsSnapshot& m = series.last.metrics;
  const double runs = static_cast<double>(series.last_extractor_runs);
  const double subgraphs = static_cast<double>(m.Counter("census.subgraphs_total"));
  ledger.Layer("core.census.label_group_saved_frac",
               subgraphs > 0 ? static_cast<double>(m.Counter("census.label_group_saved")) / subgraphs
                             : 0.0);
  ledger.Layer("core.census.dmax_blocked",
               static_cast<double>(m.Counter("census.dmax_blocked")) / runs);
  ledger.Layer("core.census.materializations",
               static_cast<double>(m.Counter("census.encoding_materializations")) / runs);

  ledger.Layer("core.extractor.wall_s", wall);
  ledger.Layer("core.extractor.scaling_eff", pass.busy_s / (threads * wall));
  ledger.Layer("core.extractor.critical_root_share",
               root_max * 1e-6 / (pass.busy_s / threads));
  double vocab_matrix = 0.0;
  for (const char* name : {"extract.vocabulary", "extract.matrix_build"}) {
    if (const auto* span = m.Span(name)) vocab_matrix += span->seconds;
  }
  ledger.Layer("core.extractor.vocab_matrix_s", vocab_matrix / runs);

  std::vector<double> traced, untraced;
  for (size_t i = 0; i < series.wall_s.size(); ++i) {
    (series.traced[i] ? traced : untraced).push_back(series.subgraphs_per_s[i]);
  }
  ledger.Layer("trace.overhead_subgraphs_per_s_frac",
               traced.empty() || untraced.empty()
                   ? 0.0
                   : Median(untraced) / Median(traced) - 1.0);
}

}  // namespace

PhaseReport RunExtractCsrPhase(Context& ctx, double budget_s) {
  PhaseReport report;
  const graph::HetGraph graph = MakeLoadLikeGraph(kCsrScale, 1, ctx.options.seed);
  const std::vector<std::vector<graph::NodeId>> samples = {
      SampleRoots(graph, kCsrRoots, ctx.options.seed * 1000)};
  Log("extract_csr: %d nodes, %lld edges, %zu roots (%zu hubs)",
      graph.num_nodes(), static_cast<long long>(graph.num_edges()),
      kCsrRoots.count, kCsrRoots.hubs);
  ResetPeakRss();

  const core::ExtractorConfig config =
      MakeConfig(kCsrEmax, kCsrDmax, ctx.options.threads);
  std::unique_ptr<core::Extractor> extractor;
  report.setup_s = MedianSetupSeconds([&] { extractor.reset(); }, [&] {
    extractor = std::make_unique<core::Extractor>(graph, config);
  });
  const RunSeries series = TimeRuns(ctx, *extractor, samples, budget_s, 4);
  const std::vector<graph::NodeId>& roots = samples[series.last_sample];
  report.subgraphs_per_s = series.median_subgraphs_per_s;
  report.peak_rss_bytes = PeakRssBytes();
  ctx.ledger.attempted += static_cast<int64_t>(series.wall_s.size());
  ctx.ledger.failed += series.failed_runs;
  Log("extract_csr: %zu runs, median %.4f s, %.4g subgraphs/s",
      series.wall_s.size(), Median(series.wall_s), report.subgraphs_per_s);

  GateSingleThreadSubset(ctx, graph, roots, series.last, config);

  if (ctx.tracer != nullptr) {
    core::CensusConfig census = config.census;
    census.max_degree = extractor->effective_dmax();
    ReportExtractionLayers(ctx, series,
                           TimeCensusPerRoot(ctx.tracer, graph, census, roots),
                           config.num_threads);
  }
  return report;
}

PhaseReport RunExtractOocPhase(Context& ctx, double budget_s) {
  PhaseReport report;
  const size_t lanes = std::max(1u, ctx.options.threads);
  auto path_of = [&](size_t lane) {
    return ctx.options.work_dir + "/ooc." + std::to_string(getpid()) + "." +
           std::to_string(lane) + ".hscg";
  };
  auto remove_containers = [&] {
    for (size_t lane = 0; lane < lanes; ++lane) std::remove(path_of(lane).c_str());
  };
  // Each lane has a graph and container of its own, so the throughput sums
  // over independent graphs as well as independent vCPUs. Lane 0's graph is
  // the one the seed names; its write is the one timed.
  std::vector<std::vector<std::vector<graph::NodeId>>> samples(lanes);
  double write_s = 0.0;
  for (size_t lane = 0; lane < lanes; ++lane) {
    const uint64_t seed = LaneSeed(ctx.options.seed, lane);
    const graph::HetGraph graph = MakeLoadLikeGraph(kOocScale, kOocComponents, seed);
    for (size_t i = 0; i < kOocSamples; ++i) {
      samples[lane].push_back(SampleRoots(graph, kOocRoots, seed * 1000 + i));
    }
    Log("extract_ooc: lane %zu: %d nodes, %lld edges, samples of %zu roots",
        lane, graph.num_nodes(), static_cast<long long>(graph.num_edges()),
        kOocRoots.count);
    bool written = true;
    auto write = [&] {
      ScopedSpan span(ctx.tracer, "gstore", "WriteCompressedGraph",
                      ctx.tracer != nullptr ? ctx.tracer->NewTraceId() : 0);
      gstore::CGraphError error;
      written = written && gstore::WriteCompressedGraph(path_of(lane), graph, &error);
    };
    if (lane == 0) {
      write_s = MedianSetupSeconds([] {}, write);
    } else {
      write();
    }
    if (!written) {
      Log("error: WriteCompressedGraph failed");
      ctx.ledger.gates.push_back({"extract_ooc: container write", 1, 1, "write failed"});
      remove_containers();
      return report;
    }
  }
  // The CSRs are gone: from here on the process holds only the containers.
  ResetPeakRss();

  const core::ExtractorConfig config =
      MakeConfig(kOocEmax, kOocDmax, 1);
  hsgf::util::MetricsRegistry store_metrics;
  std::unique_ptr<gstore::CompressedGraph> store;
  std::unique_ptr<core::BasicExtractor<gstore::CompressedGraph>> extractor;
  std::vector<double> open_times;
  auto open = [&](size_t lane) {
    ScopedSpan span(ctx.tracer, "gstore", "CompressedGraph::Open",
                    ctx.tracer != nullptr ? ctx.tracer->NewTraceId() : 0);
    gstore::CGraphOptions options;
    options.cache_bytes = kOocCacheBytes;
    std::unique_ptr<gstore::CompressedGraph> opened =
        gstore::CompressedGraph::Open(path_of(lane), options);
    if (opened != nullptr) opened->AttachMetrics(&store_metrics);
    return opened;
  };
  auto close = [&] {
    extractor.reset();
    store.reset();
  };
  const double open_s = MedianSetupSeconds(close, [&] {
    const Clock::time_point start = Clock::now();
    store = open(0);
    open_times.push_back(SecondsBetween(start, Clock::now()));
    if (store == nullptr) return;
    extractor = std::make_unique<core::BasicExtractor<gstore::CompressedGraph>>(
        *store, config);
  });
  if (extractor == nullptr) {
    Log("error: CompressedGraph::Open failed");
    ctx.ledger.gates.push_back({"extract_ooc: container open", 1, 1, "open failed"});
    remove_containers();
    return report;
  }
  report.setup_s = write_s + open_s;

  Log("extract_ooc: container written (%.3f s) and opened (%.3f s)", write_s, open_s);
  const hsgf::util::MetricsSnapshot before = store_metrics.Snapshot();
  // Lane 0 reads through the container opened above; every other lane opens
  // its own, with its own block cache.
  struct Lane {
    std::unique_ptr<gstore::CompressedGraph> store;
    std::unique_ptr<core::BasicExtractor<gstore::CompressedGraph>> extractor;
  };
  using OocExtractor = core::BasicExtractor<gstore::CompressedGraph>;
  const RunSeries series = TimeLanes(
      ctx,
      [&](size_t lane) -> std::shared_ptr<OocExtractor> {
        if (lane == 0) return std::shared_ptr<OocExtractor>(std::shared_ptr<void>(), extractor.get());
        auto own = std::make_shared<Lane>();
        own->store = open(lane);
        if (own->store == nullptr) return nullptr;
        own->extractor = std::make_unique<OocExtractor>(*own->store, config);
        return std::shared_ptr<OocExtractor>(own, own->extractor.get());
      },
      samples, budget_s, 3);
  const hsgf::util::MetricsSnapshot after = store_metrics.Snapshot();
  const std::vector<graph::NodeId>& roots = samples[0][series.last_sample];
  report.subgraphs_per_s = series.median_subgraphs_per_s;
  report.peak_rss_bytes = PeakRssBytes();
  ctx.ledger.attempted += static_cast<int64_t>(series.wall_s.size());
  ctx.ledger.failed += series.failed_runs;
  Log("extract_ooc: %zu runs, median %.4f s, %.4g subgraphs/s, peak %.1f MB",
      series.wall_s.size(), Median(series.wall_s), report.subgraphs_per_s,
      static_cast<double>(report.peak_rss_bytes) / (1 << 20));

  // Gate: lane 0's container matrix equals the CSR's for the same roots. The
  // CSR is regenerated from the seed, independently of the container.
  const graph::HetGraph csr = MakeLoadLikeGraph(kOocScale, kOocComponents, ctx.options.seed);
  {
    core::Extractor csr_extractor(csr, config);
    const core::ExtractionResult expected = csr_extractor.Run(roots);
    std::vector<size_t> rows(roots.size());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    Gate gate{"extract_ooc: container matrix vs CSR matrix (roots)", 0, 0, {}};
    gate.compared = CompareFeatureRows(expected.features, rows,
                                       series.last.features, rows, &gate.detail);
    if (expected.features.feature_hashes != series.last.features.feature_hashes) {
      gate.mismatched = 1;
      gate.detail = "column vocabulary differs";
    }
    if (gate.compared < 0) {
      gate.compared = static_cast<int64_t>(roots.size());
      gate.mismatched = 1;
    }
    ctx.ledger.gates.push_back(gate);
  }

  if (ctx.tracer != nullptr) {
    core::CensusConfig census = config.census;
    census.max_degree = extractor->effective_dmax();
    const gstore::GraphView view = store->MakeView();
    const CensusPass pass = TimeCensusPerRoot(ctx.tracer, view, census, roots);
    ReportExtractionLayers(ctx, series, pass, config.num_threads);

    // The same cheap roots through the container and through the CSR.
    const std::vector<graph::NodeId> sample(
        roots.begin(), roots.begin() + static_cast<long>(std::min(roots.size(), kPenaltyRoots)));
    const CensusPass via_store = TimeCensusPerRoot(nullptr, view, census, sample);
    const CensusPass via_csr = TimeCensusPerRoot(nullptr, csr, census, sample);
    // `before` precedes each lane's untimed warm-up run, which is counted.
    const double runs =
        static_cast<double>(series.wall_s.size() + ctx.options.threads);
    auto delta = [&](const char* name) {
      return static_cast<double>(after.Counter(name) - before.Counter(name)) / runs;
    };
    const double hits = delta("gstore.cache_hits");
    const double misses = delta("gstore.cache_misses");
    RunLedger& ledger = ctx.ledger;
    ledger.Layer("gstore.write_s", write_s);
    ledger.Layer("gstore.open_s", Median(open_times));
    ledger.Layer("gstore.cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0);
    ledger.Layer("gstore.blocks_decoded", delta("gstore.blocks_decoded"));
    ledger.Layer("gstore.cache_evictions", delta("gstore.cache_evictions"));
    ledger.Layer("gstore.prefetch_issued", delta("gstore.prefetch_issued"));
    ledger.Layer("gstore.view_penalty", via_store.busy_s / via_csr.busy_s);
    ledger.Layer("gstore.container_mb",
                 static_cast<double>(store->file_size()) / (1 << 20));
    ledger.Layer("gstore.cache_budget_mb",
                 static_cast<double>(kOocCacheBytes) / (1 << 20));
  }
  extractor.reset();
  store.reset();
  remove_containers();
  return report;
}

}  // namespace perfbench
