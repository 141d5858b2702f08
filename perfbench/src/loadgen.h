// The benchmark's own input generator and open-loop load generator.
//
// Inputs are made here from the seed alone — the program sees only the
// finished graph, roots, and request schedule — so a change to the
// program's own synthetic-data code cannot change what the benchmark
// measures.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "graph/het_graph.h"
#include "serve/protocol.h"
#include "stream/delta_log.h"

namespace perfbench {

class Tracer;

// LOAD-shaped heterogeneous graph (four labels, every label pair related,
// strong preferential attachment, so a few hubs carry most edges — the
// degree skew behind the paper's Table 3 runtimes). `scale` 1.0 is 4,500
// nodes and ~31k edge draws per component. The graph is the disjoint union
// of `components` such graphs, each drawn from its own stream of `seed`.
// Preferential attachment is a Pólya urn: how much of a graph the hubs hold
// does not settle as the graph grows but differs from seed to seed, and so
// does extraction throughput. A union of independent components averages
// that over the components.
hsgf::graph::HetGraph MakeLoadLikeGraph(double scale, int components,
                                        uint64_t seed);

// `count` distinct roots in a seeded order: `hubs` of them drawn uniformly
// from the nodes of degree in (max_degree, hub_max_degree], the rest from
// the non-isolated nodes of degree at most `max_degree` (0: any degree, and
// no hubs).
struct RootSpec {
  size_t count = 0;
  size_t hubs = 0;
  int max_degree = 0;
  int hub_max_degree = 0;
};
std::vector<hsgf::graph::NodeId> SampleRoots(const hsgf::graph::HetGraph& graph,
                                             const RootSpec& spec,
                                             uint64_t seed);

enum class OpKind : uint8_t { kRead = 0, kBatch = 1, kUpdate = 2 };

struct ScheduledOp {
  double due_s = 0.0;  // offset from the phase start
  uint32_t connection = 0;
  OpKind kind = OpKind::kRead;
  std::vector<int32_t> nodes;               // kRead: one root; kBatch: many
  std::vector<hsgf::stream::DeltaOp> ops;   // kUpdate
};

// Request mix of the serving workloads. The 90/8/2 read/batch/update shares
// come from the benchmark's specification and the 16-root batch from the
// repository's serve load bench. The Zipf exponent and the cold-read share
// have no source in the repository: they are assumptions, and the shares of
// reads answered from the snapshot, the LRU cache, the stream tier and a
// cold census that they produce are reported per layer (serve.*_frac).
constexpr double kBatchFrac = 0.08;
constexpr double kUpdateFrac = 0.02;
constexpr double kColdReadFrac = 0.15;  // of reads: rows outside the snapshot
constexpr int kBatchRoots = 16;
constexpr int kUpdateOps = 2;
constexpr double kZipfExponent = 1.0;

// Draws requests of that mix: Zipf-popular snapshot rows, a Zipf-popular
// set of rows outside the snapshot (first touch is a cold census, repeats
// hit the LRU), batches of such roots, and small edge update batches whose
// pairs are never reused, so every update commutes with every other and the
// final graph is independent of arrival order.
class TrafficModel {
 public:
  TrafficModel(const hsgf::graph::HetGraph& graph,
               std::vector<hsgf::graph::NodeId> snapshot_rows, int max_degree,
               uint64_t seed);

  // Poisson arrivals at `rate` per second for `seconds`, spread uniformly
  // over `connections`, drawn from the stream seeded by `seed`. With
  // `reads_only` every request is a single-root read (the rate ladder).
  std::vector<ScheduledOp> Schedule(double rate, double seconds,
                                    uint32_t connections, bool reads_only,
                                    uint64_t seed);

 private:
  int32_t DrawRoot();
  std::vector<hsgf::stream::DeltaOp> DrawUpdate();

  const hsgf::graph::HetGraph& graph_;
  std::vector<hsgf::graph::NodeId> snapshot_rows_;
  std::vector<hsgf::graph::NodeId> cold_rows_;
  std::vector<hsgf::graph::NodeId> update_endpoints_;  // degree <= dmax
  std::mt19937_64 rng_;
  std::discrete_distribution<size_t> snapshot_zipf_;
  std::discrete_distribution<size_t> cold_zipf_;
  std::unordered_set<uint64_t> used_pairs_;
};

struct RequestOutcome {
  OpKind kind = OpKind::kRead;
  bool ok = false;
  uint8_t source = 0;        // serve::FeatureSource of a read
  double latency_ms = 0.0;   // due time -> response parsed
  double late_ms = 0.0;      // due time -> frame written
  uint64_t index = 0;        // position in the schedule
  Clock::time_point sent;      // frame written
  Clock::time_point answered;  // response parsed
  int64_t span = -1;           // the request's span in the traced run
  uint64_t trace_id = 0;       // shared by every span of the request
};

struct LoadResult {
  std::vector<RequestOutcome> outcomes;  // one per scheduled op
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;  // refused, errored, timed out, or never answered
};

// Requests still unanswered this long after the last due time have failed.
constexpr double kDrainTimeoutS = 2.0;

struct LoadOptions {
  std::vector<int> ports;  // loopback TCP port of each connection
  Tracer* tracer = nullptr;  // spans for every request with index % 2 == 0
  std::string layer;         // span layer name ("serve" or "router")
};

// Sends `schedule` open-loop from nproc / 2 threads, the connections split
// evenly among them, leaving the rest of the machine to the server. Every
// request goes out at its due time on its connection whatever the state of
// earlier ones, and is timed from its due time, so a stall also charges the
// requests queued behind it. Responses
// are matched by protocol-v2 request id. Requests unanswered
// kDrainTimeoutS after the last due time count as failed. While it runs,
// lowest-priority spinners keep every vCPU from halting (see
// KeepVcpusAwake in loadgen.cc), so latency excludes the hypervisor's
// wake-up of an idle vCPU.
LoadResult RunOpenLoop(const std::vector<ScheduledOp>& schedule,
                       const LoadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
