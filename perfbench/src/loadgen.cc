#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>

#include "graph/builder.h"
#include "trace.h"

namespace perfbench {

namespace graph = hsgf::graph;
namespace serve = hsgf::serve;
namespace stream = hsgf::stream;

graph::HetGraph MakeLoadLikeGraph(double scale, int components, uint64_t seed) {
  struct Relation {
    graph::Label a, b;
    int64_t edges;
  };
  const std::vector<int> base_nodes = {1200, 1000, 1500, 800};
  const std::vector<Relation> relations = {
      {0, 0, 3000}, {1, 1, 2200}, {2, 2, 4200}, {3, 3, 1400}, {0, 1, 3400},
      {0, 2, 4400}, {0, 3, 2800}, {1, 2, 3800}, {1, 3, 2200}, {2, 3, 3200},
  };
  constexpr double kPreferential = 0.7;

  // Component c's i-th node of a label is node first[label] + i * components
  // + c: the components interleave, so no component owns a contiguous id
  // range (or, in a container, a contiguous run of blocks).
  graph::GraphBuilder builder({"L", "O", "A", "D"});
  const graph::NodeId stride = static_cast<graph::NodeId>(components);
  std::vector<graph::NodeId> first(base_nodes.size());
  std::vector<int> count(base_nodes.size());
  for (size_t l = 0; l < base_nodes.size(); ++l) {
    count[l] = std::max(4, static_cast<int>(std::lround(base_nodes[l] * scale)));
    first[l] = builder.AddNodes(static_cast<graph::Label>(l), count[l] * components);
  }
  for (int c = 0; c < components; ++c) {
    std::mt19937_64 rng(seed + static_cast<uint64_t>(c) * 0x9e3779b97f4a7c15ULL);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (const Relation& relation : relations) {
      const int64_t edges = std::max<int64_t>(
          8, static_cast<int64_t>(std::llround(relation.edges * scale)));
      // Urns of endpoints already used by this relation: drawing from one
      // is degree-proportional sampling.
      std::vector<graph::NodeId> urn_a, urn_b;
      auto draw = [&](std::vector<graph::NodeId>& urn, graph::Label label) {
        if (!urn.empty() && coin(rng) < kPreferential) {
          return urn[std::uniform_int_distribution<size_t>(0, urn.size() - 1)(rng)];
        }
        const auto i = static_cast<graph::NodeId>(
            std::uniform_int_distribution<int>(0, count[label] - 1)(rng));
        return first[label] + i * stride + static_cast<graph::NodeId>(c);
      };
      for (int64_t e = 0; e < edges; ++e) {
        const graph::NodeId a = draw(urn_a, relation.a);
        const graph::NodeId b = draw(urn_b, relation.b);
        if (a == b) continue;
        builder.AddEdge(a, b);
        urn_a.push_back(a);
        urn_b.push_back(b);
      }
    }
  }
  return std::move(builder).Build();
}

std::vector<graph::NodeId> SampleRoots(const graph::HetGraph& graph,
                                       const RootSpec& spec, uint64_t seed) {
  std::vector<graph::NodeId> hubs, rest;
  for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
    const int degree = graph.degree(v);
    if (degree == 0) continue;
    if (spec.max_degree <= 0 || degree <= spec.max_degree) {
      rest.push_back(v);
    } else if (degree <= spec.hub_max_degree) {
      hubs.push_back(v);
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(hubs.begin(), hubs.end(), rng);
  std::shuffle(rest.begin(), rest.end(), rng);
  std::vector<graph::NodeId> roots(
      hubs.begin(), hubs.begin() + static_cast<long>(std::min(spec.hubs, hubs.size())));
  for (size_t i = 0; i < rest.size() && roots.size() < spec.count; ++i) {
    roots.push_back(rest[i]);
  }
  std::shuffle(roots.begin(), roots.end(), rng);
  return roots;
}

namespace {

std::discrete_distribution<size_t> ZipfOver(size_t n, double s) {
  std::vector<double> weights(std::max<size_t>(n, 1));
  for (size_t r = 0; r < weights.size(); ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
  }
  return std::discrete_distribution<size_t>(weights.begin(), weights.end());
}

}  // namespace

TrafficModel::TrafficModel(const graph::HetGraph& graph,
                           std::vector<graph::NodeId> snapshot_rows,
                           int max_degree, uint64_t seed)
    : graph_(graph), snapshot_rows_(std::move(snapshot_rows)), rng_(seed) {
  std::vector<char> in_snapshot(static_cast<size_t>(graph.num_nodes()), 0);
  for (graph::NodeId v : snapshot_rows_) in_snapshot[static_cast<size_t>(v)] = 1;
  for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (!in_snapshot[static_cast<size_t>(v)]) cold_rows_.push_back(v);
    if (graph.degree(v) > 0 && graph.degree(v) <= max_degree) {
      update_endpoints_.push_back(v);
    }
  }
  // Popularity rank is a seeded permutation of the rows, not degree order.
  std::shuffle(snapshot_rows_.begin(), snapshot_rows_.end(), rng_);
  std::shuffle(cold_rows_.begin(), cold_rows_.end(), rng_);
  snapshot_zipf_ = ZipfOver(snapshot_rows_.size(), kZipfExponent);
  cold_zipf_ = ZipfOver(cold_rows_.size(), kZipfExponent);
}

int32_t TrafficModel::DrawRoot() {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (!cold_rows_.empty() && coin(rng_) < kColdReadFrac) {
    return cold_rows_[cold_zipf_(rng_)];
  }
  return snapshot_rows_[snapshot_zipf_(rng_)];
}

std::vector<stream::DeltaOp> TrafficModel::DrawUpdate() {
  std::vector<stream::DeltaOp> ops;
  std::uniform_int_distribution<size_t> pick(0, update_endpoints_.size() - 1);
  while (static_cast<int>(ops.size()) < kUpdateOps) {
    const graph::NodeId u = update_endpoints_[pick(rng_)];
    graph::NodeId v = -1;
    const bool remove = (rng_() & 1) != 0;
    if (remove) {
      const auto neighbors = graph_.neighbors(u);
      v = neighbors[std::uniform_int_distribution<size_t>(
          0, neighbors.size() - 1)(rng_)];
    } else {
      v = update_endpoints_[pick(rng_)];
      if (v == u || graph_.HasEdge(u, v)) continue;
    }
    const uint64_t key =
        (static_cast<uint64_t>(std::min(u, v)) << 32) | static_cast<uint32_t>(std::max(u, v));
    if (!used_pairs_.insert(key).second) continue;
    ops.push_back(remove ? stream::DeltaOp::RemoveEdge(u, v)
                         : stream::DeltaOp::AddEdge(u, v));
  }
  return ops;
}

std::vector<ScheduledOp> TrafficModel::Schedule(double rate, double seconds,
                                                uint32_t connections,
                                                bool reads_only, uint64_t seed) {
  rng_.seed(seed);
  std::vector<ScheduledOp> schedule;
  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<uint32_t> conn(0, connections - 1);
  for (double t = gap(rng_); t < seconds; t += gap(rng_)) {
    ScheduledOp op;
    op.due_s = t;
    op.connection = conn(rng_);
    const double u = reads_only ? 1.0 : coin(rng_);
    if (u < kUpdateFrac) {
      op.kind = OpKind::kUpdate;
      op.ops = DrawUpdate();
    } else if (u < kUpdateFrac + kBatchFrac) {
      op.kind = OpKind::kBatch;
      for (int i = 0; i < kBatchRoots; ++i) op.nodes.push_back(DrawRoot());
    } else {
      op.kind = OpKind::kRead;
      op.nodes.push_back(DrawRoot());
    }
    schedule.push_back(std::move(op));
  }
  return schedule;
}

// --- open-loop generator ---------------------------------------------------

namespace {

constexpr double kFailedLatencyMs = std::numeric_limits<double>::infinity();

struct Pending {
  size_t op = 0;
  serve::MessageType type = serve::MessageType::kGetFeatures;
};

struct Connection {
  int fd = -1;
  uint32_t version = serve::kProtocolV1;
  bool dead = false;
  std::string out;
  size_t out_offset = 0;
  std::string in;
  uint32_t next_id = 1;
  std::unordered_map<uint32_t, Pending> pending;
};

int DialLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  // Like serve::Client: the generator itself must not add Nagle delay.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Blocking kHello in v1 framing, then the socket goes non-blocking.
bool Handshake(Connection& conn) {
  serve::Request hello;
  hello.type = serve::MessageType::kHello;
  hello.max_version = serve::kMaxSupportedProtocol;
  std::string payload;
  serve::Response response;
  if (!serve::WriteFrame(conn.fd, serve::EncodeRequest(hello)) ||
      !serve::ReadFrame(conn.fd, &payload) ||
      !serve::DecodeResponse(
          serve::MessageType::kHello,
          std::span<const uint8_t>(
              reinterpret_cast<const uint8_t*>(payload.data()), payload.size()),
          &response) ||
      response.agreed_version < serve::kProtocolV2) {
    return false;
  }
  conn.version = response.agreed_version;
  return fcntl(conn.fd, F_SETFL, fcntl(conn.fd, F_GETFL) | O_NONBLOCK) == 0;
}

void AppendU32(std::string& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(value >> (8 * i)));
}

uint32_t ReadU32(const char* p) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return value;
}

serve::Request ToRequest(const ScheduledOp& op) {
  serve::Request request;
  switch (op.kind) {
    case OpKind::kRead:
      request.type = serve::MessageType::kGetFeatures;
      request.node = op.nodes[0];
      break;
    case OpKind::kBatch:
      request.type = serve::MessageType::kGetFeaturesBatch;
      request.batch_nodes = op.nodes;
      break;
    case OpKind::kUpdate:
      request.type = serve::MessageType::kApplyUpdate;
      request.ops = op.ops;
      break;
  }
  return request;
}

const char* OperationName(OpKind kind) {
  switch (kind) {
    case OpKind::kRead: return "GetFeatures";
    case OpKind::kBatch: return "GetFeaturesBatch";
    case OpKind::kUpdate: return "ApplyUpdate";
  }
  return "?";
}

// A response is ok only if nothing in it failed: the request status, every
// root of a batch, and every op of an update.
bool ResponseOk(serve::MessageType type, const serve::Response& response) {
  if (response.status != serve::StatusCode::kOk) return false;
  if (type == serve::MessageType::kGetFeaturesBatch) {
    for (const serve::BatchEntry& entry : response.batch) {
      if (entry.status != serve::StatusCode::kOk) return false;
    }
  }
  if (type == serve::MessageType::kApplyUpdate && response.rejected != 0) {
    return false;
  }
  return true;
}

class GeneratorThread {
 public:
  GeneratorThread(const std::vector<ScheduledOp>& schedule,
                  const LoadOptions& options, std::vector<uint32_t> owned,
                  std::vector<RequestOutcome>& outcomes)
      : schedule_(schedule), options_(options), owned_(std::move(owned)),
        outcomes_(outcomes) {
    for (uint32_t c : owned_) conns_[c];
  }

  // Dials and handshakes every owned connection; false if any fails.
  bool Connect() {
    for (uint32_t c : owned_) {
      Connection& conn = conns_[c];
      conn.fd = DialLoopback(options_.ports[c]);
      if (conn.fd < 0 || !Handshake(conn)) return false;
    }
    return true;
  }

  void Run(Clock::time_point origin) {
    // ppoll may wake up to the timer slack (50 us by default) after a due
    // time, and every request is timed from its due time.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<size_t> ops;
    for (size_t i = 0; i < schedule_.size(); ++i) {
      if (conns_.count(schedule_[i].connection) != 0) ops.push_back(i);
    }
    const double last_due = schedule_.empty() ? 0.0 : schedule_.back().due_s;
    const Clock::time_point give_up =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(last_due +
                                                   kDrainTimeoutS));
    size_t next = 0;
    std::vector<pollfd> fds;
    std::vector<uint32_t> fd_conn;
    for (;;) {
      Clock::time_point now = Clock::now();
      while (next < ops.size() && Due(origin, ops[next]) <= now) {
        SendOp(ops[next], origin, now);
        ++next;
        now = Clock::now();
      }
      size_t outstanding = 0;
      for (auto& [c, conn] : conns_) outstanding += conn.pending.size();
      if (next == ops.size() && outstanding == 0) break;
      if (next == ops.size() && now >= give_up) break;

      const Clock::time_point wake =
          next < ops.size() ? Due(origin, ops[next]) : give_up;
      fds.clear();
      fd_conn.clear();
      for (auto& [c, conn] : conns_) {
        if (conn.dead) continue;
        short events = POLLIN;
        if (conn.out_offset < conn.out.size()) events |= POLLOUT;
        fds.push_back({conn.fd, events, 0});
        fd_conn.push_back(c);
      }
      const auto wait = std::max<Clock::duration>(wake - now, Clock::duration::zero());
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      timespec timeout{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
      const int ready = ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready <= 0) continue;
      for (size_t i = 0; i < fds.size(); ++i) {
        Connection& conn = conns_[fd_conn[i]];
        if ((fds[i].revents & POLLOUT) != 0) Flush(conn);
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          ReadResponses(conn, origin);
        }
      }
    }
    for (auto& [c, conn] : conns_) Fail(conn);
  }

  ~GeneratorThread() {
    for (auto& [c, conn] : conns_) {
      if (conn.fd >= 0) close(conn.fd);
    }
  }

  GeneratorThread(const GeneratorThread&) = delete;
  GeneratorThread& operator=(const GeneratorThread&) = delete;

  int64_t sent() const { return sent_; }

 private:
  Clock::time_point Due(Clock::time_point origin, size_t op) const {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule_[op].due_s));
  }

  void SendOp(size_t index, Clock::time_point origin, Clock::time_point now) {
    const ScheduledOp& op = schedule_[index];
    RequestOutcome& outcome = outcomes_[index];
    outcome.kind = op.kind;
    outcome.index = index;
    outcome.sent = now;
    outcome.late_ms =
        std::chrono::duration<double, std::milli>(now - Due(origin, index)).count();
    Connection& conn = conns_[op.connection];
    if (conn.dead) {
      outcome.latency_ms = kFailedLatencyMs;
      return;
    }
    serve::Request request = ToRequest(op);
    request.request_id = conn.next_id++;
    const std::string payload = serve::EncodeRequest(request, conn.version);
    AppendU32(conn.out, static_cast<uint32_t>(payload.size()));
    conn.out += payload;
    conn.pending[request.request_id] = {index, request.type};
    ++sent_;
    Flush(conn);
  }

  void Flush(Connection& conn) {
    while (!conn.dead && conn.out_offset < conn.out.size()) {
      const ssize_t n = send(conn.fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_offset += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        Fail(conn);
        return;
      }
    }
    conn.out.clear();
    conn.out_offset = 0;
  }

  void ReadResponses(Connection& conn, Clock::time_point origin) {
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        conn.in.append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      Fail(conn);  // peer closed or errored
      break;
    }
    const Clock::time_point now = Clock::now();
    size_t pos = 0;
    while (conn.in.size() - pos >= 4) {
      const uint32_t length = ReadU32(conn.in.data() + pos);
      if (length > serve::kMaxFrameBytes || length < 4) {
        Fail(conn);
        return;
      }
      if (conn.in.size() - pos - 4 < length) break;
      const char* frame = conn.in.data() + pos + 4;
      const uint32_t id = ReadU32(frame);
      const auto it = conn.pending.find(id);
      if (it != conn.pending.end()) {
        serve::Response response;
        const bool decoded = serve::DecodeResponse(
            it->second.type,
            std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(frame),
                                     length),
            &response, conn.version);
        RequestOutcome& outcome = outcomes_[it->second.op];
        outcome.ok = decoded && ResponseOk(it->second.type, response);
        outcome.source = response.source;
        outcome.answered = now;
        outcome.latency_ms =
            outcome.ok ? std::chrono::duration<double, std::milli>(
                             now - Due(origin, it->second.op))
                             .count()
                       : kFailedLatencyMs;
        if (options_.tracer != nullptr && it->second.op % 2 == 0) {
          const ScheduledOp& op = schedule_[it->second.op];
          outcome.trace_id = options_.tracer->NewTraceId();
          outcome.span = options_.tracer->Record(
              options_.layer, OperationName(op.kind), outcome.trace_id, -1,
              outcome.sent, now);
        }
        conn.pending.erase(it);
      }
      pos += 4 + length;
    }
    conn.in.erase(0, pos);
  }

  // Marks the connection unusable; everything still pending on it failed.
  void Fail(Connection& conn) {
    for (auto& [id, pending] : conn.pending) {
      outcomes_[pending.op].ok = false;
      outcomes_[pending.op].latency_ms = kFailedLatencyMs;
    }
    conn.pending.clear();
    conn.dead = true;
  }

  const std::vector<ScheduledOp>& schedule_;
  const LoadOptions& options_;
  std::vector<uint32_t> owned_;
  std::vector<RequestOutcome>& outcomes_;
  std::unordered_map<uint32_t, Connection> conns_;
  int64_t sent_ = 0;
};

// One spinning thread per vCPU in the SCHED_IDLE class for its lifetime,
// so no vCPU halts while requests are timed. Any other thread that wakes
// preempts a SCHED_IDLE thread at once, so the spinners take no time from
// the server or the generator; what they remove is the hypervisor's halt
// and wake-up of an idle vCPU, a cost that follows the host's load. With
// it, direct read_p50_ms read 0.21-0.25 ms over five seeds; without it
// 0.36-0.46 ms, and 0.30-0.48 ms over a 10-seed set (quartile spread 0.25).
// Every vCPU needs one: with spinners only on the vCPUs the generator
// threads leave free, reads took 0.25-0.34 ms against 0.18-0.21 ms. A
// thread that cannot enter SCHED_IDLE does not spin.
class KeepVcpusAwake {
 public:
  explicit KeepVcpusAwake(unsigned count) {
    for (unsigned i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~KeepVcpusAwake() {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
  }
  KeepVcpusAwake(const KeepVcpusAwake&) = delete;
  KeepVcpusAwake& operator=(const KeepVcpusAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace

LoadResult RunOpenLoop(const std::vector<ScheduledOp>& schedule,
                       const LoadOptions& options) {
  LoadResult result;
  result.outcomes.resize(schedule.size());
  for (RequestOutcome& outcome : result.outcomes) {
    outcome.latency_ms = kFailedLatencyMs;
  }
  const uint32_t connections = static_cast<uint32_t>(options.ports.size());
  const uint32_t cpus = std::max(1u, std::thread::hardware_concurrency());
  const uint32_t threads =
      std::clamp<uint32_t>(cpus / 2, 1, std::max<uint32_t>(1, connections));
  const KeepVcpusAwake awake(cpus);
  std::vector<std::unique_ptr<GeneratorThread>> generators;
  for (uint32_t t = 0; t < threads; ++t) {
    std::vector<uint32_t> owned;
    for (uint32_t c = t; c < connections; c += threads) owned.push_back(c);
    generators.push_back(std::make_unique<GeneratorThread>(
        schedule, options, std::move(owned), result.outcomes));
    if (!generators.back()->Connect()) {
      Log("error: load generator cannot connect");
      result.failed = static_cast<int64_t>(schedule.size());
      return result;
    }
  }
  // Common origin a little ahead, so every thread starts on time.
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> workers;
  for (auto& generator : generators) {
    workers.emplace_back([&generator, origin] { generator->Run(origin); });
  }
  for (std::thread& worker : workers) worker.join();
  for (const auto& generator : generators) result.sent += generator->sent();
  for (RequestOutcome& outcome : result.outcomes) {
    if (outcome.ok) {
      ++result.ok;
    } else {
      ++result.failed;
    }
  }
  return result;
}

}  // namespace perfbench
