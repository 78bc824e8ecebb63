// Edge-to-answer benchmark: one process runs the whole path an edge
// takes before a client can see it, and times it from both ends.
//
//   edge stream ─▶ StreamTrainer.insert      walk + train_batch
//               ─▶ remove / advance          unlearn (downdate or re-train)
//               ─▶ publish_every auto-flush  delta + tombstones into the
//                                            sharded store
//               ─▶ EmbeddingServer           engine rebuild, queue, scan
//               ─▶ net::Server               seqge-wire-v1 encode + write
//               ─▶ net::Client               wire answer
//
// The traffic is the repository's own:
//  * the edge stream, window, explicit teardowns, model shape and
//    publish cadence are examples/sliding_window_stream.cpp's (2000
//    devices wired to a drifting hot set of 32 gateways, max age 800
//    ticks, a 1-in-16 teardown of a random live link per tick,
//    publish_every 64). One change: the stream clock advances every
//    tick, not every 64. A 64-tick expiry burst phase-locks the
//    64-mutation publish cadence, so freshness would depend on where the
//    seed puts the publish in that cycle (25.7 or 31.9 ms at 640
//    edges/s, by seed);
//  * edges arrive at 640/s, the rate at which publish_every 64 publishes
//    every 50 ms (about two mutations per edge: its insert and, in
//    steady state, one expiry or teardown), the cadence of bench_net's
//    stand-in trainer. `oselm` feeds them 10x faster, a rate with no
//    source in the repository, so that training, publish and answer time
//    are a visible share of freshness. (Run flat out, as the example
//    replays it, the trainer saturates the host and read latency swung
//    10x from run to run.);
//  * the reads are bench/bench_net.cpp's mixed phase: 4 connections,
//    Zipf(1.1) hot keys, 70% top-10 / 15% edge score / 10% 8-node top-k
//    batch / 5% 8-pair score batch, alternating calm and burst phases
//    every 500 ms with 8x the load in a burst (bench_net's pipeline
//    window 4 -> 32).
// The calm read rate has no source in the repository (bench_net's
// clients run closed loop); it is set so one connection with one
// request in flight absorbs a burst without a backlog.
//
// Workloads pick the training backend and the serving index, so every
// unlearning path and both scan paths are measured. In this stream most
// deletions are older than StreamConfig::unlearn_staleness_limit and
// take the re-train path; recent teardowns take the downdate.
//
//   oselm         OselmSkipGram, random alpha (the example's model):
//                 covariance downdate for recent deletions; brute-force
//                 scan
//   dataflow_ivf  OselmSkipGramDataflow (tied weights: the guard sends
//                 self-revisiting walks to re-train); per-shard IVF scan
//   sgd           SkipGramSGD: every deletion takes the approximate
//                 re-train path; brute-force scan
//
// Edges and reads arrive open loop (reads Poisson within each phase)
// and are timed from when they were due. A probe connection follows
// every publish: it asks for the last inserted edge's endpoint until the
// wire answer's snapshot version covers the publish. edge_to_answer is
// that answer's arrival minus the edge's arrival, for every edge the
// publish carried.
//
//   edge_to_answer --workload oselm|dataflow_ivf|sgd --seed N
//                  --seconds S --trace 0|1
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics with the obs registry
// switched off; --trace 1 reports per-layer metrics from the registry's
// span/serve/net histograms plus this file's own timings.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "embedding/model.hpp"
#include "embedding/trainer.hpp"
#include "graph/sliding_window.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "serve/embedding_server.hpp"
#include "serve/sharded_query.hpp"
#include "serve/sharded_store.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace seqge {
namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---- stream shape: examples/sliding_window_stream.cpp defaults ------------
constexpr std::size_t kNodes = 2000;
constexpr std::size_t kWarmEdges = 6000;  ///< the example's --events
constexpr std::uint64_t kMaxAge = 800;
constexpr std::size_t kPublishEvery = 64;
constexpr std::size_t kShards = 4;
/// Edges/s: 64 mutations per publish / 2 mutations per edge / 50 ms
/// (bench_net's publisher period).
constexpr double kIngestRate = 640.0;

// ---- read traffic: bench/bench_net.cpp mixed phase ------------------------
constexpr std::size_t kReaders = 4;
constexpr double kZipfS = 1.1;
constexpr std::uint32_t kTopK = 10;
constexpr std::size_t kBatch = 8;
constexpr auto kPhase = std::chrono::milliseconds(500);
constexpr double kBurstFactor = 8.0;  ///< pipeline window 32 / 4
/// Mean requests/s per reader in a calm phase. Not from the repository.
constexpr double kCalmRate = 50.0;

constexpr int kSetups = 9;
constexpr double kWarmupSeconds = 1.0;
/// Measured interval is cut into windows of about this length; each
/// end-to-end metric is the median of its per-window values.
constexpr double kWindowSeconds = 2.0;

struct Workload {
  const char* name;
  double ingest_rate;  ///< edges/s
  ModelKind model;
  bool random_alpha;
  serve::IndexConfig::Kind index;
  /// Verification floor for live-edge vs random-pair cosine wins; 0 =
  /// none. SkipGramSGD gets none: sequential SGD forgets (the paper's
  /// point), and on this stream it scores anywhere from chance to 0.84.
  double min_win_rate;
};

constexpr Workload kWorkloads[] = {
    {"oselm", 10 * kIngestRate, ModelKind::kOselm, true,
     serve::IndexConfig::Kind::kBruteForce, 0.75},
    {"dataflow_ivf", kIngestRate, ModelKind::kOselmDataflow, false,
     serve::IndexConfig::Kind::kIvf, 0.55},
    {"sgd", kIngestRate, ModelKind::kOriginalSGD, false,
     serve::IndexConfig::Kind::kBruteForce, 0.0},
};

TrainConfig train_config(const Workload& w, std::uint64_t seed) {
  TrainConfig cfg;
  cfg.dims = 16;
  cfg.seed = seed;
  cfg.walk.walk_length = 12;
  cfg.walk.window = 3;
  cfg.negative_samples = 3;
  cfg.random_alpha = w.random_alpha;
  return cfg;
}

/// Zipfian keys over [0, n) with bench_net's rank scatter: rank r has
/// mass 1/(r+1)^s and lands on node r * 2654435761 mod n.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  [[nodiscard]] NodeId sample(Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return static_cast<NodeId>((rank * 2654435761u) % cdf_.size());
  }

 private:
  std::vector<double> cdf_;
};

/// Per-tick time split of the trainer thread. Both parts include any
/// publish_every flush the mutation triggered.
struct TickTimes {
  double insert_us = 0.0;
  double unlearn_us = 0.0;
};

/// Everything one edge passes through. Members are declared in
/// dependency order, so destruction stops the front-end first and the
/// model last.
struct System {
  System(const Workload& w, std::uint64_t seed)
      : rng(seed),
        model(make_model(w.model, kNodes, train_config(w, seed), rng)),
        graph(kNodes, window_options()),
        store(std::make_shared<serve::ShardedEmbeddingStore>(kShards)),
        stream_rng(seed ^ 0x5EEDED6Eull) {
    StreamConfig cfg;
    cfg.train = train_config(w, seed);
    cfg.sink = store.get();
    cfg.publish_every = kPublishEvery;
    trainer = std::make_unique<StreamTrainer>(*model, graph, cfg, rng);
  }

  static SlidingWindowGraph::Options window_options() {
    SlidingWindowGraph::Options o;
    o.max_age = kMaxAge;
    return o;
  }

  /// One tick of the example's stream: wire a random device to one of
  /// the 32 gateways of the current hot set (the set drifts every 500
  /// ticks), sometimes tear down a random live link, and expire edges
  /// past the horizon. Unlike the example, a device that
  /// would repeat a live link or loop on itself is redrawn, so the graph
  /// accepts every edge it is handed.
  TickTimes tick(NodeId* endpoint) {
    TickTimes t;
    const auto a = Clock::now();
    ++clock;
    const auto gateway = static_cast<NodeId>(
        (clock / 500 * 97 + stream_rng.bounded(32)) % kNodes);
    auto device = static_cast<NodeId>(stream_rng.bounded(kNodes));
    while (device == gateway || graph.has_edge(device, gateway)) {
      device = static_cast<NodeId>(stream_rng.bounded(kNodes));
    }
    if (trainer->insert(device, gateway, 1.0f, clock) ==
        SlidingWindowGraph::kInvalidToken) {
      ++rejected;
    }
    *endpoint = device;
    const auto b = Clock::now();
    if (stream_rng.bounded(16) == 0) {
      const auto u = static_cast<NodeId>(stream_rng.bounded(kNodes));
      const auto nbrs = graph.neighbors(u);
      if (!nbrs.empty()) {
        trainer->remove(u, nbrs[stream_rng.bounded(nbrs.size())]);
      }
    }
    trainer->advance(clock);
    const auto c = Clock::now();
    t.insert_us = us_between(a, b);
    t.unlearn_us = us_between(b, c);
    return t;
  }

  Rng rng;
  std::unique_ptr<EmbeddingModel> model;
  SlidingWindowGraph graph;
  std::shared_ptr<serve::ShardedEmbeddingStore> store;
  Rng stream_rng;
  std::unique_ptr<StreamTrainer> trainer;
  std::uint64_t clock = 0;
  std::size_t rejected = 0;
  std::unique_ptr<serve::EmbeddingServer> engine;
  std::unique_ptr<net::Server> front;
};

net::Client connect(const System& sys) {
  net::ClientConfig cfg;
  cfg.recv_timeout_ms = 20000;
  return net::Client("127.0.0.1", sys.front->port(), cfg);
}

/// A well-formed top-k list for query node q: k in-range neighbours
/// other than q, finite scores, best first.
bool valid_list(const std::vector<serve::Neighbor>& list, NodeId q) {
  if (list.size() != kTopK) return false;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const serve::Neighbor& nb = list[i];
    if (nb.node >= kNodes || nb.node == q || !std::isfinite(nb.score)) {
      return false;
    }
    if (i > 0 && nb.score > list[i - 1].score) return false;
  }
  return true;
}

bool valid_topk(const net::Response& r, NodeId q) {
  return r.status == net::Status::kOk && valid_list(r.neighbors, q);
}

bool valid_cosine(double s) {
  return std::isfinite(s) && std::abs(s) <= 1.0 + 1e-6;
}

/// Set-up as a user pays it: build the model and window, run the
/// example's warm stream (publishing every 64 mutations), flush, start
/// the engine and the TCP front-end, and wait for the first wire answer
/// (which builds the first engine).
std::unique_ptr<System> set_up(const Workload& w, std::uint64_t seed) {
  auto sys = std::make_unique<System>(w, seed);
  NodeId last = 0;
  for (std::size_t i = 0; i < kWarmEdges; ++i) sys->tick(&last);
  sys->trainer->flush();
  serve::ServerConfig scfg;
  scfg.index.kind = w.index;
  sys->engine = std::make_unique<serve::EmbeddingServer>(sys->store, scfg);
  sys->front = std::make_unique<net::Server>(*sys->engine);
  sys->front->start();
  net::Client c = connect(*sys);
  if (!valid_topk(c.topk(last, kTopK), last)) {
    throw std::runtime_error("set-up: first wire answer is invalid");
  }
  return sys;
}

// ---- run-time state shared by the load threads -----------------------------

/// Samples of one quantity, bucketed by the window of the measured
/// interval they fall in.
using Windows = std::vector<std::vector<double>>;

/// One tick that published, as the probe sees it.
struct Published {
  std::uint64_t version = 0;
  NodeId node = 0;             ///< endpoint of the tick's edge
  Clock::time_point tick_end;  ///< the publish had returned by then
  std::vector<Clock::time_point> edges;  ///< arrivals of measured edges
};

struct Shared {
  std::atomic<int> phase{0};  ///< 0 warm-up, 1 measuring, 2 stopping
  /// Start of the measured interval, cut into `windows` windows of
  /// `window_s`; written before phase becomes 1.
  Clock::time_point start;
  double window_s = 1.0;
  std::size_t windows = 1;

  std::mutex mu;  ///< guards mailbox and stop
  std::condition_variable cv;
  std::vector<Published> mailbox;
  bool stop = false;

  [[nodiscard]] bool measuring() const {
    return phase.load(std::memory_order_acquire) == 1;
  }
  [[nodiscard]] bool running() const {
    return phase.load(std::memory_order_acquire) != 2;
  }
  /// Record v at time t (t inside the measured interval).
  void add(Windows& w, Clock::time_point t, double v) const {
    const double s = std::chrono::duration<double>(t - start).count();
    const auto i = static_cast<std::size_t>(std::max(0.0, s / window_s));
    w.resize(windows);
    w[std::min(i, windows - 1)].push_back(v);
  }
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
};

struct IngestTally : Tally {
  std::uint64_t edges = 0;
  Windows busy_us;  ///< per edge: the whole tick
  double insert_us = 0.0;
  double unlearn_us = 0.0;
  StreamStats first, last;  ///< trainer stats at measure start / end
};

struct ProbeTally : Tally {
  Windows fresh_us;  ///< per edge, by arrival
  std::vector<double> wait_us, answer_us, rtt_us;
  std::uint64_t stale_answers = 0;
};

struct ReaderTally : Tally {
  Windows latency_us;          ///< due time to answer
  std::vector<double> rtt_us;  ///< send to answer
};

void ingest_loop(System& sys, const Workload& w, Shared& sh,
                 IngestTally& out) {
  Published batch;
  std::uint64_t seen = sys.store->version();
  bool started = false;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; sh.running(); ++i) {
    const auto arrival =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) /
                                               w.ingest_rate));
    std::this_thread::sleep_until(arrival);
    const bool measuring = sh.measuring();
    if (measuring && !started) {
      out.first = sys.trainer->stats();
      started = true;
    }
    const TickTimes t = sys.tick(&batch.node);
    if (measuring) {
      batch.edges.push_back(arrival);
      ++out.edges;
      out.insert_us += t.insert_us;
      out.unlearn_us += t.unlearn_us;
      sh.add(out.busy_us, arrival, t.insert_us + t.unlearn_us);
    }
    // publish_every flushes inside the tick; a new store version means
    // every edge so far is in it.
    const std::uint64_t v = sys.store->version();
    if (v == seen) continue;
    seen = v;
    batch.version = v;
    batch.tick_end = Clock::now();
    {
      std::lock_guard lock(sh.mu);
      sh.mailbox.push_back(std::move(batch));
    }
    sh.cv.notify_one();
    batch = Published{};
  }
  out.last = sys.trainer->stats();
  if (!started) out.first = out.last;
  out.attempted = out.edges;
  out.failed = sys.rejected;
}

void probe_loop(const System& sys, Shared& sh, bool trace, ProbeTally& out) {
  net::Client client = connect(sys);
  std::vector<Published> got;
  for (;;) {
    got.clear();
    {
      std::unique_lock lock(sh.mu);
      sh.cv.wait(lock, [&] { return sh.stop || !sh.mailbox.empty(); });
      if (sh.mailbox.empty()) return;
      got.swap(sh.mailbox);
    }
    const std::uint64_t target = got.back().version;
    const NodeId node = got.back().node;
    // The engine answers from the newest store version unless another
    // worker is mid-rebuild; ask again until the answer covers `target`.
    bool ok = false;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const auto sent = Clock::now();
      const net::Response r = client.topk(node, kTopK);
      if (trace && sh.measuring()) {
        out.rtt_us.push_back(us_between(sent, Clock::now()));
      }
      ++out.attempted;
      if (!valid_topk(r, node)) break;
      if (r.version >= target) {
        ok = true;
        break;
      }
      ++out.stale_answers;
    }
    const auto visible = Clock::now();
    if (!ok) {
      ++out.failed;
      continue;
    }
    for (const Published& b : got) {
      for (const Clock::time_point t : b.edges) {
        sh.add(out.fresh_us, t, us_between(t, visible));
        if (trace) {
          out.wait_us.push_back(us_between(t, b.tick_end));
          out.answer_us.push_back(us_between(b.tick_end, visible));
        }
      }
    }
  }
}

/// Sends one request of bench_net's mix and checks the answer's shape.
bool mixed_request(net::Client& client, const Zipf& zipf, Rng& rng) {
  const double mix = rng.uniform();
  if (mix < 0.70) {
    const NodeId q = zipf.sample(rng);
    return valid_topk(client.topk(q, kTopK), q);
  }
  if (mix < 0.85) {
    const net::Response r =
        client.score(zipf.sample(rng), static_cast<NodeId>(rng.bounded(kNodes)),
                     EdgeScore::kCosine);
    return r.status == net::Status::kOk && valid_cosine(r.score);
  }
  if (mix < 0.95) {
    std::vector<NodeId> nodes(kBatch);
    for (NodeId& n : nodes) n = zipf.sample(rng);
    const net::Response r = client.topk_batch(nodes, kTopK);
    bool ok = r.status == net::Status::kOk && r.batch.size() == kBatch;
    for (std::size_t i = 0; ok && i < kBatch; ++i) {
      ok = valid_list(r.batch[i], nodes[i]);
    }
    return ok;
  }
  std::vector<std::pair<NodeId, NodeId>> pairs(kBatch);
  for (auto& p : pairs) {
    p = {zipf.sample(rng), static_cast<NodeId>(rng.bounded(kNodes))};
  }
  const net::Response r = client.score_batch(pairs, EdgeScore::kCosine);
  bool ok = r.status == net::Status::kOk && r.scores.size() == kBatch;
  for (std::size_t i = 0; ok && i < kBatch; ++i) ok = valid_cosine(r.scores[i]);
  return ok;
}

void reader_loop(const System& sys, const Zipf& zipf, std::uint64_t seed,
                 Clock::time_point t0, Shared& sh, ReaderTally& out) {
  net::Client client = connect(sys);
  Rng rng(seed);
  // Open loop with Poisson arrivals at the current phase's rate, one
  // request in flight: a slow answer delays the next send, and timing
  // from the due time charges that delay.
  auto due = Clock::now();
  while (sh.running()) {
    const bool burst = (due - t0) / kPhase % 2 == 1;
    const double rate = burst ? kCalmRate * kBurstFactor : kCalmRate;
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log1p(-rng.uniform()) / rate));
    std::this_thread::sleep_until(due);
    const bool measuring = sh.measuring();
    const auto sent = Clock::now();
    const bool ok = mixed_request(client, zipf, rng);
    const auto done = Clock::now();
    ++out.attempted;
    if (!ok) ++out.failed;
    if (measuring) {
      sh.add(out.latency_us, due, us_between(due, done));
      out.rtt_us.push_back(us_between(sent, done));
    }
  }
}

/// Runs `body`, turning an escaping exception into a recorded failure.
template <typename F>
void guarded(Tally& t, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    ++t.failed;
    t.error = e.what();
  }
}

// ---- registry reads for the traced run -------------------------------------

struct HistMark {
  std::uint64_t count = 0;
  double sum = 0.0;
};

HistMark mark(const std::string& name, const obs::Labels& labels = {}) {
  const obs::Histogram* h =
      obs::Registry::global().find_histogram(name, labels);
  return h == nullptr ? HistMark{} : HistMark{h->count(), h->sum()};
}

HistMark span_mark(const char* span) {
  return mark("seqge_span_wall_us", {{"span", span}});
}

double mean_between(const HistMark& a, const HistMark& b) {
  return b.count > a.count
             ? (b.sum - a.sum) / static_cast<double>(b.count - a.count)
             : 0.0;
}

struct LayerMarks {
  HistMark walk, train, untrain, publish, scan, serve, net;
  std::uint64_t rows_copied = 0, rebuilds = 0;

  static LayerMarks take(const System& sys) {
    return {span_mark("walk_gen"),
            span_mark("train_batch"),
            span_mark("untrain_batch"),
            span_mark("publish"),
            span_mark("scan_fanout"),
            mark("seqge_serve_request_us"),
            mark("seqge_net_request_us"),
            sys.store->rows_copied(),
            sys.engine->engine_rebuilds()};
  }
};

// ---- output -----------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += i == 0 ? "" : ", ";
    json += "\"" + std::string(metrics[i].name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Median over windows of f(window), skipping windows where f is
/// undefined (NaN). A slow stretch of the host that covers fewer than
/// half the windows does not move the result.
template <typename F>
double across_windows(std::size_t windows, F f) {
  std::vector<double> per_window;
  for (std::size_t i = 0; i < windows; ++i) {
    const double x = f(i);
    if (std::isfinite(x)) per_window.push_back(x);
  }
  return median(per_window);
}

bool same_list(const std::vector<serve::Neighbor>& a,
               const std::vector<serve::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Final checks on the quiesced system, over Zipf-hot and random live
/// nodes:
///  * wire answers (top-k, top-k batch, score, score batch) equal the
///    same engine's in-process answers bit for bit, at the store's
///    latest version, and never name a tombstoned node;
///  * scores equal a fresh exact engine's; top-k lists equal it too on
///    the brute-force index, and on IVF keep recall@10 >= 0.8;
///  * live edges score above random pairs often enough (the trainer
///    learned the stream, it did not just run).
bool verify(const Workload& w, System& sys, const Zipf& zipf,
            std::uint64_t seed, Tally& t) {
  sys.trainer->flush();
  const serve::ShardedQueryEngine ref(*sys.store);
  net::Client client = connect(sys);
  const auto& dead = sys.trainer->dead_nodes();
  const bool exact = w.index == serve::IndexConfig::Kind::kBruteForce;
  Rng rng(seed ^ 0xC0FFEEull);
  bool ok = true;
  std::size_t hits = 0, wanted = 0;
  auto check = [&](bool pass) {
    ++t.attempted;
    if (!pass) {
      ++t.failed;
      ok = false;
    }
  };
  std::vector<NodeId> nodes;
  while (nodes.size() < 64) {
    const auto u = nodes.size() % 2 == 0
                       ? zipf.sample(rng)
                       : static_cast<NodeId>(rng.bounded(kNodes));
    if (sys.graph.degree(u) > 0) nodes.push_back(u);
  }
  for (const NodeId u : nodes) {
    const net::Response wire = client.topk(u, kTopK);
    const serve::TopKResult local = sys.engine->topk(u, kTopK).get();
    const std::vector<serve::Neighbor> truth = ref.topk(u, kTopK);
    bool pass = valid_topk(wire, u) && wire.version == ref.version() &&
                local.version == ref.version() &&
                same_list(wire.neighbors, local.neighbors);
    for (const serve::Neighbor& nb : wire.neighbors) {
      pass = pass && dead.count(nb.node) == 0;
      for (const serve::Neighbor& tr : truth) hits += tr.node == nb.node;
    }
    wanted += truth.size();
    if (exact) pass = pass && same_list(wire.neighbors, truth);
    const auto v = static_cast<NodeId>(rng.bounded(kNodes));
    const net::Response s = client.score(u, v, EdgeScore::kCosine);
    pass = pass && s.status == net::Status::kOk &&
           s.score == ref.score(u, v, EdgeScore::kCosine);
    check(pass);
  }
  {
    const std::vector<NodeId> batch(nodes.begin(), nodes.begin() + kBatch);
    const net::Response wire = client.topk_batch(batch, kTopK);
    const serve::TopKBatchResult local =
        sys.engine->topk_batch(batch, kTopK).get();
    bool pass = wire.status == net::Status::kOk &&
                wire.version == local.version &&
                wire.batch.size() == kBatch && local.results.size() == kBatch;
    for (std::size_t i = 0; pass && i < kBatch; ++i) {
      pass = same_list(wire.batch[i], local.results[i]);
    }
    check(pass);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (std::size_t i = 0; i < kBatch; ++i) {
      pairs.emplace_back(nodes[i], nodes[nodes.size() - 1 - i]);
    }
    const net::Response sb = client.score_batch(pairs, EdgeScore::kCosine);
    pass = sb.status == net::Status::kOk && sb.scores.size() == kBatch;
    for (std::size_t i = 0; pass && i < kBatch; ++i) {
      pass = sb.scores[i] ==
             ref.score(pairs[i].first, pairs[i].second, EdgeScore::kCosine);
    }
    check(pass);
  }
  const double recall =
      safe_div(static_cast<double>(hits), static_cast<double>(wanted));
  check(recall >= 0.8);

  std::size_t wins = 0, pairs = 0;
  while (pairs < 2000) {
    const auto u = static_cast<NodeId>(rng.bounded(kNodes));
    const auto nbrs = sys.graph.neighbors(u);
    if (nbrs.empty()) continue;
    const NodeId v = nbrs[rng.bounded(nbrs.size())];
    const auto a = static_cast<NodeId>(rng.bounded(kNodes));
    const auto b = static_cast<NodeId>(rng.bounded(kNodes));
    if (a == b) continue;
    ++pairs;
    wins += ref.score(u, v) > ref.score(a, b);
  }
  const double win_rate =
      static_cast<double>(wins) / static_cast<double>(pairs);
  std::fprintf(stderr,
               "verify: recall@10 vs exact %.3f, live-edge vs random-pair "
               "win rate %.3f\n",
               recall, win_rate);
  if (w.min_win_rate > 0.0) check(win_rate > w.min_win_rate);
  return ok;
}

int run(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  obs::set_enabled(trace);

  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    const auto t0 = Clock::now();
    sys = set_up(w, seed);
    setup_s.push_back(us_between(t0, Clock::now()) * 1e-6);
  }

  const Zipf zipf(kNodes, kZipfS);
  Shared sh;
  sh.windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / kWindowSeconds)));
  sh.window_s = seconds / static_cast<double>(sh.windows);
  IngestTally ingest;
  ProbeTally probe;
  std::vector<ReaderTally> readers(kReaders);
  std::thread ingest_thread(
      [&] { guarded(ingest, [&] { ingest_loop(*sys, w, sh, ingest); }); });
  std::thread probe_thread(
      [&] { guarded(probe, [&] { probe_loop(*sys, sh, trace, probe); }); });
  std::vector<std::thread> reader_threads;
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < kReaders; ++r) {
    reader_threads.emplace_back([&, r] {
      guarded(readers[r], [&] {
        reader_loop(*sys, zipf, seed * 131 + r, t0, sh, readers[r]);
      });
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  const LayerMarks before = LayerMarks::take(*sys);
  sh.start = Clock::now();
  sh.phase.store(1, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  sh.phase.store(2, std::memory_order_release);
  ingest_thread.join();
  {
    std::lock_guard lock(sh.mu);
    sh.stop = true;
  }
  sh.cv.notify_all();
  probe_thread.join();
  for (auto& th : reader_threads) th.join();
  const LayerMarks after = LayerMarks::take(*sys);

  Tally checks;
  bool correct = false;
  guarded(checks, [&] { correct = verify(w, *sys, zipf, seed, checks); });

  std::vector<const Tally*> tallies{&ingest, &probe, &checks};
  Windows read_us(sh.windows);
  std::vector<double> rtt_us = probe.rtt_us;  // every wire request
  for (const ReaderTally& r : readers) {
    tallies.push_back(&r);
    for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
      read_us[i].insert(read_us[i].end(), r.latency_us[i].begin(),
                        r.latency_us[i].end());
    }
    rtt_us.insert(rtt_us.end(), r.rtt_us.begin(), r.rtt_us.end());
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const Tally* t : tallies) {
    attempted += t->attempted;
    failed += t->failed;
    if (!t->error.empty()) std::fprintf(stderr, "error: %s\n", t->error.c_str());
  }
  ingest.busy_us.resize(sh.windows);
  probe.fresh_us.resize(sh.windows);
  const StreamStats& s0 = ingest.first;
  const StreamStats& s1 = ingest.last;
  const auto publishes = static_cast<double>(s1.publishes - s0.publishes);
  const auto deletions =
      static_cast<double>(s1.edges_deleted - s0.edges_deleted);
  const auto edges = static_cast<double>(ingest.edges);
  bool fresh_seen = false;
  for (const auto& xs : probe.fresh_us) fresh_seen = fresh_seen || !xs.empty();
  correct = correct && failed == 0 && ingest.edges > 0 && fresh_seen &&
            !rtt_us.empty();

  std::fprintf(stderr,
               "%s: %llu edges (%.0f deletions, %.0f fallback re-trains, "
               "%.0f publishes), %zu timed requests, %llu stale probe "
               "answers; set-ups",
               w.name, static_cast<unsigned long long>(ingest.edges),
               deletions,
               static_cast<double>(s1.fallback_retrains -
                                   s0.fallback_retrains),
               publishes, rtt_us.size(),
               static_cast<unsigned long long>(probe.stale_answers));
  for (double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, " s\n");

  std::vector<Metric> metrics;
  if (!trace) {
    const auto nan = std::numeric_limits<double>::quiet_NaN();
    auto med = [&](const Windows& w) {
      return across_windows(sh.windows, [&](std::size_t i) {
        return w[i].empty() ? nan : median(w[i]);
      });
    };
    metrics = {
        {"edge_to_answer_ms", med(probe.fresh_us) * 1e-3, "ms"},
        {"read_ms", med(read_us) * 1e-3, "ms"},
        {"ingest_us_per_edge",
         across_windows(sh.windows,
                        [&](std::size_t i) {
                          const auto& b = ingest.busy_us[i];
                          return b.empty() ? nan : mean(b);
                        }),
         "us"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    metrics = {
        {"insert_us", safe_div(ingest.insert_us, edges), "us"},
        {"walk_us", mean_between(before.walk, after.walk), "us"},
        {"train_batch_us", mean_between(before.train, after.train), "us"},
        {"unlearn_us_per_deletion", safe_div(ingest.unlearn_us, deletions),
         "us"},
        {"untrain_batch_us", mean_between(before.untrain, after.untrain),
         "us"},
        {"fallback_share",
         safe_div(static_cast<double>(s1.fallback_retrains -
                                      s0.fallback_retrains),
                  deletions),
         "ratio"},
        {"publish_us", mean_between(before.publish, after.publish), "us"},
        {"rows_copied_per_publish",
         safe_div(static_cast<double>(after.rows_copied - before.rows_copied),
                  publishes),
         "count"},
        {"engine_rebuilds_per_publish",
         safe_div(static_cast<double>(after.rebuilds - before.rebuilds),
                  publishes),
         "count"},
        {"serve_request_us", mean_between(before.serve, after.serve), "us"},
        {"scan_us", mean_between(before.scan, after.scan), "us"},
        {"net_request_us", mean_between(before.net, after.net), "us"},
        {"client_rtt_us", mean(rtt_us), "us"},
        {"fresh_wait_us", median(probe.wait_us), "us"},
        {"fresh_answer_us", median(probe.answer_us), "us"},
    };
  }
  print_result(correct, std::max<std::uint64_t>(attempted, 1), failed,
               metrics);
  return 0;
}

}  // namespace
}  // namespace seqge

int main(int argc, char** argv) {
  using namespace seqge;
  std::string workload = "oselm";
  std::int64_t seed = 1, seconds = 10, trace = 0;
  ArgParser args("edge_to_answer",
                 "edge-to-answer benchmark over the trainer, store, engine "
                 "and TCP front-end");
  args.add_choice("workload", &workload, {"oselm", "dataflow_ivf", "sgd"},
                  "training backend and serving index");
  args.add_int("seed", &seed, "input seed");
  args.add_int("seconds", &seconds, "measured seconds");
  args.add_int("trace", &trace, "1 = per-layer metrics, 0 = end-to-end");
  if (!args.parse(argc, argv)) return 2;
  if (seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "edge_to_answer: bad --seconds or --trace\n");
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (workload != w.name) continue;
    try {
      return run(w, static_cast<std::uint64_t>(seed),
                 static_cast<double>(seconds), trace == 1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "edge_to_answer: %s\n", e.what());
      return 1;
    }
  }
  return 2;
}
