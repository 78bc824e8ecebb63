#pragma once
// Multi-threaded embedding server: the request loop that turns the
// snapshot store + query engine into something a front-end can call
// while training runs. Requests (top-k / edge-score batches) enter one
// BoundedQueue (util/bounded_queue.hpp — the same primitive that backs
// the training pipeline); a pool of worker threads answers them against
// the *latest* store version and hands each answer to the request's
// completion callback, on the worker thread. Each new version gets a
// ShardedQueryEngine built *incrementally from the previous engine*:
// untouched shards are shared, changed shards re-assign only rows that
// moved (serve/sharded_query.hpp), so high-cadence delta publishing
// does not trigger full re-clustering. Each answer carries the version
// it came from, so clients can observe freshness, and each request's
// queue+service latency is recorded for the percentile summary.
//
// Two ways in, one queue:
//  * submit() — non-blocking: sheds (returns false) when the queue is
//    full, and runs a callback with the answer. The network front-end
//    (src/net/server.hpp) encodes its responses from that callback, so
//    a wire request crosses exactly one queue and one thread pool.
//  * topk/score/topk_batch/score_batch — in-process std::future
//    adapters over the same queue: they block while it is full and
//    throw while the server drains.
//
// Threading guarantees: submission is safe from any number of client
// threads; every accepted request is answered (or failed) exactly once;
// the versions observed by any single client thread's responses are
// monotonically non-decreasing (the store's versions are strictly
// monotonic and workers never install an older engine over a newer
// one).
//
// Shutdown is a graceful drain: close() stops admission, workers finish
// everything already queued (every accepted callback runs), then join.
// The destructor drains implicitly.

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/sharded_query.hpp"
#include "serve/sharded_store.hpp"
#include "util/bounded_queue.hpp"

namespace seqge::serve {

struct ServerConfig {
  std::size_t threads = 2;          ///< worker pool size (>= 1)
  std::size_t queue_capacity = 1024;
  /// Per-shard index configuration of the engine built for each new
  /// snapshot version. Brute force by default; switch to kIvf for
  /// sub-linear search on large stores.
  IndexConfig index{};
  Similarity similarity = Similarity::kCosine;
  /// Centroid-affinity decay past which an incrementally refreshed row
  /// re-runs its nearest-IVF-cell scan; a negative value re-scans every
  /// changed row (ShardedIndexConfig::reassign_threshold).
  float ivf_reassign_threshold = 0.05f;
  /// Threads per query for the per-shard fan-out
  /// (ShardedIndexConfig::scan_threads; 0/1 = sequential scan).
  std::size_t scan_threads = 0;
};

/// One submit() request: the top-k neighbors of every node in `nodes`,
/// or the link-prediction score of every pair in `pairs`, all answered
/// against one snapshot version. One queue slot and one worker wake-up
/// however many items it carries, which is what makes batches the
/// coalescing target for the network front-end.
struct Query {
  enum class Kind { kTopK, kScore };
  Kind kind = Kind::kTopK;
  std::vector<NodeId> nodes;                     ///< kTopK
  std::size_t k = 10;                            ///< kTopK
  std::vector<std::pair<NodeId, NodeId>> pairs;  ///< kScore
  EdgeScore score_kind = EdgeScore::kCosine;     ///< kScore

  static Query topk(std::vector<NodeId> nodes, std::size_t k) {
    Query q;
    q.nodes = std::move(nodes);
    q.k = k;
    return q;
  }
  static Query score(std::vector<std::pair<NodeId, NodeId>> pairs,
                     EdgeScore kind) {
    Query q;
    q.kind = Kind::kScore;
    q.pairs = std::move(pairs);
    q.score_kind = kind;
    return q;
  }
};

/// What a submit() callback receives.
struct Answer {
  std::uint64_t version = 0;                     ///< snapshot answered from
  std::vector<std::vector<Neighbor>> neighbors;  ///< kTopK: one per node
  std::vector<double> scores;                    ///< kScore: one per pair
  /// Set when the request failed (e.g. nothing published yet, node out
  /// of range); the result members are then empty.
  std::exception_ptr error;
};

/// Runs on a server worker thread once the answer is ready. It should
/// not throw: the worker logs and drops an escaping exception.
using AnswerCallback = std::function<void(Answer&&)>;

struct TopKResult {
  std::uint64_t version = 0;  ///< snapshot the answer came from
  std::vector<Neighbor> neighbors;
};

struct ScoreResult {
  std::uint64_t version = 0;
  double score = 0.0;
};

/// Answer to a batched top-k request: one neighbor list per requested
/// node, all answered against the same snapshot version.
struct TopKBatchResult {
  std::uint64_t version = 0;
  std::vector<std::vector<Neighbor>> results;  ///< one entry per node
};

/// Answer to a batched edge-score request (same contract as above).
struct ScoreBatchResult {
  std::uint64_t version = 0;
  std::vector<double> scores;  ///< one entry per (u, v) pair
};

/// Latency summary, microseconds. `count` covers every answered
/// request; mean/percentiles/max come from a per-server obs::Histogram
/// over all requests (constant memory however long the server runs;
/// percentile accuracy is bounded by the histogram's factor-2 bucket
/// widths). Subject to the obs kill switch: with SEQGE_OBS=0 only
/// `count` is populated.
struct LatencySummary {
  std::size_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

class EmbeddingServer {
 public:
  /// The store is shared with the producer (trainer) and must outlive
  /// the server. Workers start immediately; requests submitted before
  /// the first publish fail with std::runtime_error.
  explicit EmbeddingServer(std::shared_ptr<const ShardedEmbeddingStore> store,
                           ServerConfig cfg = {});
  ~EmbeddingServer();

  EmbeddingServer(const EmbeddingServer&) = delete;
  EmbeddingServer& operator=(const EmbeddingServer&) = delete;

  /// Non-blocking submission: returns false at once — without running
  /// `done` — when the queue is full or the server is draining (the
  /// shed path the network front-end answers with OVERLOADED).
  /// Otherwise a worker answers the query, or fails it, and then runs
  /// `done` exactly once on its own thread.
  bool submit(Query query, AnswerCallback done);

  /// Blocking adapters over the same queue: wait for a free slot, then
  /// return a future for the answer. Throw std::runtime_error if the
  /// server is draining.
  std::future<TopKResult> topk(NodeId u, std::size_t k);
  std::future<ScoreResult> score(NodeId u, NodeId v,
                                 EdgeScore kind = EdgeScore::kCosine);
  std::future<TopKBatchResult> topk_batch(std::vector<NodeId> nodes,
                                          std::size_t k);
  std::future<ScoreBatchResult> score_batch(
      std::vector<std::pair<NodeId, NodeId>> pairs,
      EdgeScore kind = EdgeScore::kCosine);

  /// Stop admission, answer everything already queued, join the
  /// workers. Idempotent; also run by the destructor.
  void drain();

  /// Bounded drain for clean SIGTERM handling: stop admission, then
  /// wait up to `timeout` for the queued + in-flight requests to be
  /// answered. Returns 0 once fully drained (workers joined), or the
  /// number of requests still pending when the timeout expired (workers
  /// left running — every accepted request is still answered
  /// eventually, and the destructor joins unboundedly).
  std::size_t drain_for(std::chrono::milliseconds timeout);

  [[nodiscard]] bool draining() const noexcept { return queue_.closed(); }

  /// Requests answered so far (successfully or with an error); batch
  /// requests count once per member.
  [[nodiscard]] std::uint64_t queries_served() const;
  /// Store versions the server has built engines for.
  [[nodiscard]] std::uint64_t engine_rebuilds() const;
  /// Percentile summary of request latency (enqueue -> answer ready).
  [[nodiscard]] LatencySummary latency() const;
  /// Requests queued but not yet picked up by a worker — the capacity-
  /// planning signal the net front-end exports as a gauge.
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return queue_.capacity();
  }
  /// Latest version the backing store has published (0 = none yet).
  [[nodiscard]] std::uint64_t store_version() const {
    return store_->version();
  }

 private:
  struct Request {
    Query query;
    AnswerCallback done;
    std::chrono::steady_clock::time_point enqueued{};
  };

  void worker_loop();
  Answer answer(const Query& query);
  /// Push with blocking or shed semantics; updates admission metrics
  /// and the in-flight count. Returns false when shed (try_push failed
  /// or, in blocking mode, the queue closed).
  bool enqueue(Request&& req, bool blocking);
  /// Blocking submission of `query`, its answer turned into a Result.
  template <class Result, class Convert>
  std::future<Result> ask(Query query, Convert convert);
  /// Current engine, rebuilt (by exactly one worker) when the store has
  /// published a newer version than the cached engine was built for.
  std::shared_ptr<const ShardedQueryEngine> engine();
  void record(const Request& req);

  std::shared_ptr<const ShardedEmbeddingStore> store_;
  ServerConfig cfg_;
  BoundedQueue<Request> queue_;

  // Engine cache: read with one atomic load on the hot path; rebuilds
  // serialize on rebuild_mutex_ with a double-check so concurrent
  // workers noticing the same new version build it once.
  std::atomic<std::shared_ptr<const ShardedQueryEngine>> engine_{nullptr};
  std::mutex rebuild_mutex_;
  std::atomic<std::uint64_t> rebuilds_{0};

  // Per-server latency histogram behind LatencySummary (multiple
  // servers in one process must not share samples); every observation
  // is mirrored into the global seqge_serve_request_us histogram.
  obs::Histogram latency_hist_;
  std::atomic<std::uint64_t> served_{0};
  // Accepted-minus-answered requests (queued + in-flight), the drain
  // progress signal drain_for polls. Signed: the submitter increments
  // before the push and decrements on a failed push, so a racing
  // worker can transiently drive it below the true count but never
  // hide an accepted request.
  std::atomic<std::int64_t> pending_{0};

  std::vector<std::thread> workers_;
};

}  // namespace seqge::serve
