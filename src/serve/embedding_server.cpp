#include "serve/embedding_server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "util/logging.hpp"

namespace seqge::serve {

namespace {

/// Process-wide serving metrics, shared by every server instance (the
/// per-instance latency histogram backs LatencySummary separately).
struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* rejected;
  obs::Counter* rebuilds;
  obs::Gauge* queue_depth;
  obs::Histogram* request_us;
  obs::Histogram* engine_build_us;
  obs::Counter* shards_reused;
  obs::Counter* shards_refreshed;
  obs::Counter* shards_rebuilt;
};

obs::Counter* engine_shards(const char* path) {
  return obs::Registry::global().counter(
      "seqge_serve_engine_shards_total", {{"path", path}},
      "Shards brought up to date by engine builds, by path: reused "
      "(unchanged), refreshed (changed rows only) or rebuilt (from "
      "scratch, k-means included)");
}

ServeMetrics& serve_metrics() {
  static ServeMetrics m{
      obs::Registry::global().counter("seqge_serve_requests_total", {},
                                      "Requests accepted into the queue"),
      obs::Registry::global().counter(
          "seqge_serve_rejected_total", {},
          "Requests rejected (server draining)"),
      obs::Registry::global().counter("seqge_serve_engine_rebuilds_total", {},
                                      "Search-engine (re)builds"),
      obs::Registry::global().gauge("seqge_serve_queue_depth", {},
                                    "Requests queued, not yet answered"),
      obs::Registry::global().histogram(
          "seqge_serve_request_us", obs::default_latency_buckets_us(), {},
          "Request latency, enqueue to response (microseconds)"),
      obs::Registry::global().histogram(
          "seqge_serve_engine_build_us", obs::default_latency_buckets_us(),
          {}, "Search-engine (re)build time on a request worker (microseconds)"),
      engine_shards("reused"),
      engine_shards("refreshed"),
      engine_shards("rebuilt"),
  };
  return m;
}

}  // namespace

EmbeddingServer::EmbeddingServer(
    std::shared_ptr<const ShardedEmbeddingStore> store, ServerConfig cfg)
    : store_(std::move(store)),
      cfg_(cfg),
      queue_(cfg.queue_capacity == 0 ? 1 : cfg.queue_capacity),
      latency_hist_(obs::default_latency_buckets_us()) {
  if (store_ == nullptr) {
    throw std::invalid_argument("EmbeddingServer: null store");
  }
  if (cfg_.threads == 0) cfg_.threads = 1;
  workers_.reserve(cfg_.threads);
  for (std::size_t t = 0; t < cfg_.threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

EmbeddingServer::~EmbeddingServer() { drain(); }

void EmbeddingServer::drain() {
  queue_.close();
  for (auto& th : workers_) {
    if (th.joinable()) th.join();
  }
}

std::size_t EmbeddingServer::drain_for(std::chrono::milliseconds timeout) {
  queue_.close();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const std::int64_t left = pending_.load(std::memory_order_acquire);
    if (left <= 0) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      return static_cast<std::size_t>(left);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Fully drained: the workers are about to (or already did) observe
  // the closed, empty queue and exit; joining cannot block.
  for (auto& th : workers_) {
    if (th.joinable()) th.join();
  }
  return 0;
}

bool EmbeddingServer::enqueue(Request&& req, bool blocking) {
  req.enqueued = std::chrono::steady_clock::now();
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const bool accepted = blocking ? queue_.push(std::move(req))
                                 : queue_.try_push(std::move(req));
  if (!accepted) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    serve_metrics().rejected->add();
    return false;
  }
  serve_metrics().requests->add();
  serve_metrics().queue_depth->add();
  return true;
}

bool EmbeddingServer::submit(Query query, AnswerCallback done) {
  return enqueue(Request{std::move(query), std::move(done)},
                 /*blocking=*/false);
}

template <class Result, class Convert>
std::future<Result> EmbeddingServer::ask(Query query, Convert convert) {
  // std::function needs a copyable callable, so the promise is shared.
  auto promise = std::make_shared<std::promise<Result>>();
  std::future<Result> fut = promise->get_future();
  AnswerCallback done = [promise, convert](Answer&& a) {
    if (a.error != nullptr) {
      promise->set_exception(a.error);
    } else {
      promise->set_value(convert(std::move(a)));
    }
  };
  if (!enqueue(Request{std::move(query), std::move(done)},
               /*blocking=*/true)) {
    throw std::runtime_error("EmbeddingServer: draining, request rejected");
  }
  return fut;
}

std::future<TopKResult> EmbeddingServer::topk(NodeId u, std::size_t k) {
  return ask<TopKResult>(
      Query::topk({u}, k),
      [](Answer&& a) {
        return TopKResult{a.version, std::move(a.neighbors.front())};
      });
}

std::future<ScoreResult> EmbeddingServer::score(NodeId u, NodeId v,
                                                EdgeScore kind) {
  return ask<ScoreResult>(Query::score({{u, v}}, kind),
                          [](Answer&& a) {
                            return ScoreResult{a.version, a.scores.front()};
                          });
}

std::future<TopKBatchResult> EmbeddingServer::topk_batch(
    std::vector<NodeId> nodes, std::size_t k) {
  return ask<TopKBatchResult>(
      Query::topk(std::move(nodes), k),
      [](Answer&& a) {
        return TopKBatchResult{a.version, std::move(a.neighbors)};
      });
}

std::future<ScoreBatchResult> EmbeddingServer::score_batch(
    std::vector<std::pair<NodeId, NodeId>> pairs, EdgeScore kind) {
  return ask<ScoreBatchResult>(Query::score(std::move(pairs), kind),
                               [](Answer&& a) {
                                 return ScoreBatchResult{a.version,
                                                         std::move(a.scores)};
                               });
}

std::shared_ptr<const ShardedQueryEngine> EmbeddingServer::engine() {
  const std::uint64_t live = store_->version();
  if (live == 0) return nullptr;
  auto cached = engine_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->version() >= live) return cached;

  // A rebuild (IVF: k-means over every changed shard) can take a while;
  // while one worker builds, the rest keep answering from the
  // still-valid previous engine instead of stalling the whole pool.
  std::unique_lock lock(rebuild_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    if (cached != nullptr) return cached;
    lock.lock();  // no engine yet — nothing to serve, must wait
  }
  cached = engine_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->version() >= store_->version()) {
    return cached;
  }
  // Incremental: reuse/refresh the previous engine's per-shard state
  // instead of re-clustering every shard on each publish.
  const auto start = std::chrono::steady_clock::now();
  auto built = std::make_shared<const ShardedQueryEngine>(
      *store_, ShardedIndexConfig{.index = cfg_.index}, cached.get());
  engine_.store(built, std::memory_order_release);
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  ServeMetrics& m = serve_metrics();
  m.engine_build_us->observe(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
  const ShardedRefreshStats& stats = built->refresh_stats();
  m.rebuilds->add();
  m.shards_rebuilt->add(stats.shards_rebuilt);
  m.shards_refreshed->add(stats.shards_refreshed);
  m.shards_reused->add(stats.shards_reused);
  return built;
}

void EmbeddingServer::record(const Request& req) {
  const double us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - req.enqueued)
          .count();
  latency_hist_.observe(us);
  serve_metrics().request_us->observe(us);
  const std::size_t items = req.query.kind == Query::Kind::kTopK
                                ? req.query.nodes.size()
                                : req.query.pairs.size();
  served_.fetch_add(std::max<std::size_t>(1, items),
                    std::memory_order_relaxed);
}

Answer EmbeddingServer::answer(const Query& query) {
  const auto eng = engine();
  if (eng == nullptr) {
    throw std::runtime_error("EmbeddingServer: no snapshot published yet");
  }
  Answer a;
  a.version = eng->version();
  if (query.kind == Query::Kind::kTopK) {
    a.neighbors.reserve(query.nodes.size());
    for (NodeId u : query.nodes) {
      a.neighbors.push_back(eng->topk(u, query.k));
    }
  } else {
    a.scores.reserve(query.pairs.size());
    for (const auto& [u, v] : query.pairs) {
      a.scores.push_back(eng->score(u, v, query.score_kind));
    }
  }
  return a;
}

void EmbeddingServer::worker_loop() {
  for (;;) {
    auto item = queue_.pop();
    if (!item) break;  // closed and drained
    serve_metrics().queue_depth->sub();
    Request& req = *item;
    Answer a;
    try {
      a = answer(req.query);
    } catch (...) {
      a = Answer{};
      a.error = std::current_exception();
    }
    // Recorded before the callback so a caller woken by its answer
    // already sees it in queries_served() and latency().
    record(req);
    try {
      req.done(std::move(a));
    } catch (const std::exception& e) {
      // Nobody to forward it to; keep the worker alive.
      SEQGE_LOG_ERROR << "EmbeddingServer: answer callback threw: "
                      << e.what();
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

std::uint64_t EmbeddingServer::queries_served() const {
  return served_.load(std::memory_order_relaxed);
}

std::uint64_t EmbeddingServer::engine_rebuilds() const {
  return rebuilds_.load(std::memory_order_relaxed);
}

LatencySummary EmbeddingServer::latency() const {
  LatencySummary s;
  s.count = served_.load(std::memory_order_relaxed);
  if (latency_hist_.count() == 0) return s;
  s.mean_us = latency_hist_.mean();
  s.max_us = latency_hist_.max();
  s.p50_us = latency_hist_.percentile(0.50);
  s.p95_us = latency_hist_.percentile(0.95);
  s.p99_us = latency_hist_.percentile(0.99);
  return s;
}

}  // namespace seqge::serve
