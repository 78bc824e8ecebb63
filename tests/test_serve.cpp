// Serving subsystem tests at the default shard count (N = 1): the RCU
// snapshot store, SnapshotSink integration with the trainers, exact
// and IVF k-NN correctness, checkpoint persistence, and the
// multi-threaded EmbeddingServer (callback submission, blocking
// adapters, freshness, graceful drain).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "embedding/backend_registry.hpp"
#include "embedding/trainer.hpp"
#include "graph/generators.hpp"
#include "linalg/kernels.hpp"
#include "serve/embedding_server.hpp"
#include "serve/sharded_query.hpp"
#include "serve/sharded_store.hpp"
#include "util/rng.hpp"

namespace seqge::serve {
namespace {

MatrixF constant_matrix(std::size_t rows, std::size_t cols, float value) {
  MatrixF m(rows, cols);
  m.fill(value);
  return m;
}

/// A one-shard store with `m` published as version 1.
std::shared_ptr<ShardedEmbeddingStore> published(MatrixF m) {
  auto store = std::make_shared<ShardedEmbeddingStore>();
  store->publish(std::move(m));
  return store;
}

// --- the store at its default shard count (N = 1) -------------------------

TEST(Store, VersionsAreMonotonicAndContentsPreserved) {
  ShardedEmbeddingStore store;
  EXPECT_EQ(store.num_shards(), 1u);
  EXPECT_EQ(store.version(), 0u);
  EXPECT_EQ(store.shard(0), nullptr);

  EXPECT_EQ(store.publish(constant_matrix(4, 2, 1.0f), 10, "m"), 1u);
  EXPECT_EQ(store.publish(constant_matrix(4, 2, 2.0f), 20, "m"), 2u);

  const auto snap = store.shard(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 2u);
  EXPECT_EQ(store.walks_trained(), 20u);
  EXPECT_EQ(store.producer(), "m");
  EXPECT_EQ(store.num_rows(), 4u);
  EXPECT_EQ(snap->dims, 2u);
  const MatrixF contents = store.materialize();
  for (float v : contents.flat()) EXPECT_EQ(v, 2.0f);
}

TEST(Store, EmptyPublishRejected) {
  ShardedEmbeddingStore store;
  EXPECT_THROW(store.publish(MatrixF{}), std::invalid_argument);
}

TEST(Store, ReadersKeepOldSnapshotAlive) {
  ShardedEmbeddingStore store;
  store.publish(constant_matrix(3, 3, 1.0f));
  const auto held = store.shard(0);
  store.publish(constant_matrix(3, 3, 2.0f));
  // The reader's reference still sees version 1, untouched.
  EXPECT_EQ(held->version, 1u);
  for (std::size_t r = 0; r < held->num_rows(); ++r) {
    for (float v : held->row(r)) EXPECT_EQ(v, 1.0f);
  }
  EXPECT_EQ(store.shard(0)->version, 2u);
}

TEST(Store, WaitForVersionTimesOutAndSucceeds) {
  ShardedEmbeddingStore store;
  EXPECT_FALSE(store.wait_for_version(1, std::chrono::milliseconds(10)));
  std::thread publisher([&] {
    store.publish(constant_matrix(2, 2, 1.0f));
  });
  EXPECT_TRUE(store.wait_for_version(1, std::chrono::milliseconds(2000)));
  publisher.join();
}

// --- SnapshotSink integration with the trainers ---------------------------

TEST(SnapshotSink, TrainAllPublishesAtCadenceAndFinal) {
  const LabeledGraph data = make_karate_club();
  TrainConfig cfg;
  cfg.dims = 8;
  cfg.seed = 7;

  auto store = std::make_shared<ShardedEmbeddingStore>();
  Rng rng(cfg.seed);
  auto model = make_backend("oselm", data.graph.num_nodes(), cfg, rng);

  PipelineConfig pipe;
  pipe.batch_walks = 16;
  pipe.snapshot_every = 2;
  pipe.snapshot_sink = store.get();
  const TrainStats stats = train_all(*model, data.graph, cfg, rng, pipe);

  // Cadence publishes plus the final one.
  EXPECT_EQ(stats.snapshots_published, store->version());
  EXPECT_GE(store->version(), 1u + stats.num_batches / 2);

  EXPECT_EQ(store->producer(), model->name());
  EXPECT_EQ(store->walks_trained(), stats.num_walks);
  // Final snapshot is exactly the trained embedding.
  EXPECT_DOUBLE_EQ(
      max_abs_diff(store->materialize(), model->extract_embedding()), 0.0);
}

TEST(SnapshotSink, TrainSequentialPublishesDuringInsertionStream) {
  const LabeledGraph data = make_karate_club();
  TrainConfig cfg;
  cfg.dims = 8;
  cfg.seed = 11;

  auto store = std::make_shared<ShardedEmbeddingStore>();
  Rng rng(cfg.seed);
  auto model = make_backend("oselm", data.graph.num_nodes(), cfg, rng);

  SequentialConfig scfg;
  scfg.train = cfg;
  scfg.pipeline.snapshot_sink = store.get();
  scfg.snapshot_every_insertions = 8;
  scfg.max_insertions = 24;
  const SequentialResult result =
      train_sequential(*model, data.graph, scfg, rng);

  // 24 insertions at cadence 8 -> 3 cadence publishes + 1 final.
  EXPECT_EQ(store->version(), result.stats.snapshots_published);
  EXPECT_GE(store->version(), 4u);
  // Progress counts both phases, as from one trainer.
  EXPECT_EQ(store->walks_trained(), result.stats.num_walks);
  EXPECT_DOUBLE_EQ(
      max_abs_diff(store->materialize(), model->extract_embedding()), 0.0);
}

// --- checkpoint persistence -----------------------------------------------

TEST(Store, CheckpointRoundTripPreservesEmbedding) {
  ShardedEmbeddingStore store;
  MatrixF emb(5, 3);
  Rng rng(3);
  emb.fill_uniform(rng, -1.0, 1.0);
  store.publish(MatrixF(emb));

  std::stringstream ss;
  store.save(ss);

  ShardedEmbeddingStore restored;
  EXPECT_EQ(restored.load(ss), 1u);
  EXPECT_DOUBLE_EQ(max_abs_diff(restored.materialize(), emb), 0.0);
}

TEST(Store, SaveWithoutSnapshotThrows) {
  ShardedEmbeddingStore store;
  std::stringstream ss;
  EXPECT_THROW(store.save(ss), std::runtime_error);
}

// --- query engine over one shard ------------------------------------------

MatrixF toy_matrix() {
  // 6 nodes in 2-D with obvious cosine structure: 0,1,2 point right-ish,
  // 3,4 point up-ish, 5 points left.
  MatrixF m(6, 2);
  const float rows[6][2] = {{1.0f, 0.0f}, {2.0f, 0.1f},  {1.0f, 0.2f},
                            {0.0f, 1.0f}, {0.1f, 2.0f},  {-1.0f, 0.0f}};
  for (std::size_t r = 0; r < 6; ++r) {
    m(r, 0) = rows[r][0];
    m(r, 1) = rows[r][1];
  }
  return m;
}

TEST(ExactSearch, CosineTopKOrdersAndExcludesSelf) {
  const auto store = published(toy_matrix());
  const ShardedQueryEngine engine(*store);
  const auto nn = engine.topk(NodeId{0}, 3);
  ASSERT_EQ(nn.size(), 3u);
  // Node 1 (cos ~0.9988) beats node 2 (cos ~0.9806); never node 0.
  EXPECT_EQ(nn[0].node, 1u);
  EXPECT_EQ(nn[1].node, 2u);
  for (const auto& n : nn) EXPECT_NE(n.node, 0u);
  EXPECT_GE(nn[0].score, nn[1].score);
  EXPECT_GE(nn[1].score, nn[2].score);
}

TEST(ExactSearch, DotRankingDiffersFromCosine) {
  const auto store = published(toy_matrix());
  const ShardedQueryEngine engine(*store);
  // Under dot product, node 1's magnitude (2.0) makes it the best match
  // for node 2; under cosine the directions decide.
  const auto dot_nn = engine.topk(NodeId{2}, 1, Similarity::kDot);
  ASSERT_EQ(dot_nn.size(), 1u);
  EXPECT_EQ(dot_nn[0].node, 1u);
  EXPECT_FLOAT_EQ(dot_nn[0].score, 2.0f * 1.0f + 0.1f * 0.2f);
}

TEST(ExactSearch, KClampedToCandidates) {
  const auto store = published(toy_matrix());
  const ShardedQueryEngine engine(*store);
  EXPECT_EQ(engine.topk(NodeId{0}, 100).size(), 5u);  // n-1 candidates
  EXPECT_TRUE(engine.topk(NodeId{0}, 0).empty());
}

TEST(ExactSearch, QueryVectorOverloadMatchesNodeOverload) {
  const MatrixF m = toy_matrix();
  const auto store = published(MatrixF(m));
  const ShardedQueryEngine engine(*store);
  const auto by_node = engine.topk(NodeId{3}, 4);
  const auto by_vec =
      engine.topk(m.row(3), 4, Similarity::kCosine, NodeId{3});
  ASSERT_EQ(by_node.size(), by_vec.size());
  for (std::size_t i = 0; i < by_node.size(); ++i) {
    EXPECT_EQ(by_node[i].node, by_vec[i].node);
    EXPECT_FLOAT_EQ(by_node[i].score, by_vec[i].score);
  }
}

TEST(ExactSearch, BadInputsThrow) {
  const auto store = published(toy_matrix());
  const ShardedQueryEngine engine(*store);
  EXPECT_THROW(engine.topk(NodeId{99}, 2), std::invalid_argument);
  const std::vector<float> wrong_dims(3, 0.0f);
  EXPECT_THROW(engine.topk(std::span<const float>(wrong_dims), 2),
               std::invalid_argument);
  EXPECT_THROW((void)engine.score(0, 99), std::invalid_argument);
}

TEST(ExactSearch, ScoreMatchesEvalScorer) {
  const MatrixF m = toy_matrix();
  const auto store = published(MatrixF(m));
  const ShardedQueryEngine engine(*store);
  for (const EdgeScore kind :
       {EdgeScore::kDot, EdgeScore::kCosine, EdgeScore::kHadamardL2}) {
    EXPECT_DOUBLE_EQ(engine.score(0, 3, kind), score_edge(m, 0, 3, kind));
  }
}

/// Clustered synthetic embedding: `clusters` well-separated unit-ish
/// directions with small per-point jitter — the regime IVF is built for.
MatrixF clustered_matrix(std::size_t n, std::size_t dims,
                         std::size_t clusters, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF centers(clusters, dims);
  centers.fill_gaussian(rng, 1.0);
  MatrixF m(n, dims);
  for (std::size_t r = 0; r < n; ++r) {
    const auto c = centers.row(r % clusters);
    auto row = m.row(r);
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = c[d] + static_cast<float>(rng.gaussian() * 0.15);
    }
  }
  return m;
}

TEST(IvfSearch, FullProbeMatchesExact) {
  const auto store = published(clustered_matrix(500, 16, 10, 5));
  const ShardedQueryEngine exact(*store);
  ShardedIndexConfig ivf_cfg;
  ivf_cfg.index.kind = IndexConfig::Kind::kIvf;
  ivf_cfg.index.nlist = 16;
  const ShardedQueryEngine ivf(*store, ivf_cfg);
  for (NodeId u : {NodeId{0}, NodeId{123}, NodeId{499}}) {
    const auto e = exact.topk(u, 10);
    // nprobe == nlist degenerates to scanning every cell == exact.
    const auto a = ivf.topk(u, 10, Similarity::kCosine, /*nprobe=*/16);
    EXPECT_DOUBLE_EQ(recall_at_k(e, a), 1.0);
  }
}

TEST(IvfSearch, RecallHighOnClusteredData) {
  const auto store = published(clustered_matrix(2000, 32, 20, 9));
  const ShardedQueryEngine exact(*store);
  ShardedIndexConfig ivf_cfg;
  ivf_cfg.index.kind = IndexConfig::Kind::kIvf;
  ivf_cfg.index.nlist = 32;
  ivf_cfg.index.nprobe = 8;
  const ShardedQueryEngine ivf(*store, ivf_cfg);

  double recall_sum = 0.0;
  constexpr std::size_t kQueries = 50;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const auto u = static_cast<NodeId>(q * 37 % 2000);
    recall_sum += recall_at_k(exact.topk(u, 10), ivf.topk(u, 10));
  }
  EXPECT_GE(recall_sum / kQueries, 0.9);
}

// --- EmbeddingServer ------------------------------------------------------

TEST(EmbeddingServer, AnswersMatchDirectEngineAndDrainCounts) {
  const auto store = published(clustered_matrix(400, 16, 8, 13));

  ServerConfig cfg;
  cfg.threads = 4;
  EmbeddingServer server(store, cfg);

  const ShardedQueryEngine reference(*store);
  constexpr std::size_t kRequests = 200;
  std::vector<std::future<TopKResult>> topk_futures;
  std::vector<std::future<ScoreResult>> score_futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    topk_futures.push_back(server.topk(static_cast<NodeId>(i % 400), 5));
    score_futures.push_back(server.score(static_cast<NodeId>(i % 400),
                                         static_cast<NodeId>((i * 7) % 400)));
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    TopKResult res = topk_futures[i].get();
    EXPECT_EQ(res.version, 1u);
    const auto expect = reference.topk(static_cast<NodeId>(i % 400), 5);
    ASSERT_EQ(res.neighbors.size(), expect.size());
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(res.neighbors[j].node, expect[j].node);
    }
    ScoreResult sres = score_futures[i].get();
    EXPECT_DOUBLE_EQ(sres.score,
                     reference.score(static_cast<NodeId>(i % 400),
                                     static_cast<NodeId>((i * 7) % 400)));
  }

  server.drain();
  EXPECT_EQ(server.queries_served(), 2 * kRequests);
  EXPECT_EQ(server.engine_rebuilds(), 1u);
  const LatencySummary lat = server.latency();
  EXPECT_EQ(lat.count, 2 * kRequests);
  EXPECT_GT(lat.p50_us, 0.0);
  EXPECT_LE(lat.p50_us, lat.p95_us);
  EXPECT_LE(lat.p95_us, lat.p99_us);
  EXPECT_LE(lat.p99_us, lat.max_us);
}

TEST(EmbeddingServer, ObservesNewSnapshotsAcrossPublishes) {
  const auto store = published(constant_matrix(50, 4, 1.0f));
  ServerConfig cfg;
  cfg.threads = 2;
  EmbeddingServer server(store, cfg);

  EXPECT_EQ(server.topk(0, 3).get().version, 1u);
  store->publish(constant_matrix(50, 4, 2.0f));
  // The next request must be answered from the new version — workers
  // notice the store moved and rebuild exactly once.
  EXPECT_EQ(server.topk(1, 3).get().version, 2u);
  server.drain();
  EXPECT_EQ(server.engine_rebuilds(), 2u);
}

TEST(EmbeddingServer, RequestBeforeFirstPublishFails) {
  auto store = std::make_shared<ShardedEmbeddingStore>();
  EmbeddingServer server(store);
  auto fut = server.topk(0, 3);
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(EmbeddingServer, SubmitAfterDrainRejected) {
  const auto store = published(constant_matrix(10, 4, 1.0f));
  EmbeddingServer server(store);
  server.drain();
  EXPECT_TRUE(server.draining());
  EXPECT_THROW(server.topk(0, 3), std::runtime_error);
}

// Queries issued from client threads while a publisher keeps swapping
// snapshots: every answer must come from a complete snapshot (all
// elements equal to the reported version) and versions seen by one
// client never go backwards.
TEST(EmbeddingServer, ConcurrentPublishAndQueryStaysConsistent) {
  const auto store = published(constant_matrix(64, 8, 1.0f));
  ServerConfig cfg;
  cfg.threads = 3;
  EmbeddingServer server(store, cfg);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (std::uint64_t p = 2; !stop.load(); ++p) {
      store->publish(constant_matrix(64, 8, static_cast<float>(p)));
      std::this_thread::yield();
    }
  });

  std::uint64_t last_version = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    TopKResult res = server.topk(static_cast<NodeId>(i % 64), 3).get();
    EXPECT_GE(res.version, last_version);
    last_version = res.version;
    // All scores derive from a uniform matrix: cosine of identical
    // rows == 1 regardless of version, so just sanity-check shape.
    ASSERT_EQ(res.neighbors.size(), 3u);
  }
  stop.store(true);
  publisher.join();
  server.drain();
  EXPECT_GT(last_version, 0u);
}

TEST(EmbeddingServer, BatchRequestsMatchSingles) {
  const auto store = published(clustered_matrix(200, 8, 4, 29));
  EmbeddingServer server(store);

  std::vector<NodeId> nodes{0, 17, 42, 199, 42};
  TopKBatchResult batch = server.topk_batch(nodes, 5).get();
  EXPECT_EQ(batch.version, 1u);
  ASSERT_EQ(batch.results.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TopKResult single = server.topk(nodes[i], 5).get();
    ASSERT_EQ(batch.results[i].size(), single.neighbors.size());
    for (std::size_t j = 0; j < single.neighbors.size(); ++j) {
      EXPECT_EQ(batch.results[i][j].node, single.neighbors[j].node);
      EXPECT_EQ(batch.results[i][j].score, single.neighbors[j].score);
    }
  }

  std::vector<std::pair<NodeId, NodeId>> pairs{{0, 1}, {17, 42}, {5, 5}};
  ScoreBatchResult sbatch =
      server.score_batch(pairs, EdgeScore::kCosine).get();
  ASSERT_EQ(sbatch.scores.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const ScoreResult single =
        server.score(pairs[i].first, pairs[i].second, EdgeScore::kCosine)
            .get();
    EXPECT_DOUBLE_EQ(sbatch.scores[i], single.score);
  }
  server.drain();
  // Batches count once per member in the served totals.
  EXPECT_EQ(server.queries_served(), 5u + 5u + 3u + 3u);
}

TEST(EmbeddingServer, SubmitShedsWhenQueueFullAndCallsBackOnce) {
  const auto store = published(constant_matrix(600, 32, 1.0f));
  ServerConfig cfg;
  cfg.threads = 1;
  cfg.queue_capacity = 2;
  EmbeddingServer server(store, cfg);

  // Flood far past the 2-slot queue: submit must return false (shed)
  // rather than block, and every accepted query must call back once.
  std::atomic<int> answered{0};
  std::atomic<int> wrong_version{0};
  std::size_t accepted = 0, shed = 0;
  for (int i = 0; i < 500; ++i) {
    const bool ok = server.submit(
        Query::topk({static_cast<NodeId>(i % 600)}, 10), [&](Answer&& a) {
          if (a.error != nullptr || a.version != 1 ||
              a.neighbors.size() != 1) {
            wrong_version.fetch_add(1);
          }
          answered.fetch_add(1);
        });
    if (ok) {
      ++accepted;
    } else {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(accepted, 0u);

  // After drain, submit sheds instead of throwing (unlike topk()), and
  // a refused callback never runs.
  server.drain();
  EXPECT_EQ(answered.load(), static_cast<int>(accepted));
  EXPECT_EQ(wrong_version.load(), 0);
  bool ran = false;
  EXPECT_FALSE(server.submit(Query::topk({0}, 3), [&](Answer&&) {
    ran = true;
  }));
  EXPECT_FALSE(server.submit(Query::score({{0, 1}}, EdgeScore::kCosine),
                             [&](Answer&&) { ran = true; }));
  EXPECT_FALSE(ran);
}

TEST(EmbeddingServer, FailedQueryCallsBackWithError) {
  const auto store = published(constant_matrix(10, 4, 1.0f));
  EmbeddingServer server(store);
  std::promise<Answer> got;
  ASSERT_TRUE(server.submit(Query::topk({0, 99}, 3), [&](Answer&& a) {
    got.set_value(std::move(a));
  }));
  const Answer a = got.get_future().get();
  EXPECT_NE(a.error, nullptr);
  EXPECT_TRUE(a.neighbors.empty());
  // The blocking adapter turns the same failure into an exception.
  EXPECT_THROW(server.topk(99, 3).get(), std::invalid_argument);
}

TEST(EmbeddingServer, DrainForReportsLeftoverThenCompletes) {
  const auto store = published(constant_matrix(2000, 64, 0.5f));
  ServerConfig cfg;
  cfg.threads = 1;
  EmbeddingServer server(store, cfg);

  // Queue enough brute-force work that a ~0 ms budget cannot finish it.
  std::vector<std::future<TopKBatchResult>> futures;
  std::vector<NodeId> nodes(64);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<NodeId>(i);
  }
  for (int i = 0; i < 50; ++i) {
    futures.push_back(server.topk_batch(nodes, 10));
  }
  const std::size_t left = server.drain_for(std::chrono::milliseconds(0));
  EXPECT_GT(left, 0u);
  EXPECT_TRUE(server.draining());
  // Every accepted promise is still fulfilled after the timeout path.
  for (auto& fut : futures) EXPECT_EQ(fut.get().version, 1u);
  // A second bounded drain now finds nothing pending.
  EXPECT_EQ(server.drain_for(std::chrono::seconds(30)), 0u);
}

TEST(EmbeddingServer, DrainForCleanWhenIdle) {
  const auto store = published(constant_matrix(10, 4, 1.0f));
  EmbeddingServer server(store);
  (void)server.topk(0, 3).get();
  EXPECT_EQ(server.drain_for(std::chrono::seconds(10)), 0u);
  EXPECT_TRUE(server.draining());
}

}  // namespace
}  // namespace seqge::serve
