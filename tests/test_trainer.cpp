// Tests for the batch ("all") and dynamic ("seq") training
// orchestrators.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "embedding/model.hpp"
#include "embedding/trainer.hpp"
#include "graph/components.hpp"
#include "graph/sliding_window.hpp"
#include "graph/spanning_forest.hpp"
#include "walk/corpus.hpp"
#include "walk/walk_batch.hpp"
#include "graph/generators.hpp"
#include "linalg/kernels.hpp"
#include "util/rng.hpp"

namespace seqge {
namespace {

LabeledGraph small_graph() {
  return generate_dcsbm(
      {.num_nodes = 120, .target_edges = 600, .num_classes = 3, .seed = 31});
}

TrainConfig small_config() {
  TrainConfig cfg;
  cfg.dims = 8;
  cfg.walk.walk_length = 20;
  cfg.walk.window = 5;
  cfg.walks_per_node = 2;
  cfg.negative_samples = 4;
  return cfg;
}

TEST(TrainAll, StatsAccounting) {
  const LabeledGraph data = small_graph();
  const TrainConfig cfg = small_config();
  Rng rng(1);
  auto model = make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg, rng);
  const TrainStats stats = train_all(*model, data.graph, cfg, rng);

  EXPECT_EQ(stats.num_walks, data.graph.num_nodes() * cfg.walks_per_node);
  // Every walk reaches full length (all nodes have degree >= 1), so the
  // context count is exact.
  EXPECT_EQ(stats.num_contexts,
            stats.num_walks *
                num_contexts(cfg.walk.walk_length, cfg.walk.window));
  EXPECT_GT(stats.train_seconds, 0.0);
  EXPECT_GT(stats.walk_seconds, 0.0);
}

TEST(TrainAll, ChangesTheEmbedding) {
  const LabeledGraph data = small_graph();
  const TrainConfig cfg = small_config();
  Rng rng(2);
  auto model = make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg, rng);
  const MatrixF before = model->extract_embedding();
  train_all(*model, data.graph, cfg, rng);
  const MatrixF after = model->extract_embedding();
  EXPECT_GT(max_abs_diff(before, after), 1e-4);
}

TEST(TrainAll, DeterministicForSameSeed) {
  const LabeledGraph data = small_graph();
  const TrainConfig cfg = small_config();
  MatrixF emb[2];
  for (int t = 0; t < 2; ++t) {
    Rng rng(cfg.seed);
    auto model =
        make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg, rng);
    train_all(*model, data.graph, cfg, rng);
    emb[t] = model->extract_embedding();
  }
  EXPECT_DOUBLE_EQ(max_abs_diff(emb[0], emb[1]), 0.0);
}

TEST(TrainSequential, InsertsEveryRemovedEdge) {
  const LabeledGraph data = small_graph();
  SequentialConfig cfg;
  cfg.train = small_config();
  Rng rng(4);
  auto model =
      make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg.train, rng);
  const SequentialResult result =
      train_sequential(*model, data.graph, cfg, rng);

  const std::size_t cc = count_components(data.graph);
  EXPECT_EQ(result.forest_edges, data.graph.num_nodes() - cc);
  EXPECT_EQ(result.forest_edges + result.removed_edges,
            data.graph.num_edges());
  EXPECT_EQ(result.insertions, result.removed_edges);
  // Initial corpus walks + 2 walks per insertion.
  EXPECT_EQ(result.stats.num_walks,
            data.graph.num_nodes() * cfg.train.walks_per_node +
                2 * result.insertions);
}

TEST(TrainSequential, MaxInsertionsCap) {
  const LabeledGraph data = small_graph();
  SequentialConfig cfg;
  cfg.train = small_config();
  cfg.max_insertions = 10;
  Rng rng(5);
  auto model =
      make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg.train, rng);
  const SequentialResult result =
      train_sequential(*model, data.graph, cfg, rng);
  EXPECT_EQ(result.insertions, 10u);
}

TEST(TrainSequential, InitialWalksOverride) {
  const LabeledGraph data = small_graph();
  SequentialConfig cfg;
  cfg.train = small_config();
  cfg.initial_walks_per_node = 1;
  cfg.max_insertions = 0;
  Rng rng(6);
  auto model =
      make_model(ModelKind::kOselm, data.graph.num_nodes(), cfg.train, rng);
  const SequentialResult result =
      train_sequential(*model, data.graph, cfg, rng);
  EXPECT_EQ(result.stats.num_walks, data.graph.num_nodes());
}

TEST(TrainSequential, IsTrainAllThenStreamTrainer) {
  // train_sequential is exactly: split, train_all on the forest, then a
  // StreamTrainer inserting the removed edges and flushing once.
  const LabeledGraph data = small_graph();
  const std::size_t n = data.graph.num_nodes();
  for (const ModelKind kind : {ModelKind::kOriginalSGD, ModelKind::kOselm}) {
    SequentialConfig cfg;
    cfg.train = small_config();
    cfg.initial_walks_per_node = 1;
    cfg.max_insertions = 40;
    cfg.pipeline.batch_walks = 16;
    Rng rng(9);
    auto model = make_model(kind, n, cfg.train, rng);
    const SequentialResult result =
        train_sequential(*model, data.graph, cfg, rng);

    Rng ref_rng(9);
    auto ref = make_model(kind, n, cfg.train, ref_rng);
    const ForestSplit split = split_spanning_forest(data.graph, ref_rng);
    ASSERT_GE(split.removed_edges.size(), cfg.max_insertions);
    TrainConfig forest_cfg = cfg.train;
    forest_cfg.walks_per_node = cfg.initial_walks_per_node;
    const TrainStats forest =
        train_all(*ref, Graph::from_edges(n, split.forest_edges), forest_cfg,
                  ref_rng, cfg.pipeline);
    SlidingWindowGraph window(n);
    for (const Edge& e : split.forest_edges) {
      window.add_edge(e.src, e.dst, e.weight, 0);
    }
    StreamConfig scfg;
    scfg.train = cfg.train;
    StreamTrainer stream(*ref, window, scfg, ref_rng);
    for (std::size_t i = 0; i < cfg.max_insertions; ++i) {
      const Edge& e = split.removed_edges[i];
      stream.insert(e.src, e.dst, e.weight);
    }

    EXPECT_EQ(max_abs_diff(model->extract_embedding(),
                           ref->extract_embedding()),
              0.0);
    EXPECT_EQ(result.insertions, stream.stats().edges_inserted);
    EXPECT_EQ(result.stats.num_walks,
              forest.num_walks + stream.train_stats().num_walks);
    EXPECT_EQ(result.stats.num_contexts,
              forest.num_contexts + stream.train_stats().num_contexts);
    EXPECT_EQ(result.stats.num_batches,
              forest.num_batches + stream.train_stats().num_batches);
    // Both callers leave their Rng in the same state.
    EXPECT_EQ(rng.next(), ref_rng.next());
  }
}

/// Forwards to an inner model; once armed, every train_batch first
/// sleeps past StreamTrainer::kMaxPublishDelay — a stand-in for a slow
/// backend.
class SlowModel : public EmbeddingModel {
 public:
  explicit SlowModel(std::unique_ptr<EmbeddingModel> inner)
      : inner_(std::move(inner)) {}
  bool armed = false;

  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    const NegativeSampler& sampler, std::size_t ns,
                    NegativeMode mode, Rng& rng) override {
    return inner_->train_walk(walk, window, sampler, ns, mode, rng);
  }
  double train_batch(const WalkBatch& batch, std::size_t window,
                     const NegativeSampler& sampler, std::size_t ns,
                     NegativeMode mode) override {
    if (armed) {
      std::this_thread::sleep_for(StreamTrainer::kMaxPublishDelay +
                                  std::chrono::milliseconds(1));
    }
    return inner_->train_batch(batch, window, sampler, ns, mode);
  }
  bool untrain_batch(const WalkBatch& batch, std::size_t window,
                     const NegativeSampler& sampler, std::size_t ns,
                     NegativeMode mode) override {
    return inner_->untrain_batch(batch, window, sampler, ns, mode);
  }
  MatrixF extract_embedding() const override {
    return inner_->extract_embedding();
  }
  void extract_rows(std::span<const NodeId> nodes,
                    std::span<float> out) const override {
    inner_->extract_rows(nodes, out);
  }
  std::size_t dims() const override { return inner_->dims(); }
  std::size_t num_nodes() const override { return inner_->num_nodes(); }
  std::size_t model_bytes() const override { return inner_->model_bytes(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<EmbeddingModel> inner_;
};

/// Counts publications; the first one (the forest phase's final
/// publish) arms the model, so only the insertion phase is slow.
struct ArmingSink : SnapshotSink {
  SlowModel* model = nullptr;
  std::size_t calls = 0;
  void on_snapshot(const EmbeddingModel&, const TrainStats&) override {
    ++calls;
    model->armed = true;
  }
};

TEST(TrainSequential, InsertionPublishesFollowTheCountOnly) {
  // The insertion phase publishes every snapshot_every_insertions
  // insertions and once at the end, however long an insertion takes:
  // StreamTrainer's wall-clock deadline does not apply to it.
  const LabeledGraph data = small_graph();
  auto publishes = [&](std::size_t every) {
    SequentialConfig cfg;
    cfg.train = small_config();
    cfg.initial_walks_per_node = 1;
    cfg.max_insertions = 16;
    cfg.snapshot_every_insertions = every;
    Rng rng(10);
    SlowModel model(make_model(ModelKind::kOselm, data.graph.num_nodes(),
                               cfg.train, rng));
    ArmingSink sink;
    sink.model = &model;
    cfg.pipeline.snapshot_sink = &sink;
    const SequentialResult result =
        train_sequential(model, data.graph, cfg, rng);
    EXPECT_TRUE(model.armed);
    EXPECT_EQ(result.insertions, 16u);
    EXPECT_EQ(result.stats.snapshots_published, sink.calls);
    return sink.calls;
  };
  const std::size_t final_only = publishes(0);
  EXPECT_EQ(publishes(8), final_only + 2);  // after insertions 8 and 16
}

TEST(TrainSequential, WorksForSgdBaselineToo) {
  const LabeledGraph data = small_graph();
  SequentialConfig cfg;
  cfg.train = small_config();
  cfg.max_insertions = 20;
  Rng rng(7);
  auto model = make_model(ModelKind::kOriginalSGD, data.graph.num_nodes(),
                          cfg.train, rng);
  const SequentialResult result =
      train_sequential(*model, data.graph, cfg, rng);
  EXPECT_EQ(result.insertions, 20u);
  EXPECT_GT(result.stats.num_contexts, 0u);
}

}  // namespace
}  // namespace seqge
