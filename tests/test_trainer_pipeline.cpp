// Tests for the batched training engine: train_batch semantics
// (default fallback == looped train_walk; every backend's batched
// override bit-identical to the fallback), train_all bit-identity
// across walker-thread counts, and early-stop truncation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "embedding/backend_registry.hpp"
#include "embedding/trainer.hpp"
#include "fpga/accelerator.hpp"
#include "graph/generators.hpp"
#include "linalg/kernels.hpp"
#include "sampling/negative_sampler.hpp"
#include "util/rng.hpp"
#include "walk/corpus.hpp"
#include "walk/walk_batch.hpp"

namespace seqge {
namespace {

LabeledGraph small_graph() {
  return generate_dcsbm(
      {.num_nodes = 80, .target_edges = 400, .num_classes = 3, .seed = 11});
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

/// Walks + a batch with per-walk seeds, as train_all packs
/// them (pre-sampling negatives when the mode shares them per walk).
struct BatchFixture {
  std::vector<std::vector<NodeId>> walks;
  std::vector<std::uint64_t> seeds;
  WalkBatch batch;

  BatchFixture(const Graph& graph, const TrainConfig& cfg,
               const NegativeSampler& sampler, NegativeMode mode,
               std::size_t num_walks) {
    Node2VecWalker<Graph> walker(graph, cfg.walk);
    Rng walk_rng(99);
    std::vector<NodeId> negs;
    for (std::size_t i = 0; i < num_walks; ++i) {
      walks.push_back(walker.walk(
          walk_rng, static_cast<NodeId>(i % graph.num_nodes())));
      seeds.push_back(derive_seed(1234, kTrainSeedStream, i));
      if (mode == NegativeMode::kPerWalk) {
        Rng nrng(seeds.back());
        sampler.sample_batch(nrng, cfg.negative_samples, walks.back()[0],
                             negs);
        batch.add_walk(walks.back(), negs, seeds.back());
      } else {
        batch.add_walk(walks.back(), {}, seeds.back());
      }
    }
  }
};

class TrainBatchMatchesLoop
    : public ::testing::TestWithParam<std::tuple<std::string, NegativeMode>> {
};

TEST_P(TrainBatchMatchesLoop, BatchedEqualsLoopedTrainWalk) {
  const auto& [backend, mode] = GetParam();
  const LabeledGraph data = small_graph();
  TrainConfig cfg = small_config();
  cfg.negative_mode = mode;
  const NegativeSampler sampler = NegativeSampler::from_degrees(data.graph);
  const BatchFixture fx(data.graph, cfg, sampler, mode, 12);

  Rng rng_a(7), rng_b(7);
  auto looped = make_backend(backend, data.graph.num_nodes(), cfg, rng_a);
  auto batched = make_backend(backend, data.graph.num_nodes(), cfg, rng_b);

  double loss_loop = 0.0;
  for (std::size_t i = 0; i < fx.walks.size(); ++i) {
    Rng rng(fx.seeds[i]);
    loss_loop += looped->train_walk(fx.walks[i], cfg.walk.window, sampler,
                                    cfg.negative_samples, mode, rng);
  }
  const double loss_batch = batched->train_batch(
      fx.batch, cfg.walk.window, sampler, cfg.negative_samples, mode);

  EXPECT_DOUBLE_EQ(loss_loop, loss_batch);
  EXPECT_DOUBLE_EQ(max_abs_diff(looped->extract_embedding(),
                                batched->extract_embedding()),
                   0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TrainBatchMatchesLoop,
    ::testing::Combine(::testing::Values("original-sgd", "oselm",
                                         "oselm-dataflow", "fpga"),
                       ::testing::Values(NegativeMode::kPerContext,
                                         NegativeMode::kPerWalk)),
    [](const auto& info) {
      return std::get<0>(info.param) == "original-sgd"
                 ? (std::get<1>(info.param) == NegativeMode::kPerWalk
                        ? std::string("sgd_perwalk")
                        : std::string("sgd_percontext"))
                 : std::get<0>(info.param) == "oselm"
                       ? (std::get<1>(info.param) == NegativeMode::kPerWalk
                              ? std::string("oselm_perwalk")
                              : std::string("oselm_percontext"))
                       : std::get<0>(info.param) == "oselm-dataflow"
                             ? (std::get<1>(info.param) ==
                                        NegativeMode::kPerWalk
                                    ? std::string("dataflow_perwalk")
                                    : std::string("dataflow_percontext"))
                             : (std::get<1>(info.param) ==
                                        NegativeMode::kPerWalk
                                    ? std::string("fpga_perwalk")
                                    : std::string("fpga_percontext"));
    });

// The FPGA's batched path must also *amortize*: one burst per batch
// moves each distinct row once, so simulated time drops versus looping
// train_walk over the same walks.
TEST(TrainBatchFpga, AmortizesSimulatedDma) {
  const LabeledGraph data = small_graph();
  TrainConfig cfg = small_config();
  cfg.negative_mode = NegativeMode::kPerWalk;
  const NegativeSampler sampler = NegativeSampler::from_degrees(data.graph);
  const BatchFixture fx(data.graph, cfg, sampler, cfg.negative_mode, 12);

  Rng rng_a(7), rng_b(7);
  auto looped = make_backend("fpga", data.graph.num_nodes(), cfg, rng_a);
  auto batched = make_backend("fpga", data.graph.num_nodes(), cfg, rng_b);

  for (std::size_t i = 0; i < fx.walks.size(); ++i) {
    Rng rng(fx.seeds[i]);
    looped->train_walk(fx.walks[i], cfg.walk.window, sampler,
                       cfg.negative_samples, cfg.negative_mode, rng);
  }
  batched->train_batch(fx.batch, cfg.walk.window, sampler,
                       cfg.negative_samples, cfg.negative_mode);

  const auto& accel_loop = dynamic_cast<const fpga::Accelerator&>(*looped);
  const auto& accel_batch = dynamic_cast<const fpga::Accelerator&>(*batched);
  EXPECT_EQ(accel_loop.walks_processed(), accel_batch.walks_processed());
  EXPECT_LT(accel_batch.simulated_seconds(),
            accel_loop.simulated_seconds());
}

// A model that only implements train_walk: the default train_batch must
// visit every walk with its own seed-derived RNG.
TEST(TrainBatchDefault, FallbackLoopsEveryWalk) {
  class CountingModel final : public EmbeddingModel {
   public:
    std::size_t calls = 0;
    double train_walk(std::span<const NodeId>, std::size_t,
                      const NegativeSampler&, std::size_t, NegativeMode,
                      Rng& rng) override {
      ++calls;
      return static_cast<double>(rng.next() % 1000);
    }
    [[nodiscard]] MatrixF extract_embedding() const override {
      return MatrixF(1, 1);
    }
    [[nodiscard]] std::size_t dims() const override { return 1; }
    [[nodiscard]] std::size_t num_nodes() const override { return 1; }
    [[nodiscard]] std::size_t model_bytes() const override { return 0; }
    [[nodiscard]] std::string name() const override { return "counting"; }
  };

  const LabeledGraph data = small_graph();
  const TrainConfig cfg = small_config();
  const NegativeSampler sampler = NegativeSampler::from_degrees(data.graph);
  const BatchFixture fx(data.graph, cfg, sampler, NegativeMode::kPerContext,
                        9);

  CountingModel model;
  const double loss_a = model.train_batch(fx.batch, cfg.walk.window, sampler,
                                          cfg.negative_samples,
                                          NegativeMode::kPerContext);
  EXPECT_EQ(model.calls, 9u);
  // Same batch again: seeds are per-walk, so the reported loss repeats.
  const double loss_b = model.train_batch(fx.batch, cfg.walk.window, sampler,
                                          cfg.negative_samples,
                                          NegativeMode::kPerContext);
  EXPECT_DOUBLE_EQ(loss_a, loss_b);
}

class PipelineBitIdentical
    : public ::testing::TestWithParam<std::tuple<std::string, NegativeMode>> {
};

TEST_P(PipelineBitIdentical, FourWalkerThreadsMatchSingleThread) {
  const auto& [backend, mode] = GetParam();
  const LabeledGraph data = small_graph();
  TrainConfig cfg = small_config();
  cfg.negative_mode = mode;

  auto run = [&](std::size_t threads) {
    Rng rng(cfg.seed);
    auto model = make_backend(backend, data.graph.num_nodes(), cfg, rng);
    PipelineConfig pipe;
    pipe.walker_threads = threads;
    pipe.batch_walks = 16;
    const TrainStats stats = train_all(*model, data.graph, cfg, rng, pipe);
    return std::make_pair(stats, model->extract_embedding());
  };

  const auto [stats_single, emb_single] = run(0);
  const auto [stats_piped, emb_piped] = run(4);

  EXPECT_EQ(stats_single.num_walks, stats_piped.num_walks);
  EXPECT_EQ(stats_single.num_contexts, stats_piped.num_contexts);
  EXPECT_EQ(stats_single.num_batches, stats_piped.num_batches);
  EXPECT_DOUBLE_EQ(stats_single.last_loss, stats_piped.last_loss);
  EXPECT_DOUBLE_EQ(max_abs_diff(emb_single, emb_piped), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PipelineBitIdentical,
    ::testing::Values(
        std::make_tuple(std::string("original-sgd"),
                        NegativeMode::kPerContext),
        std::make_tuple(std::string("oselm"), NegativeMode::kPerContext),
        std::make_tuple(std::string("oselm"), NegativeMode::kPerWalk),
        std::make_tuple(std::string("oselm-dataflow"),
                        NegativeMode::kPerWalk)),
    [](const auto& info) {
      std::string n = std::get<0>(info.param) +
                      (std::get<1>(info.param) == NegativeMode::kPerWalk
                           ? "_perwalk"
                           : "_percontext");
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(PipelineEarlyStop, CapTruncatesFinalBatch) {
  const LabeledGraph data = small_graph();
  const TrainConfig cfg = small_config();

  // Cap mid-batch (37 is not a multiple of batch_walks = 8): the final
  // batch must be truncated and nothing after it trained.
  PipelineConfig pipe;
  pipe.walker_threads = 4;
  pipe.batch_walks = 8;
  pipe.max_walks = 37;

  Rng rng(cfg.seed);
  auto model = make_backend("oselm", data.graph.num_nodes(), cfg, rng);
  const TrainStats stats = train_all(*model, data.graph, cfg, rng, pipe);
  EXPECT_EQ(stats.num_walks, 37u);
  EXPECT_EQ(stats.num_batches, 5u);  // 4 full batches of 8 + one of 5

  // Early stop must match the prefix of an uncapped single-thread run.
  Rng rng_full(cfg.seed);
  auto full = make_backend("oselm", data.graph.num_nodes(), cfg, rng_full);
  PipelineConfig inline_pipe;
  inline_pipe.batch_walks = 8;
  inline_pipe.max_walks = 37;
  const TrainStats stats_inline =
      train_all(*full, data.graph, cfg, rng_full, inline_pipe);
  EXPECT_EQ(stats_inline.num_walks, 37u);
  EXPECT_DOUBLE_EQ(max_abs_diff(model->extract_embedding(),
                                full->extract_embedding()),
                   0.0);
}

TEST(SequentialPipeline, BitIdenticalAcrossThreadCounts) {
  const LabeledGraph data = small_graph();
  SequentialConfig cfg;
  cfg.train = small_config();
  cfg.max_insertions = 30;

  auto run = [&](std::size_t threads) {
    SequentialConfig scfg = cfg;
    scfg.pipeline.walker_threads = threads;
    Rng rng(5);
    auto model =
        make_backend("oselm", data.graph.num_nodes(), scfg.train, rng);
    const SequentialResult r =
        train_sequential(*model, data.graph, scfg, rng);
    return std::make_pair(r, model->extract_embedding());
  };

  const auto [r_single, emb_single] = run(0);
  const auto [r_piped, emb_piped] = run(4);
  EXPECT_EQ(r_single.insertions, r_piped.insertions);
  EXPECT_EQ(r_single.stats.num_walks, r_piped.stats.num_walks);
  EXPECT_DOUBLE_EQ(max_abs_diff(emb_single, emb_piped), 0.0);
}

}  // namespace
}  // namespace seqge
