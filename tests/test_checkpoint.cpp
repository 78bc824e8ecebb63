// Tests for binary model checkpointing: round trips, shape validation,
// corruption handling, and resumed-training equivalence.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "embedding/checkpoint.hpp"
#include "embedding/oselm_dataflow.hpp"
#include "embedding/oselm_skipgram.hpp"
#include "embedding/skipgram_sgd.hpp"
#include "fpga/accelerator.hpp"
#include "fpga/config.hpp"
#include "linalg/kernels.hpp"
#include "sampling/negative_sampler.hpp"
#include "serve/sharded_query.hpp"
#include "util/rng.hpp"

namespace seqge {
namespace {

OselmSkipGram trained_model(std::uint64_t seed) {
  Rng rng(seed);
  OselmSkipGram::Options opts;
  opts.dims = 8;
  OselmSkipGram model(20, opts, rng);
  const std::vector<std::uint64_t> counts(20, 1);
  NegativeSampler sampler(counts);
  std::vector<NodeId> walk = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (int i = 0; i < 5; ++i) {
    model.train_walk(walk, 4, sampler, 3, NegativeMode::kPerContext, rng);
  }
  return model;
}

TEST(Checkpoint, OselmRoundTrip) {
  OselmSkipGram model = trained_model(1);
  std::stringstream ss;
  save_model(ss, model);

  Rng rng(99);
  OselmSkipGram::Options opts;
  opts.dims = 8;
  OselmSkipGram restored(20, opts, rng);
  load_model(ss, restored);

  EXPECT_DOUBLE_EQ(
      max_abs_diff(model.beta_transposed(), restored.beta_transposed()),
      0.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(model.covariance(), restored.covariance()),
                   0.0);
}

TEST(Checkpoint, DataflowRoundTrip) {
  Rng rng(2);
  OselmSkipGramDataflow::Options opts;
  opts.dims = 4;
  OselmSkipGramDataflow model(10, opts, rng);
  model.train_walk(std::vector<NodeId>{0, 1, 2, 3, 4}, 3,
                   std::vector<NodeId>{8, 9});
  std::stringstream ss;
  save_model(ss, model);

  Rng rng2(3);
  OselmSkipGramDataflow restored(10, opts, rng2);
  load_model(ss, restored);
  EXPECT_DOUBLE_EQ(
      max_abs_diff(model.beta_transposed(), restored.beta_transposed()),
      0.0);
}

TEST(Checkpoint, SgdSavesEmbedding) {
  Rng rng(4);
  SkipGramSGD model(12, 6, rng);
  std::stringstream ss;
  save_model(ss, model);
  const CheckpointHeader h = read_checkpoint_header(ss);
  EXPECT_EQ(h.dims, 6u);
  EXPECT_EQ(h.rows, 12u);
  EXPECT_FALSE(h.has_covariance);
  MatrixF beta;
  read_checkpoint_payload(ss, h, beta, nullptr);
  EXPECT_DOUBLE_EQ(max_abs_diff(beta, model.embeddings()), 0.0);
}

TEST(Checkpoint, ShapeMismatchRejected) {
  OselmSkipGram model = trained_model(5);
  std::stringstream ss;
  save_model(ss, model);

  Rng rng(6);
  OselmSkipGram::Options opts;
  opts.dims = 16;  // wrong dims
  OselmSkipGram wrong(20, opts, rng);
  EXPECT_THROW(load_model(ss, wrong), std::runtime_error);
}

TEST(Checkpoint, GarbageRejected) {
  std::stringstream ss("definitely not a checkpoint");
  Rng rng(7);
  OselmSkipGram::Options opts;
  opts.dims = 8;
  OselmSkipGram model(20, opts, rng);
  EXPECT_THROW(load_model(ss, model), std::runtime_error);
}

TEST(Checkpoint, TruncatedPayloadRejected) {
  OselmSkipGram model = trained_model(8);
  std::stringstream ss;
  save_model(ss, model);
  std::string blob = ss.str();
  blob.resize(blob.size() / 2);
  std::stringstream half(blob);
  Rng rng(9);
  OselmSkipGram::Options opts;
  opts.dims = 8;
  OselmSkipGram restored(20, opts, rng);
  EXPECT_THROW(load_model(half, restored), std::runtime_error);
}

namespace {

/// A lightly trained FPGA accelerator (Q8.24 device weights).
fpga::Accelerator trained_accelerator(std::size_t num_nodes,
                                      const fpga::AcceleratorConfig& cfg,
                                      std::uint64_t seed) {
  Rng rng(seed);
  fpga::Accelerator accel(num_nodes, cfg, rng);
  const std::vector<std::uint64_t> counts(num_nodes, 1);
  NegativeSampler sampler(counts);
  std::vector<NodeId> walk(cfg.walk_length);
  for (int w = 0; w < 40; ++w) {
    for (auto& v : walk) {
      v = static_cast<NodeId>(rng.bounded(num_nodes));
    }
    accel.train_walk(walk, cfg.window, sampler, cfg.negative_samples,
                     NegativeMode::kPerWalk, rng);
  }
  return accel;
}

}  // namespace

TEST(Checkpoint, FpgaRoundTripIsLossless) {
  fpga::AcceleratorConfig cfg = fpga::AcceleratorConfig::for_dims(8);
  cfg.walk_length = 12;
  cfg.window = 4;
  cfg.negative_samples = 3;
  const fpga::Accelerator accel = trained_accelerator(34, cfg, 21);

  std::stringstream ss;
  save_model(ss, accel);
  const CheckpointHeader h = read_checkpoint_header(ss);
  EXPECT_EQ(h.dims, 8u);
  EXPECT_EQ(h.rows, 34u);
  EXPECT_FALSE(h.has_covariance);

  ss.seekg(0);
  Rng rng(99);  // different init — must be fully overwritten by the load
  fpga::Accelerator restored(34, cfg, rng);
  load_model(ss, restored);
  // Q8.24 -> float -> Q8.24 for trained-scale values round-trips to
  // within one float32 ulp of the fixed-point grid.
  EXPECT_LE(max_abs_diff(restored.beta_as_float(), accel.beta_as_float()),
            1e-5);
  EXPECT_LE(max_abs_diff(restored.extract_embedding(),
                         accel.extract_embedding()),
            1e-5);
}

TEST(Checkpoint, FpgaCheckpointServedThroughOselmAgreesOnKnn) {
  // The serving handoff: the FPGA backend trains online and checkpoints
  // its Q8.24 weights; a CPU-side oselm model loads the (beta-only)
  // checkpoint and a query engine serves k-NN from either. Results must
  // agree within quantization tolerance.
  constexpr std::size_t kNodes = 60;
  fpga::AcceleratorConfig cfg = fpga::AcceleratorConfig::for_dims(16);
  cfg.walk_length = 16;
  cfg.window = 4;
  cfg.negative_samples = 5;
  const fpga::Accelerator accel = trained_accelerator(kNodes, cfg, 31);

  std::stringstream ss;
  save_model(ss, accel);

  Rng rng(7);
  OselmSkipGram::Options opts;
  opts.dims = 16;
  opts.mu = cfg.mu;
  OselmSkipGram oselm(kNodes, opts, rng);
  // Beta-only checkpoint: covariance requirement must be relaxed…
  std::stringstream strict(ss.str());
  EXPECT_THROW(load_model(strict, oselm), std::runtime_error);
  // …and the relaxed load accepts it.
  std::stringstream relaxed(ss.str());
  load_model(relaxed, oselm, /*require_covariance=*/false);

  serve::ShardedEmbeddingStore fpga_store;
  fpga_store.publish(accel.extract_embedding());
  serve::ShardedEmbeddingStore cpu_store;
  cpu_store.publish(oselm.extract_embedding());

  const serve::ShardedQueryEngine fpga_engine(fpga_store);
  const serve::ShardedQueryEngine cpu_engine(cpu_store);
  double recall_sum = 0.0;
  for (NodeId u = 0; u < kNodes; ++u) {
    recall_sum += serve::recall_at_k(fpga_engine.topk(u, 10),
                                     cpu_engine.topk(u, 10));
  }
  EXPECT_GE(recall_sum / kNodes, 0.9);
}

TEST(Checkpoint, ResumedTrainingMatchesUninterrupted) {
  // Train 4 walks straight vs train 2, checkpoint, restore, train 2 —
  // identical final state (the paper's power-cycle resilience story).
  const std::vector<NodeId> walk = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::uint64_t> counts(20, 1);
  NegativeSampler sampler(counts);
  OselmSkipGram::Options opts;
  opts.dims = 8;

  Rng rng_a(11);
  OselmSkipGram straight(20, opts, rng_a);
  {
    Rng step(42);
    for (int i = 0; i < 4; ++i) {
      straight.train_walk(walk, 4, sampler, 3, NegativeMode::kPerContext,
                          step);
    }
  }

  Rng rng_b(11);
  OselmSkipGram first_half(20, opts, rng_b);
  Rng step(42);
  for (int i = 0; i < 2; ++i) {
    first_half.train_walk(walk, 4, sampler, 3, NegativeMode::kPerContext,
                          step);
  }
  std::stringstream ss;
  save_model(ss, first_half);
  Rng rng_c(77);
  OselmSkipGram resumed(20, opts, rng_c);
  load_model(ss, resumed);
  for (int i = 0; i < 2; ++i) {
    resumed.train_walk(walk, 4, sampler, 3, NegativeMode::kPerContext,
                       step);
  }
  EXPECT_DOUBLE_EQ(max_abs_diff(straight.beta_transposed(),
                                resumed.beta_transposed()),
                   0.0);
}

}  // namespace
}  // namespace seqge
