// Tests for binary model checkpointing: round trips, shape validation,
// corruption handling, and resumed-training equivalence.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>

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

/// True when both matrices hold the same float bits.
bool same_words(const MatrixF& a, const MatrixF& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
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
  const MatrixF beta_before = restored.beta_transposed();
  const MatrixF p_before = restored.covariance();
  EXPECT_THROW(load_model(half, restored), std::runtime_error);
  // A failed load leaves the model bit-unchanged.
  EXPECT_TRUE(same_words(restored.beta_transposed(), beta_before));
  EXPECT_TRUE(same_words(restored.covariance(), p_before));
}

/// A read-only streambuf over a string that cannot seek (tellg() == -1),
/// like a pipe: the parser cannot measure what is left up front.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(Checkpoint, TruncatedCovarianceOnUnseekableStreamLeavesModelUnchanged) {
  // Cut inside P: beta reads completely, then P runs out. The model
  // must keep its old beta as well as its old P.
  OselmSkipGram model = trained_model(10);
  std::stringstream ss;
  save_model(ss, model);
  std::string blob = ss.str();
  blob.resize(blob.size() - 8);
  UnseekableBuf buf(blob);
  std::istream is(&buf);
  ASSERT_EQ(is.tellg(), std::streampos(-1));

  Rng rng(11);
  OselmSkipGram::Options opts;
  opts.dims = 8;
  OselmSkipGram restored(20, opts, rng);
  const MatrixF beta_before = restored.beta_transposed();
  const MatrixF p_before = restored.covariance();
  EXPECT_THROW(load_model(is, restored), std::runtime_error);
  EXPECT_TRUE(same_words(restored.beta_transposed(), beta_before));
  EXPECT_TRUE(same_words(restored.covariance(), p_before));
}

/// Magic + dims + rows + kind, then `payload` bytes.
std::string raw_checkpoint(std::uint64_t dims, std::uint64_t rows,
                           char kind, std::size_t payload) {
  std::string out = "SEQGE1\n";
  out.append(reinterpret_cast<const char*>(&dims), 8);
  out.append(reinterpret_cast<const char*>(&rows), 8);
  out.push_back(kind);
  out.append(payload, '\0');
  return out;
}

/// Parses header and payload; returns the error message, or "" if the
/// bytes were accepted.
std::string parse_error(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    const CheckpointHeader h = read_checkpoint_header(ss);
    MatrixF beta;
    MatrixF p;
    read_checkpoint_payload(ss, h, beta, h.has_covariance ? &p : nullptr);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Checkpoint, WrappingSizesRejected) {
  // rows = dims = 2^32: rows * dims wraps to 0 in 64 bits.
  const std::uint64_t big = std::uint64_t{1} << 32;
  EXPECT_NE(parse_error(raw_checkpoint(big, big, 0, 0)), "");
  // rows * dims * 4 wraps.
  EXPECT_NE(parse_error(raw_checkpoint(4, std::uint64_t{1} << 62, 0, 0)),
            "");
}

TEST(Checkpoint, ZeroDimensionRejected) {
  EXPECT_NE(parse_error(raw_checkpoint(0, 5, 0, 0)), "");
  EXPECT_NE(parse_error(raw_checkpoint(4, 0, 0, 0)), "");
}

TEST(Checkpoint, UnknownPayloadKindRejected) {
  // A well-formed beta-only checkpoint whose kind byte is 7.
  std::string bytes = raw_checkpoint(2, 3, 0, 2 * 3 * 4);
  EXPECT_EQ(parse_error(bytes), "");
  bytes[7 + 16] = 7;
  EXPECT_NE(parse_error(bytes), "");
}

TEST(Checkpoint, PayloadLongerThanStreamRejectedBeforeAllocating) {
  // 4096 x 64 floats announced, 16 bytes present: the parser must say
  // so up front instead of allocating 1 MiB and running out mid-read.
  const std::string err = parse_error(raw_checkpoint(64, 4096, 0, 16));
  EXPECT_NE(err.find("longer than the stream"), std::string::npos) << err;
}

TEST(Checkpoint, StoreLoadRejectsBadHeaderAndPublishesNothing) {
  serve::ShardedEmbeddingStore store;
  std::stringstream ss(raw_checkpoint(0, 5, 0, 0));
  EXPECT_THROW(store.load(ss), std::runtime_error);
  EXPECT_EQ(store.version(), 0u);
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
