// Tests for the FPGA substrate: the Q8.24 instantiation of the
// Algorithm-2 core against the float one and against golden words, the
// DMA/performance models against the paper's measured latencies, the
// resource model against Table 6, and the host driver (Accelerator),
// including unlearning on the device.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "embedding/backend_registry.hpp"
#include "embedding/oselm_dataflow.hpp"
#include "embedding/trainer.hpp"
#include "eval/node_classification.hpp"
#include "fpga/accelerator.hpp"
#include "fpga/dma_model.hpp"
#include "fpga/perf_model.hpp"
#include "fpga/resource_model.hpp"
#include "graph/generators.hpp"
#include "graph/sliding_window.hpp"
#include "linalg/kernels.hpp"
#include "walk/walk_batch.hpp"
#include "walk_oracle.hpp"

namespace seqge::fpga {
namespace {

AcceleratorConfig tiny_config() {
  AcceleratorConfig cfg;
  cfg.dims = 8;
  cfg.parallelism = 8;
  cfg.walk_length = 12;
  cfg.window = 4;
  cfg.negative_samples = 3;
  return cfg;
}

TEST(AcceleratorConfig, DefaultParallelismMapping) {
  EXPECT_EQ(AcceleratorConfig::default_parallelism(32), 32u);
  EXPECT_EQ(AcceleratorConfig::default_parallelism(64), 48u);
  EXPECT_EQ(AcceleratorConfig::default_parallelism(96), 64u);
  const auto cfg = AcceleratorConfig::for_dims(64);
  EXPECT_EQ(cfg.parallelism, 48u);
}

TEST(AcceleratorConfig, ContextArithmeticMatchesPaper) {
  AcceleratorConfig cfg;  // l=80 w=8 ns=10
  EXPECT_EQ(cfg.contexts_per_walk(), 73u);
  EXPECT_EQ(cfg.samples_per_context(), 7u * 11u);
  EXPECT_EQ(cfg.max_slots(), 90u);
}

PlCore make_core(const AcceleratorConfig& cfg) {
  return PlCore(cfg.max_slots(),
                {cfg.dims, cfg.mu, cfg.p0, cfg.reset_p_per_walk});
}

/// FNV-1a over raw Q8.24 words (8 little-endian bytes each).
struct WordHash {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::span<const CoreFixed> words) {
    for (CoreFixed w : words) {
      const auto u = static_cast<std::uint64_t>(w.raw());
      for (int i = 0; i < 8; ++i) {
        h ^= (u >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    }
  }
};

/// The PL core with every BRAM slot loaded from a float dataflow model
/// over max_slots() nodes (node id = slot id), after five walks through
/// both; the walks' shared negatives are the last three slots.
struct TinyWalks {
  AcceleratorConfig cfg = tiny_config();
  Rng rng{1};
  OselmSkipGramDataflow ref{
      cfg.max_slots(), {cfg.dims, cfg.mu, cfg.p0, cfg.reset_p_per_walk},
      rng};
  PlCore core = make_core(cfg);

  TinyWalks() {
    const std::size_t n_nodes = cfg.max_slots();
    std::vector<CoreFixed> row(cfg.dims);
    for (std::size_t v = 0; v < n_nodes; ++v) {
      auto src = ref.beta_transposed().row(v);
      for (std::size_t d = 0; d < cfg.dims; ++d) {
        row[d] = CoreFixed::from_double(src[d]);
      }
      core.load_beta_slot(v, row);
    }
    Rng wrng(7);
    for (int iter = 0; iter < 5; ++iter) {
      std::vector<NodeId> walk(cfg.walk_length);
      for (auto& v : walk) {
        v = static_cast<NodeId>(wrng.bounded(n_nodes - 3));
      }
      const std::vector<NodeId> negs = {
          static_cast<NodeId>(n_nodes - 3), static_cast<NodeId>(n_nodes - 2),
          static_cast<NodeId>(n_nodes - 1)};
      ref.train_walk(walk, cfg.window, negs);
      core.train_walk(walk, cfg.window, negs);
    }
  }
};

TEST(PlCore, MatchesFloatDataflowReference) {
  // Same walks, same negatives, same initial weights: the Q8.24
  // instantiation must track the float one within quantization
  // tolerance.
  const TinyWalks run;
  double max_diff = 0.0;
  for (std::size_t v = 0; v < run.cfg.max_slots(); ++v) {
    auto fref = run.ref.beta_transposed().row(v);
    auto fcore = run.core.beta_slot(v);
    for (std::size_t d = 0; d < run.cfg.dims; ++d) {
      max_diff = std::max(
          max_diff, std::abs(fcore[d].to_double() -
                             static_cast<double>(fref[d])));
    }
  }
  EXPECT_LT(max_diff, 1e-3)
      << "fixed-point drift vs float reference too large";
}

TEST(PlCore, MacCountMatchesOpCountFormula) {
  // The cycle model charges PerfModel::context_ops() MACs per context
  // (3N^2 + 2NS + 3N). On a walk whose negatives never equal a
  // positive, every context runs all S samples, so the core's own
  // count must equal it exactly.
  const AcceleratorConfig cfg = tiny_config();
  PlCore core = make_core(cfg);
  std::vector<NodeId> walk(cfg.walk_length);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    walk[i] = static_cast<NodeId>(i % 4);
  }
  const std::vector<NodeId> negs = {5, 6, 7};
  ASSERT_EQ(negs.size(), cfg.negative_samples);
  core.train_walk(walk, cfg.window, negs);

  const std::uint64_t contexts = cfg.walk_length - cfg.window + 1;
  EXPECT_EQ(core.contexts_processed(), contexts);
  EXPECT_EQ(core.mac_count(), contexts * PerfModel(cfg).context_ops());
  // Exact count of the retired HlsCore on this walk: 9 contexts x
  // (3N^2 + 3N) + 108 samples x 2N.
  EXPECT_EQ(core.mac_count(), 3672u);
}

TEST(PlCore, RejectsBadSlotAccess) {
  const AcceleratorConfig cfg = tiny_config();
  PlCore core = make_core(cfg);
  std::vector<CoreFixed> row(cfg.dims);
  EXPECT_THROW(core.load_beta_slot(cfg.max_slots(), row),
               std::invalid_argument);
  std::vector<CoreFixed> short_row(cfg.dims - 1);
  EXPECT_THROW(core.load_beta_slot(0, short_row), std::invalid_argument);
  std::vector<CoreFixed> bad_p(3);
  EXPECT_THROW(core.load_p(bad_p), std::invalid_argument);
  EXPECT_THROW((void)core.beta_slot(cfg.max_slots()), std::out_of_range);
}

// --- Q8.24 golden words -------------------------------------------------
// FNV-1a hashes of every raw beta and P word, recorded from the
// dedicated Q8.24 core that preceded the shared Algorithm-2 template.
// Integer arithmetic makes them identical on every compiler and ISA; a
// change here means the PL numerics changed.

TEST(PlCore, GoldenWordsOnTinyWalks) {
  const TinyWalks run;
  WordHash hash;
  for (std::size_t v = 0; v < run.cfg.max_slots(); ++v) {
    hash.add(run.core.beta_slot(v));
  }
  hash.add(run.core.covariance().flat());
  EXPECT_EQ(hash.h, 0x0e55a88d4d330fbbull);
  EXPECT_EQ(run.core.mac_count(), 18360u);
  EXPECT_EQ(run.core.contexts_processed(), 45u);
}

/// Three train_batch calls of 24 node2vec walks on a small DC-SBM
/// graph: even walks carry packed negatives, odd ones draw from their
/// seed, and one walk per batch is shorter than the window. The walks
/// come from walk_oracle.hpp, so the words track the core, not the
/// library walker's RNG stream.
struct GoldenBatchRun {
  std::uint64_t hash = 0;
  std::uint64_t macs = 0;
  std::uint64_t contexts = 0;
  std::uint64_t walks = 0;
};

GoldenBatchRun golden_batch_run(bool reset_p_per_walk) {
  AcceleratorConfig cfg = tiny_config();
  cfg.reset_p_per_walk = reset_p_per_walk;
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 60, .target_edges = 300, .num_classes = 3, .seed = 5});
  Rng rng(11);
  Accelerator accel(data.graph.num_nodes(), cfg, rng);
  Node2VecParams wp;
  wp.walk_length = cfg.walk_length;
  wp.window = cfg.window;
  const NegativeSampler sampler = NegativeSampler::from_degrees(data.graph);
  for (int b = 0; b < 3; ++b) {
    WalkBatch batch;
    std::vector<NodeId> negs;
    for (std::size_t i = 0; i < 24; ++i) {
      auto walk = test::reference_walk(data.graph, wp, rng,
                                       static_cast<NodeId>((b * 24 + i) % 60));
      if (i == 5) walk.resize(cfg.window - 1);
      if (i % 2 == 0) {
        sampler.sample_batch(rng, cfg.negative_samples, walk[0], negs);
        batch.add_walk(walk, negs, rng.next());
      } else {
        batch.add_walk(walk, {}, rng.next());
      }
    }
    accel.train_batch(batch, cfg.window, sampler, cfg.negative_samples,
                      NegativeMode::kPerWalk);
  }
  WordHash hash;
  hash.add(accel.dram_beta());
  hash.add(accel.core().covariance().flat());
  return {hash.h, accel.core().mac_count(),
          accel.core().contexts_processed(), accel.walks_processed()};
}

TEST(Accelerator, GoldenWordsTrainBatchResetP) {
  const GoldenBatchRun run = golden_batch_run(true);
  EXPECT_EQ(run.hash, 0xa8a2c6c8bfb3d976ull);
  EXPECT_EQ(run.macs, 251368u);
  EXPECT_EQ(run.contexts, 621u);
  EXPECT_EQ(run.walks, 69u);
}

TEST(Accelerator, GoldenWordsTrainBatchPersistentP) {
  const GoldenBatchRun run = golden_batch_run(false);
  EXPECT_EQ(run.hash, 0x7964043a43d05bddull);
  EXPECT_EQ(run.macs, 251368u);
  EXPECT_EQ(run.contexts, 621u);
  EXPECT_EQ(run.walks, 69u);
}

TEST(DmaModel, LatencyPlusBandwidth) {
  DmaModel dma(2000.0, 1.0);
  const DmaTransfer t = dma.transfer(20000);
  EXPECT_EQ(t.bytes, 20000u);
  EXPECT_DOUBLE_EQ(t.microseconds, 1.0 + 10.0);
}

TEST(PerfModel, ReproducesPaperTable3FpgaRow) {
  // Paper: 0.777 / 0.878 / 0.985 ms per walk at dims 32 / 64 / 96.
  const double expected[] = {0.777, 0.878, 0.985};
  const std::size_t dims[] = {32, 64, 96};
  for (int i = 0; i < 3; ++i) {
    const PerfModel pm(AcceleratorConfig::for_dims(dims[i]));
    const WalkTiming t = pm.walk_timing();
    EXPECT_NEAR(t.total_us / 1000.0, expected[i], expected[i] * 0.02)
        << "dims " << dims[i];
  }
}

TEST(PerfModel, MonotonicInDims) {
  double prev = 0.0;
  for (std::size_t dims : {16, 32, 48, 64, 80, 96, 128}) {
    AcceleratorConfig cfg = AcceleratorConfig::for_dims(dims);
    const PerfModel pm(cfg);
    const double t = pm.walk_timing().total_us;
    EXPECT_GT(t, prev) << "dims " << dims;
    prev = t;
  }
}

TEST(PerfModel, MoreLanesAreFaster) {
  AcceleratorConfig slow = AcceleratorConfig::for_dims(64);
  slow.parallelism = 16;
  AcceleratorConfig fast = AcceleratorConfig::for_dims(64);
  fast.parallelism = 64;
  EXPECT_GT(PerfModel(slow).walk_timing().compute_us,
            PerfModel(fast).walk_timing().compute_us);
}

TEST(PerfModel, ShortWalkCostsLess) {
  const PerfModel pm(AcceleratorConfig::for_dims(32));
  const WalkTiming full = pm.walk_timing();
  const WalkTiming half = pm.walk_timing(36, 45);
  EXPECT_LT(half.total_us, full.total_us);
  EXPECT_LT(half.bytes_in, full.bytes_in);
}

TEST(ResourceModel, CalibratedPointsMatchTable6) {
  const ResourceModel rm;
  const DeviceSpec& dev = rm.device();

  struct Expected {
    std::size_t dims;
    std::size_t bram36, dsp, ff, lut;
    double bram_pct, dsp_pct, ff_pct, lut_pct;
  };
  const Expected rows[] = {
      {32, 183, 1379, 48609, 53330, 58.65, 79.80, 10.55, 23.15},
      {64, 271, 1552, 77584, 87901, 86.86, 89.81, 16.84, 38.15},
      {96, 272, 1573, 86081, 108639, 87.18, 91.03, 18.68, 47.15},
  };
  for (const auto& row : rows) {
    const auto usage = rm.estimate(AcceleratorConfig::for_dims(row.dims));
    EXPECT_TRUE(usage.calibrated);
    EXPECT_EQ(usage.bram36, row.bram36);
    EXPECT_EQ(usage.dsp, row.dsp);
    EXPECT_EQ(usage.ff, row.ff);
    EXPECT_EQ(usage.lut, row.lut);
    EXPECT_NEAR(usage.bram_pct(dev), row.bram_pct, 0.05);
    EXPECT_NEAR(usage.dsp_pct(dev), row.dsp_pct, 0.05);
    EXPECT_NEAR(usage.ff_pct(dev), row.ff_pct, 0.05);
    EXPECT_NEAR(usage.lut_pct(dev), row.lut_pct, 0.05);
    EXPECT_TRUE(usage.fits(dev));
  }
}

TEST(ResourceModel, StructuralEstimateScalesWithParallelism) {
  const ResourceModel rm;
  AcceleratorConfig small = tiny_config();
  AcceleratorConfig big = tiny_config();
  big.parallelism = 32;
  const auto us = rm.structural_estimate(small);
  const auto ub = rm.structural_estimate(big);
  EXPECT_LT(us.dsp, ub.dsp);
  EXPECT_LE(us.bram36, ub.bram36);
  EXPECT_FALSE(us.calibrated);
}

TEST(ResourceModel, StructuralInRightBallparkAtCalibrationPoints) {
  // The structural model is an estimate; require it within 2x of the
  // synthesized reality for DSP and BRAM.
  const ResourceModel rm;
  for (std::size_t dims : {32, 64, 96}) {
    const auto cfg = AcceleratorConfig::for_dims(dims);
    const auto cal = ResourceModel::calibrated_point(cfg).value();
    const auto est = rm.structural_estimate(cfg);
    EXPECT_GT(est.dsp, cal.dsp / 2);
    EXPECT_LT(est.dsp, cal.dsp * 2);
    EXPECT_GT(est.bram36, cal.bram36 / 4);
    EXPECT_LT(est.bram36, cal.bram36 * 4);
  }
}

TEST(Accelerator, TrainsAndAccumulatesSimTime) {
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 80, .target_edges = 400, .num_classes = 3, .seed = 41});
  AcceleratorConfig cfg = tiny_config();
  Rng rng(42);
  Accelerator accel(data.graph.num_nodes(), cfg, rng);

  TrainConfig tcfg;
  tcfg.dims = cfg.dims;
  tcfg.walk.walk_length = cfg.walk_length;
  tcfg.walk.window = cfg.window;
  tcfg.negative_samples = cfg.negative_samples;
  tcfg.walks_per_node = 2;

  const MatrixF before = accel.extract_embedding();
  const TrainStats stats = train_all(accel, data.graph, tcfg, rng);
  const MatrixF after = accel.extract_embedding();

  EXPECT_GT(max_abs_diff(before, after), 1e-5);
  EXPECT_EQ(accel.walks_processed(), stats.num_walks);
  EXPECT_GT(accel.simulated_seconds(), 0.0);

  // Simulated time must be consistent with the perf model.
  const PerfModel pm(cfg);
  const double per_walk_us = pm.walk_timing().total_us;
  EXPECT_LE(accel.simulated_seconds() * 1e6,
            per_walk_us * static_cast<double>(stats.num_walks) + 1.0);
}

TEST(Accelerator, WindowMismatchThrows) {
  AcceleratorConfig cfg = tiny_config();
  Rng rng(1);
  Accelerator accel(20, cfg, rng);
  const std::vector<std::uint64_t> counts(20, 1);
  NegativeSampler sampler(counts);
  std::vector<NodeId> walk(cfg.walk_length, 0);
  EXPECT_THROW(accel.train_walk(walk, cfg.window + 1, sampler, 2,
                                NegativeMode::kPerWalk, rng),
               std::invalid_argument);
}

TEST(Accelerator, LearnsUsableEmbedding) {
  const LabeledGraph data = make_karate_club();
  AcceleratorConfig cfg;
  cfg.dims = 16;
  cfg.parallelism = 16;
  cfg.walk_length = 30;
  cfg.window = 8;
  cfg.negative_samples = 5;
  Rng rng(7);
  Accelerator accel(data.graph.num_nodes(), cfg, rng);

  TrainConfig tcfg;
  tcfg.dims = cfg.dims;
  tcfg.walk.walk_length = cfg.walk_length;
  tcfg.walk.window = cfg.window;
  tcfg.negative_samples = cfg.negative_samples;
  tcfg.walks_per_node = 20;
  train_all(accel, data.graph, tcfg, rng);

  // The two faction leaders should be far apart; a leader and a member
  // of its own faction close.
  const MatrixF emb = accel.extract_embedding();
  const double cross = cosine_similarity(emb.row(0), emb.row(33));
  const double within = cosine_similarity(emb.row(0), emb.row(1));
  EXPECT_GT(within, cross);
}

// --- unlearning on the device -------------------------------------------

/// One kPerWalk-packed walk of 12 consecutive node ids starting at
/// `first`, with the next three ids as its shared negatives.
WalkBatch consecutive_walk(NodeId first) {
  std::vector<NodeId> walk(12);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    walk[i] = first + static_cast<NodeId>(i);
  }
  const std::vector<NodeId> negs = {first + 12, first + 13, first + 14};
  WalkBatch batch;
  batch.add_walk(walk, negs, 0);
  return batch;
}

std::vector<CoreFixed> words(std::span<const CoreFixed> s) {
  return {s.begin(), s.end()};
}

double max_word_diff(std::span<const CoreFixed> a,
                     std::span<const CoreFixed> b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i].to_double() - b[i].to_double()));
  }
  return m;
}

class AcceleratorUnlearning : public ::testing::TestWithParam<bool> {};

TEST_P(AcceleratorUnlearning, UntrainRestoresBetaWithinTolerance) {
  AcceleratorConfig cfg = tiny_config();
  cfg.reset_p_per_walk = GetParam();
  Rng rng(31);
  Accelerator accel(40, cfg, rng);
  const std::vector<std::uint64_t> counts(40, 1);
  const NegativeSampler sampler(counts);
  const std::size_t ns = cfg.negative_samples;
  accel.train_batch(consecutive_walk(10), cfg.window, sampler, ns,
                    NegativeMode::kPerWalk);
  const auto beta_before = words(accel.dram_beta());
  const auto p_before = words(accel.core().covariance().flat());

  // The walk overlaps the previous one on nodes 20..24.
  const WalkBatch batch = consecutive_walk(20);
  accel.train_batch(batch, cfg.window, sampler, ns, NegativeMode::kPerWalk);
  ASSERT_GT(max_word_diff(accel.dram_beta(), beta_before), 1e-5);
  const double sim_us = accel.simulated_seconds() * 1e6;
  const std::uint64_t walks = accel.walks_processed();
  const auto p_trained = words(accel.core().covariance().flat());

  ASSERT_TRUE(accel.untrain_batch(batch, cfg.window, sampler, ns,
                                  NegativeMode::kPerWalk));
  // The float mirror's O(mu^2) bound (DataflowUnlearning) plus Q8.24
  // quantization.
  EXPECT_LE(max_word_diff(accel.dram_beta(), beta_before), 1e-4 + 1e-6);
  if (cfg.reset_p_per_walk) {
    // The walk trained against p0 * I: the mirror uses ph = p0 H in
    // closed form and leaves the transient P alone.
    EXPECT_EQ(words(accel.core().covariance().flat()), p_trained);
  } else {
    EXPECT_LE(max_word_diff(accel.core().covariance().flat(), p_before),
              1e-4 + 1e-6);
  }
  // Charged as one forward walk of the same shape; not a trained walk.
  EXPECT_NEAR(accel.simulated_seconds() * 1e6 - sim_us,
              accel.last_walk_timing().total_us, 1e-6);
  EXPECT_GT(accel.last_walk_timing().total_us, 0.0);
  EXPECT_EQ(accel.walks_processed(), walks);
}

INSTANTIATE_TEST_SUITE_P(ResetP, AcceleratorUnlearning,
                         ::testing::Values(true, false));

TEST(PlCore, UntrainGuardLeavesWordsUnchanged) {
  // The core's own promise, BRAM included: a guard that fires at the
  // sixth context discards the five contexts' accumulated deltas.
  AcceleratorConfig cfg = tiny_config();
  cfg.reset_p_per_walk = false;
  PlCore core = make_core(cfg);
  for (std::size_t slot = 0; slot < cfg.max_slots(); ++slot) {
    const std::vector<CoreFixed> row(
        cfg.dims, CoreFixed::from_double(slot == 5 ? 2.0 : 0.05));
    core.load_beta_slot(slot, row);
  }
  std::vector<CoreFixed> p(cfg.dims * cfg.dims);
  for (std::size_t i = 0; i < cfg.dims; ++i) {
    p[i * cfg.dims + i] = CoreFixed::from_double(-100.0);
  }
  core.load_p(p);
  const auto beta_before = words(core.beta_transposed().flat());
  std::vector<NodeId> walk(cfg.walk_length);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    walk[i] = static_cast<NodeId>(i);
  }
  const std::vector<NodeId> negs = {12, 13, 14};
  EXPECT_FALSE(core.untrain_walk(walk, cfg.window, negs));
  EXPECT_EQ(words(core.beta_transposed().flat()), beta_before);
  EXPECT_EQ(words(core.covariance().flat()), p);
}

TEST(AcceleratorUntrain, GuardFailureChangesNoDeviceWord) {
  AcceleratorConfig cfg = tiny_config();
  cfg.reset_p_per_walk = false;  // the mirror reads P from BRAM
  Rng rng(37);
  Accelerator accel(40, cfg, rng);
  const std::vector<std::uint64_t> counts(40, 1);
  const NegativeSampler sampler(counts);
  const std::size_t ns = cfg.negative_samples;
  const WalkBatch batch = consecutive_walk(0);
  accel.train_batch(batch, cfg.window, sampler, ns, NegativeMode::kPerWalk);

  // An indefinite P = -100 I keeps 1 + H P H^T near 1 for the trained
  // weights, but node 5's large row drives it far below the guard at
  // the sixth context — after five contexts have accumulated deltas.
  MatrixF beta = accel.beta_as_float();
  for (float& v : beta.row(5)) v = 2.0f;
  accel.load_beta(beta);
  std::vector<CoreFixed> p(cfg.dims * cfg.dims);
  for (std::size_t i = 0; i < cfg.dims; ++i) {
    p[i * cfg.dims + i] = CoreFixed::from_double(-100.0);
  }
  accel.core().load_p(p);
  const auto beta_before = words(accel.dram_beta());
  const auto p_before = words(accel.core().covariance().flat());

  EXPECT_FALSE(accel.untrain_batch(batch, cfg.window, sampler, ns,
                                   NegativeMode::kPerWalk));
  EXPECT_EQ(words(accel.dram_beta()), beta_before);
  EXPECT_EQ(words(accel.core().covariance().flat()), p_before);
}

TEST(AcceleratorUntrain, RequiresPackedNegatives) {
  AcceleratorConfig cfg = tiny_config();
  Rng rng(41);
  Accelerator accel(40, cfg, rng);
  const std::vector<std::uint64_t> counts(40, 1);
  const NegativeSampler sampler(counts);
  std::vector<NodeId> walk(cfg.walk_length);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    walk[i] = static_cast<NodeId>(i);
  }
  WalkBatch batch;
  batch.add_walk(walk, {}, 5);  // negatives drawn from the seed stream
  accel.train_batch(batch, cfg.window, sampler, cfg.negative_samples,
                    NegativeMode::kPerWalk);
  const auto beta_before = words(accel.dram_beta());
  EXPECT_FALSE(accel.untrain_batch(batch, cfg.window, sampler,
                                   cfg.negative_samples,
                                   NegativeMode::kPerWalk));
  EXPECT_EQ(words(accel.dram_beta()), beta_before);
}

TEST(AcceleratorUntrain, StreamTrainerUnlearnsRecentDeletions) {
  // Before the fpga backend could reverse a walk, every deletion here
  // took the re-train fallback (fallback share 1).
  StreamConfig cfg;
  cfg.train.dims = 8;
  cfg.train.negative_samples = 2;
  cfg.train.walk.window = 2;
  cfg.train.walk.walk_length = 4;
  constexpr std::size_t kNodes = 24;
  SlidingWindowGraph graph(kNodes);
  Rng mrng(43);
  auto model = make_backend("fpga", kNodes, cfg.train, mrng);
  Rng srng(44);
  StreamTrainer trainer(*model, graph, cfg, srng);
  for (NodeId u = 0; u + 1 < kNodes; ++u) {
    ASSERT_NE(trainer.insert(u, u + 1, 1.0f, u),
              SlidingWindowGraph::kInvalidToken);
  }
  for (NodeId u = 20; u-- > 10;) ASSERT_TRUE(trainer.remove(u, u + 1));
  const StreamStats& st = trainer.stats();
  EXPECT_EQ(st.edges_deleted, 10u);
  EXPECT_GT(st.walks_unlearned, 0u);
  EXPECT_LT(st.fallback_retrains, st.edges_deleted);
}

}  // namespace
}  // namespace seqge::fpga
