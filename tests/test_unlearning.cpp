// Deletion / unlearning tests: the OS-ELM covariance downdate
// (OselmSkipGram::untrain_walk and the dataflow mirror), the
// EmbeddingModel::untrain_batch adapters, the StreamTrainer's
// delete/expire path, and tombstone visibility in the serving layer.
//
// The core claim gated here: untraining the most recently trained walks
// (LIFO order — what sliding-window expiry produces) reproduces the
// model a from-scratch run over the surviving walks would have built,
// to float round-off (<= 1e-4 per weight at these scales).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "embedding/model.hpp"
#include "embedding/oselm_dataflow.hpp"
#include "embedding/oselm_skipgram.hpp"
#include "embedding/trainer.hpp"
#include "graph/sliding_window.hpp"
#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "sampling/negative_sampler.hpp"
#include "serve/sharded_query.hpp"
#include "serve/sharded_store.hpp"
#include "util/rng.hpp"
#include "walk/walk_batch.hpp"

namespace seqge {
namespace {

constexpr std::size_t kDims = 8;
constexpr std::size_t kNodes = 24;
constexpr std::size_t kWindow = 3;

/// Hand-crafted walk set: every context's center is absent from its own
/// positives and from the walk's shared negatives, so the tied-weights
/// self-reference guard never fires and reversal is exact.
struct Stream {
  std::vector<std::vector<NodeId>> walks;
  std::vector<std::vector<NodeId>> negatives;  // shared per walk
};

Stream make_stream() {
  Stream s;
  s.walks = {{0, 1, 2, 3, 4},
             {5, 6, 7, 8, 9},
             {2, 3, 4, 5, 6},
             {10, 11, 0, 1, 12},
             {7, 8, 9, 10, 11}};
  // Centers of walk i are its first walk_len - window + 1 nodes; keep
  // each negative set disjoint from them.
  s.negatives = {{8, 9}, {0, 1}, {9, 1}, {5, 6}, {0, 4}};
  return s;
}

double max_abs_diff(const MatrixF& a, const MatrixF& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double m = 0.0;
  auto fa = a.flat();
  auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(fa[i]) - fb[i]));
  }
  return m;
}

// --- Algorithm 1 (OselmSkipGram) -------------------------------------------

TEST(OselmUnlearning, LifoUntrainMatchesFromScratchRetrain) {
  const Stream s = make_stream();
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  // reset_p_per_walk default: beta is the only cross-walk state.
  Rng rng_a(7);
  OselmSkipGram full(kNodes, opts, rng_a);
  for (std::size_t w = 0; w < s.walks.size(); ++w) {
    full.train_walk(s.walks[w], kWindow, s.negatives[w]);
  }
  // Untrain the last two walks, newest first (LIFO).
  for (std::size_t w = s.walks.size(); w-- > 3;) {
    ASSERT_TRUE(full.untrain_walk(s.walks[w], kWindow, s.negatives[w]));
  }

  Rng rng_b(7);  // identical init
  OselmSkipGram survivors(kNodes, opts, rng_b);
  for (std::size_t w = 0; w < 3; ++w) {
    survivors.train_walk(s.walks[w], kWindow, s.negatives[w]);
  }
  EXPECT_LE(max_abs_diff(full.beta_transposed(),
                         survivors.beta_transposed()),
            1e-4);
}

TEST(OselmUnlearning, PersistentModeRestoresBetaAndCovariance) {
  const Stream s = make_stream();
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  opts.reset_p_per_walk = false;  // classic RLS: P carries across walks
  Rng rng_a(11);
  OselmSkipGram full(kNodes, opts, rng_a);
  for (std::size_t w = 0; w < s.walks.size(); ++w) {
    full.train_walk(s.walks[w], kWindow, s.negatives[w]);
  }
  for (std::size_t w = s.walks.size(); w-- > 2;) {
    ASSERT_TRUE(full.untrain_walk(s.walks[w], kWindow, s.negatives[w]));
  }

  Rng rng_b(11);
  OselmSkipGram survivors(kNodes, opts, rng_b);
  for (std::size_t w = 0; w < 2; ++w) {
    survivors.train_walk(s.walks[w], kWindow, s.negatives[w]);
  }
  EXPECT_LE(max_abs_diff(full.beta_transposed(),
                         survivors.beta_transposed()),
            1e-4);
  EXPECT_LE(max_abs_diff(full.covariance(), survivors.covariance()), 1e-4);
}

TEST(OselmUnlearning, ShortWalkIsNoop) {
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  Rng rng(3);
  OselmSkipGram m(kNodes, opts, rng);
  const MatrixF before = m.beta_transposed();
  const std::vector<NodeId> walk = {1, 2};  // shorter than window
  const std::vector<NodeId> negs = {5};
  EXPECT_TRUE(m.untrain_walk(walk, 4, negs));
  EXPECT_EQ(max_abs_diff(m.beta_transposed(), before), 0.0);
}

TEST(OselmUnlearning, ConditioningGuardFiresOnBlownUpCovariance) {
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  opts.reset_p_per_walk = false;
  Rng rng(5);
  OselmSkipGram m(kNodes, opts, rng);
  const std::vector<NodeId> walk = {0, 1, 2};
  const std::vector<NodeId> negs = {7, 8};
  m.train_walk(walk, kWindow, negs);
  // Inflate P so d = 1 - H P H^T goes non-positive: the downdated P
  // would lose positive-definiteness and the guard must refuse.
  m.covariance().set_identity(1e6f);
  EXPECT_FALSE(m.untrain_walk(walk, kWindow, negs));
}

TEST(OselmUnlearning, ConditioningGuardHonorsEps) {
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  Rng rng(6);
  OselmSkipGram m(kNodes, opts, rng);
  const std::vector<NodeId> walk = {0, 1, 2};
  const std::vector<NodeId> negs = {7, 8};
  m.train_walk(walk, kWindow, negs);
  const MatrixF before = m.beta_transposed();
  // d is always <= 1, so eps = 2 trips the guard on the first context —
  // before any mutation, so the model must be untouched.
  EXPECT_FALSE(m.untrain_walk(walk, kWindow, negs, /*eps=*/2.0));
  EXPECT_EQ(max_abs_diff(m.beta_transposed(), before), 0.0);
}

TEST(OselmUnlearning, SelfReferenceGuardInTiedMode) {
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  Rng rng(8);
  OselmSkipGram m(kNodes, opts, rng);
  const std::vector<NodeId> positives = {1, 0};  // center 0 among them
  const std::vector<NodeId> negs = {7};
  WalkContext self_pos{0, positives};
  EXPECT_FALSE(m.untrain_context(self_pos, negs));
  const std::vector<NodeId> neg_center = {5, 0};  // center 0 as negative
  WalkContext ok_pos{0, std::span<const NodeId>(positives).subspan(0, 1)};
  EXPECT_FALSE(m.untrain_context(ok_pos, neg_center));
}

TEST(OselmUnlearning, RandomAlphaModeHasNoSelfReferenceGuard) {
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  opts.random_alpha = true;  // H comes from fixed alpha, not beta
  Rng rng(9);
  OselmSkipGram m(kNodes, opts, rng);
  const std::vector<NodeId> walk = {0, 1, 2};
  const std::vector<NodeId> negs = {0, 7};  // center 0 as negative: fine
  m.train_walk(walk, kWindow, negs);
  EXPECT_TRUE(m.untrain_walk(walk, kWindow, negs));
}

TEST(OselmUnlearning, FusedAndUnfusedUntrainBitIdentical) {
  const Stream s = make_stream();
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  Rng rng_a(13);
  OselmSkipGram fused(kNodes, opts, rng_a);
  Rng rng_b(13);
  OselmSkipGram unfused(kNodes, opts, rng_b);
  unfused.set_force_unfused(true);
  for (std::size_t w = 0; w < s.walks.size(); ++w) {
    fused.train_walk(s.walks[w], kWindow, s.negatives[w]);
    unfused.train_walk(s.walks[w], kWindow, s.negatives[w]);
  }
  for (std::size_t w = s.walks.size(); w-- > 2;) {
    ASSERT_TRUE(fused.untrain_walk(s.walks[w], kWindow, s.negatives[w]));
    ASSERT_TRUE(unfused.untrain_walk(s.walks[w], kWindow, s.negatives[w]));
  }
  auto fa = fused.beta_transposed().flat();
  auto fb = unfused.beta_transposed().flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(fa[i], fb[i]) << "at flat index " << i;
  }
}

// --- Algorithm 2 (dataflow) ------------------------------------------------

TEST(DataflowUnlearning, UntrainRestoresBetaWithinTolerance) {
  const Stream s = make_stream();
  OselmSkipGramDataflow::Options opts;
  opts.dims = kDims;
  Rng rng(17);
  OselmSkipGramDataflow m(kNodes, opts, rng);
  for (std::size_t w = 0; w + 1 < s.walks.size(); ++w) {
    m.train_walk(s.walks[w], kWindow, s.negatives[w]);
  }
  const MatrixF before = m.beta_transposed();
  m.train_walk(s.walks.back(), kWindow, s.negatives.back());
  ASSERT_TRUE(m.untrain_walk(s.walks.back(), kWindow, s.negatives.back()));
  // The dataflow reversal mirrors the frozen-state update against the
  // post-walk beta — second-order error O(mu^2 ||delta||), well under
  // 1e-4 at these scales.
  EXPECT_LE(max_abs_diff(m.beta_transposed(), before), 1e-4);
}

TEST(DataflowUnlearning, PersistentModeRestoresCovariance) {
  const Stream s = make_stream();
  OselmSkipGramDataflow::Options opts;
  opts.dims = kDims;
  opts.reset_p_per_walk = false;
  Rng rng(19);
  OselmSkipGramDataflow m(kNodes, opts, rng);
  m.train_walk(s.walks[0], kWindow, s.negatives[0]);
  const MatrixF beta_before = m.beta_transposed();
  const MatrixF p_before = m.covariance();
  m.train_walk(s.walks[1], kWindow, s.negatives[1]);
  ASSERT_TRUE(m.untrain_walk(s.walks[1], kWindow, s.negatives[1]));
  EXPECT_LE(max_abs_diff(m.beta_transposed(), beta_before), 1e-4);
  EXPECT_LE(max_abs_diff(m.covariance(), p_before), 1e-4);
}

TEST(DataflowUnlearning, GuardLeavesStateBitIdentical) {
  const Stream s = make_stream();
  OselmSkipGramDataflow::Options opts;
  opts.dims = kDims;
  Rng rng(23);
  OselmSkipGramDataflow m(kNodes, opts, rng);
  m.train_walk(s.walks[0], kWindow, s.negatives[0]);
  const MatrixF beta_before = m.beta_transposed();
  const MatrixF p_before = m.covariance();
  // denom = 1 + H P H^T is near 1; eps = 10 trips the guard, and unlike
  // Algorithm 1 the dataflow form commits nothing on failure.
  EXPECT_FALSE(
      m.untrain_walk(s.walks[0], kWindow, s.negatives[0], /*eps=*/10.0));
  EXPECT_EQ(max_abs_diff(m.beta_transposed(), beta_before), 0.0);
  EXPECT_EQ(max_abs_diff(m.covariance(), p_before), 0.0);
}

// --- EmbeddingModel::untrain_batch adapters --------------------------------

WalkBatch pack_stream(const Stream& s, std::size_t from, std::size_t to) {
  WalkBatch batch;
  for (std::size_t w = from; w < to; ++w) {
    batch.add_walk(s.walks[w], s.negatives[w], /*train_seed=*/1000 + w);
  }
  return batch;
}

TEST(UntrainBatch, OselmAdapterReversesLifo) {
  const Stream s = make_stream();
  TrainConfig cfg;
  cfg.dims = kDims;
  cfg.negative_samples = 2;
  cfg.negative_mode = NegativeMode::kPerWalk;
  cfg.walk.window = kWindow;
  cfg.walk.walk_length = 5;
  const std::vector<std::uint64_t> counts(kNodes, 1);
  NegativeSampler sampler(counts);

  Rng rng_a(29);
  auto full = make_model(ModelKind::kOselm, kNodes, cfg, rng_a);
  const WalkBatch head = pack_stream(s, 0, 3);
  const WalkBatch tail = pack_stream(s, 3, s.walks.size());
  full->train_batch(head, kWindow, sampler, 2, NegativeMode::kPerWalk);
  full->train_batch(tail, kWindow, sampler, 2, NegativeMode::kPerWalk);
  EXPECT_TRUE(
      full->untrain_batch(tail, kWindow, sampler, 2, NegativeMode::kPerWalk));

  Rng rng_b(29);
  auto survivors = make_model(ModelKind::kOselm, kNodes, cfg, rng_b);
  survivors->train_batch(head, kWindow, sampler, 2, NegativeMode::kPerWalk);
  EXPECT_LE(max_abs_diff(full->extract_embedding(),
                         survivors->extract_embedding()),
            1e-4);
}

TEST(UntrainBatch, DataflowAdapterReverses) {
  const Stream s = make_stream();
  TrainConfig cfg;
  cfg.dims = kDims;
  cfg.negative_samples = 2;
  cfg.walk.window = kWindow;
  cfg.walk.walk_length = 5;
  const std::vector<std::uint64_t> counts(kNodes, 1);
  NegativeSampler sampler(counts);
  Rng rng(31);
  auto model = make_model(ModelKind::kOselmDataflow, kNodes, cfg, rng);
  const WalkBatch head = pack_stream(s, 0, 4);
  const WalkBatch tail = pack_stream(s, 4, s.walks.size());
  model->train_batch(head, kWindow, sampler, 2, NegativeMode::kPerWalk);
  const MatrixF before = model->extract_embedding();
  model->train_batch(tail, kWindow, sampler, 2, NegativeMode::kPerWalk);
  EXPECT_TRUE(model->untrain_batch(tail, kWindow, sampler, 2,
                                   NegativeMode::kPerWalk));
  EXPECT_LE(max_abs_diff(model->extract_embedding(), before), 1e-4);
}

TEST(UntrainBatch, SgdIsUnsupported) {
  const Stream s = make_stream();
  TrainConfig cfg;
  cfg.dims = kDims;
  cfg.negative_samples = 2;
  cfg.walk.window = kWindow;
  cfg.walk.walk_length = 5;
  const std::vector<std::uint64_t> counts(kNodes, 1);
  NegativeSampler sampler(counts);
  Rng rng(37);
  auto model = make_model(ModelKind::kOriginalSGD, kNodes, cfg, rng);
  const WalkBatch batch = pack_stream(s, 0, 2);
  model->train_batch(batch, kWindow, sampler, 2, NegativeMode::kPerWalk);
  EXPECT_FALSE(model->untrain_batch(batch, kWindow, sampler, 2,
                                    NegativeMode::kPerWalk));
}

TEST(UntrainBatch, RejectsUnpackedNegatives) {
  TrainConfig cfg;
  cfg.dims = kDims;
  cfg.negative_samples = 2;
  cfg.walk.window = kWindow;
  cfg.walk.walk_length = 5;
  const std::vector<std::uint64_t> counts(kNodes, 1);
  NegativeSampler sampler(counts);
  Rng rng(41);
  auto model = make_model(ModelKind::kOselm, kNodes, cfg, rng);
  WalkBatch batch;
  const std::vector<NodeId> walk = {0, 1, 2, 3, 4};
  batch.add_walk(walk, {}, 99);  // no packed negatives
  EXPECT_FALSE(model->untrain_batch(batch, kWindow, sampler, 2,
                                    NegativeMode::kPerWalk));
  EXPECT_FALSE(model->untrain_batch(batch, kWindow, sampler, 2,
                                    NegativeMode::kPerContext));
}

// --- StreamTrainer ----------------------------------------------------------

StreamConfig small_stream_config() {
  StreamConfig cfg;
  cfg.train.dims = kDims;
  cfg.train.negative_samples = 2;
  cfg.train.walk.window = 2;  // positives = successor only: a context
                              // can never contain its own center
  cfg.train.walk.walk_length = 4;
  return cfg;
}

TEST(StreamTrainer, InsertThenRemoveRestoresEmbedding) {
  StreamConfig cfg = small_stream_config();
  // Pure reversal (no neighborhood refresh): this deletion is LIFO, so
  // the downdate alone must restore the pre-insertion state.
  cfg.refresh_after_unlearn = false;
  SlidingWindowGraph graph(kNodes);
  Rng mrng(43);
  auto model = make_model(ModelKind::kOselm, kNodes, cfg.train, mrng);
  Rng srng(44);
  StreamTrainer trainer(*model, graph, cfg, srng);
  for (NodeId u = 0; u + 1 < kNodes; ++u) {
    ASSERT_NE(trainer.insert(u, u + 1, 1.0f, u),
              SlidingWindowGraph::kInvalidToken);
  }
  const MatrixF before = model->extract_embedding();
  const auto base_deleted = trainer.stats().edges_deleted;
  ASSERT_NE(trainer.insert(3, 17, 1.0f, 100),
            SlidingWindowGraph::kInvalidToken);
  ASSERT_TRUE(trainer.remove(3, 17));
  EXPECT_EQ(trainer.stats().edges_deleted, base_deleted + 1);
  EXPECT_FALSE(graph.has_edge(3, 17));
  if (trainer.stats().fallback_retrains == 0) {
    // Exact reversal of the newest walks: the embedding returns to its
    // pre-insertion state to float round-off.
    EXPECT_LE(max_abs_diff(model->extract_embedding(), before), 1e-4);
    EXPECT_EQ(trainer.stats().walks_unlearned, 2u);
  } else {
    // Conditioning guard fired (seed-dependent): the approximate path
    // must still have re-trained the surviving neighborhoods.
    EXPECT_GT(trainer.stats().walks_trained, 2 * (kNodes - 1));
  }
}

TEST(StreamTrainer, ExpiryTombstonesIsolatedNodes) {
  StreamConfig cfg = small_stream_config();
  SlidingWindowGraph::Options wopts;
  wopts.max_age = 10;
  SlidingWindowGraph graph(kNodes, wopts);
  Rng mrng(47);
  auto model = make_model(ModelKind::kOselm, kNodes, cfg.train, mrng);
  Rng srng(48);
  StreamTrainer trainer(*model, graph, cfg, srng);
  // One isolated pair first (the ring is FIFO by stamp), then a hub
  // cluster that stays.
  trainer.insert(20, 21, 1.0f, 5);  // old: expires at now = 40
  for (NodeId u = 1; u <= 6; ++u) trainer.insert(0, u, 1.0f, 50);
  ASSERT_EQ(trainer.advance(40), 1u);
  EXPECT_EQ(graph.degree(20), 0u);
  EXPECT_EQ(graph.degree(21), 0u);
  EXPECT_EQ(trainer.stats().nodes_tombstoned, 2u);
  EXPECT_TRUE(trainer.dead_nodes().count(20) == 1);
  EXPECT_TRUE(trainer.dead_nodes().count(21) == 1);
  // Re-inserting revives both.
  trainer.insert(20, 21, 1.0f, 45);
  EXPECT_TRUE(trainer.dead_nodes().empty());
}

TEST(StreamTrainer, FlushPublishesTombstonesAndOnlySurvivingRows) {
  StreamConfig cfg = small_stream_config();
  serve::ShardedEmbeddingStore store(3);
  cfg.sink = &store;
  SlidingWindowGraph graph(kNodes);
  Rng mrng(53);
  auto model = make_model(ModelKind::kOselm, kNodes, cfg.train, mrng);
  Rng srng(54);
  StreamTrainer trainer(*model, graph, cfg, srng);
  for (NodeId u = 1; u <= 8; ++u) trainer.insert(0, u, 1.0f, u);
  trainer.insert(20, 21, 1.0f, 9);
  trainer.flush();  // first publish: full snapshot + empty dead set
  EXPECT_EQ(store.tombstoned_rows(), 0u);

  ASSERT_TRUE(trainer.remove(20, 21));
  const auto copied_before = store.rows_copied();
  trainer.flush();
  EXPECT_EQ(store.tombstoned_rows(), 2u);
  // The deletion publish copies only touched surviving rows — never the
  // dead ones, never O(n).
  const auto copied = store.rows_copied() - copied_before;
  EXPECT_GT(copied, 0u);
  EXPECT_LT(copied, kNodes);
  serve::ShardedQueryEngine engine(store);
  for (const auto& hit : engine.topk(NodeId{0}, kNodes)) {
    EXPECT_NE(hit.node, NodeId{20});
    EXPECT_NE(hit.node, NodeId{21});
  }

  // Delete-then-reinsert idempotence at the serving layer: the revived
  // pair is served again after the next flush.
  trainer.insert(20, 21, 1.0f, 12);
  trainer.flush();
  EXPECT_EQ(store.tombstoned_rows(), 0u);
  serve::ShardedQueryEngine engine2(store);
  bool saw = false;
  for (const auto& hit : engine2.topk(NodeId{21}, kNodes)) {
    if (hit.node == NodeId{20}) saw = true;
  }
  EXPECT_TRUE(saw);
}

/// Sink that applies every on_delta's tombstone edits to its own dead
/// set — touched rows are live, tombstoned nodes dead — checks the
/// result against the trainer's dead set at the moment of the call,
/// and keeps each resulting set.
struct TombstoneRecorder : SnapshotSink {
  const StreamTrainer* trainer = nullptr;
  std::vector<NodeId> dead;
  std::vector<std::vector<NodeId>> published;
  void on_snapshot(const EmbeddingModel&, const TrainStats&) override {}
  void on_delta(const EmbeddingModel&, const TrainStats&,
                std::span<const NodeId> touched,
                std::span<const NodeId> tombstoned) override {
    for (auto list : {touched, tombstoned}) {
      EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
      EXPECT_TRUE(std::adjacent_find(list.begin(), list.end()) == list.end());
    }
    std::vector<NodeId> next;
    std::set_difference(dead.begin(), dead.end(), touched.begin(),
                        touched.end(), std::back_inserter(next));
    dead.clear();
    std::set_union(next.begin(), next.end(), tombstoned.begin(),
                   tombstoned.end(), std::back_inserter(dead));
    std::vector<NodeId> want;
    const NodeFlagSet& flags = trainer->dead_nodes();
    for (NodeId v = 0; v < flags.num_nodes(); ++v) {
      if (flags.count(v) != 0) want.push_back(v);
    }
    EXPECT_EQ(flags.size(), want.size());
    EXPECT_EQ(dead, want);
    published.push_back(dead);
  }
};

TEST(StreamTrainer, TombstonesMatchDeadSetAcrossKillAndRevive) {
  StreamConfig cfg = small_stream_config();
  TombstoneRecorder sink;
  cfg.sink = &sink;
  cfg.publish_every = 1;  // publish after every mutation as well
  SlidingWindowGraph graph(kNodes);
  Rng mrng(61);
  auto model = make_model(ModelKind::kOselm, kNodes, cfg.train, mrng);
  Rng srng(62);
  StreamTrainer trainer(*model, graph, cfg, srng);
  sink.trainer = &trainer;
  for (NodeId u = 1; u <= 6; ++u) trainer.insert(0, u, 1.0f, u);
  // Three isolated pairs, inserted high ids first so the dead set is
  // not filled in ascending order.
  trainer.insert(22, 23, 1.0f, 7);
  trainer.insert(18, 19, 1.0f, 8);
  trainer.insert(20, 21, 1.0f, 9);

  using Set = std::vector<NodeId>;
  ASSERT_TRUE(trainer.remove(22, 23));  // kill
  ASSERT_TRUE(trainer.remove(18, 19));  // kill
  EXPECT_EQ(sink.published.back(), (Set{18, 19, 22, 23}));
  trainer.insert(22, 18, 1.0f, 10);     // revive one of each pair
  EXPECT_EQ(sink.published.back(), (Set{19, 23}));
  ASSERT_TRUE(trainer.remove(20, 21));  // kill a third pair
  EXPECT_EQ(sink.published.back(), (Set{19, 20, 21, 23}));
  ASSERT_TRUE(trainer.remove(18, 22));  // kill the revived ones again
  trainer.flush();
  EXPECT_EQ(sink.published.back(), (Set{18, 19, 20, 21, 22, 23}));
  trainer.insert(19, 21, 1.0f, 11);
  trainer.insert(5, 23, 1.0f, 12);
  trainer.flush();
  EXPECT_EQ(sink.published.back(), (Set{18, 20, 22}));
  EXPECT_EQ(trainer.dead_nodes().count(18), 1u);
  EXPECT_EQ(trainer.dead_nodes().count(19), 0u);
  EXPECT_EQ(trainer.dead_nodes().size(), 3u);
  EXPECT_GE(sink.published.size(), 12u);
}

TEST(StreamTrainer, EveryFlushIsOneStoreVersionWithMatchingDeadBits) {
  // TombstonesMatchDeadSetAcrossKillAndRevive's sequence over a
  // real store: each flush is exactly one new version, after which the
  // store's dead bits are the trainer's dead set.
  StreamConfig cfg = small_stream_config();
  serve::ShardedEmbeddingStore store(3);
  cfg.sink = &store;
  cfg.publish_every = 1;  // publish after every mutation as well
  SlidingWindowGraph graph(kNodes);
  Rng mrng(61);
  auto model = make_model(ModelKind::kOselm, kNodes, cfg.train, mrng);
  Rng srng(62);
  StreamTrainer trainer(*model, graph, cfg, srng);
  std::uint64_t version = 0;
  auto published_one = [&] {
    EXPECT_EQ(store.version(), version + 1);
    version = store.version();
    for (NodeId v = 0; v < kNodes; ++v) {
      const auto snap = store.shard(store.layout().shard_of(v));
      EXPECT_EQ(snap->tombstoned(v - snap->row_begin),
                trainer.dead_nodes().count(v) == 1)
          << "node " << v;
    }
    EXPECT_EQ(store.tombstoned_rows(), trainer.dead_nodes().size());
  };
  for (NodeId u = 1; u <= 6; ++u) {
    trainer.insert(0, u, 1.0f, u);
    published_one();
  }
  trainer.insert(22, 23, 1.0f, 7);
  published_one();
  trainer.insert(18, 19, 1.0f, 8);
  published_one();
  trainer.insert(20, 21, 1.0f, 9);
  published_one();

  ASSERT_TRUE(trainer.remove(22, 23));  // kill
  published_one();
  ASSERT_TRUE(trainer.remove(18, 19));  // kill
  published_one();
  trainer.insert(22, 18, 1.0f, 10);  // revive one of each pair
  published_one();
  ASSERT_TRUE(trainer.remove(20, 21));  // kill a third pair
  published_one();
  ASSERT_TRUE(trainer.remove(18, 22));  // kill the revived ones again
  published_one();
  trainer.flush();
  published_one();
  trainer.insert(19, 21, 1.0f, 11);
  published_one();
  trainer.insert(5, 23, 1.0f, 12);
  published_one();
  trainer.flush();
  published_one();
  EXPECT_EQ(trainer.dead_nodes().size(), 3u);
  EXPECT_EQ(trainer.stats().publishes, version);
}

/// Sink that counts deltas and keeps the last one's rows as they were
/// at the call.
struct DeltaRecorder : SnapshotSink {
  std::size_t deltas = 0;
  std::vector<NodeId> touched;
  MatrixF rows;
  void on_snapshot(const EmbeddingModel&, const TrainStats&) override {}
  void on_delta(const EmbeddingModel& model, const TrainStats&,
                std::span<const NodeId> touched_rows,
                std::span<const NodeId>) override {
    ++deltas;
    touched.assign(touched_rows.begin(), touched_rows.end());
    rows = MatrixF(touched.size(), model.dims());
    model.extract_rows(touched, rows);
  }
};

TEST(StreamTrainer, DeadlineFlushesAStaleMutation) {
  // A count cadence that never fires: the second insert finds the
  // first one older than the deadline and publishes both.
  StreamConfig cfg = small_stream_config();
  DeltaRecorder sink;
  cfg.sink = &sink;
  cfg.publish_every = 1'000'000;
  SlidingWindowGraph graph(kNodes);
  Rng mrng(69);
  auto model = make_model(ModelKind::kOselm, kNodes, cfg.train, mrng);
  Rng srng(70);
  StreamTrainer trainer(*model, graph, cfg, srng);
  trainer.insert(1, 2, 1.0f, 1);
  std::this_thread::sleep_for(StreamTrainer::kMaxPublishDelay +
                              std::chrono::milliseconds(5));
  trainer.insert(3, 4, 1.0f, 2);
  EXPECT_EQ(sink.deltas, 1u);
  EXPECT_EQ(trainer.stats().publishes, 1u);
  for (NodeId v : {1, 2, 3, 4}) {
    EXPECT_TRUE(std::binary_search(sink.touched.begin(), sink.touched.end(),
                                   v))
        << "node " << v;
  }
  MatrixF now(sink.touched.size(), model->dims());
  model->extract_rows(sink.touched, now);
  EXPECT_EQ(max_abs_diff(sink.rows, now), 0.0);
}

TEST(StreamTrainer, SlowStreamPublishesEachInsertWithItself) {
  // A count cadence that never fires and inserts spaced just over the
  // deadline: the first insert starts the clock, and every later one
  // finds the previous flush stale, so publish i carries insert i + 1.
  StreamConfig cfg = small_stream_config();
  DeltaRecorder sink;
  cfg.sink = &sink;
  cfg.publish_every = 1'000'000;
  SlidingWindowGraph graph(kNodes);
  Rng mrng(73);
  auto model = make_model(ModelKind::kOselm, kNodes, cfg.train, mrng);
  Rng srng(74);
  StreamTrainer trainer(*model, graph, cfg, srng);
  constexpr NodeId kInserts = 6;
  for (NodeId i = 0; i < kInserts; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(StreamTrainer::kMaxPublishDelay +
                                  std::chrono::microseconds(200));
    }
    const NodeId u = 2 * i + 1;
    ASSERT_NE(trainer.insert(u, u + 1, 1.0f, i),
              SlidingWindowGraph::kInvalidToken);
    EXPECT_EQ(sink.deltas, static_cast<std::size_t>(i));
    if (i == 0) continue;
    for (NodeId v : {u, u + 1}) {
      EXPECT_TRUE(std::binary_search(sink.touched.begin(),
                                     sink.touched.end(), v))
          << "publish " << i - 1 << " node " << v;
    }
  }
  EXPECT_EQ(trainer.stats().publishes, kInserts - 1u);
}

TEST(StreamTrainer, ManualCadenceNeverPublishesOnItsOwn) {
  StreamConfig cfg = small_stream_config();
  DeltaRecorder sink;
  cfg.sink = &sink;
  cfg.publish_every = 0;
  SlidingWindowGraph graph(kNodes);
  Rng mrng(71);
  auto model = make_model(ModelKind::kOselm, kNodes, cfg.train, mrng);
  Rng srng(72);
  StreamTrainer trainer(*model, graph, cfg, srng);
  trainer.insert(1, 2, 1.0f, 1);
  std::this_thread::sleep_for(StreamTrainer::kMaxPublishDelay +
                              std::chrono::milliseconds(5));
  trainer.insert(3, 4, 1.0f, 2);
  ASSERT_TRUE(trainer.remove(1, 2));
  EXPECT_EQ(sink.deltas, 0u);
  trainer.flush();
  EXPECT_EQ(sink.deltas, 1u);
}

TEST(StreamTrainer, RecordsStayWithinStalenessHorizon) {
  // N >> limit insertions through a capacity-bounded window: records
  // (and their bytes) stay bounded by the horizon, not by the stream.
  StreamConfig cfg = small_stream_config();
  cfg.unlearn_staleness_limit = 16;
  constexpr std::size_t kBig = 600;
  SlidingWindowGraph::Options wopts;
  wopts.max_edges = 40;  // capacity expiry keeps the graph small
  SlidingWindowGraph graph(kBig, wopts);
  Rng mrng(63);
  auto model = make_model(ModelKind::kOselm, kBig, cfg.train, mrng);
  Rng srng(64);
  StreamTrainer trainer(*model, graph, cfg, srng);
  std::size_t max_held = 0;
  for (NodeId u = 0; u + 1 < kBig; ++u) {
    ASSERT_NE(trainer.insert(u, u + 1, 1.0f, u),
              SlidingWindowGraph::kInvalidToken);
    trainer.advance(u);
    max_held = std::max(max_held, trainer.record_memory().held);
  }
  const auto mem = trainer.record_memory();
  EXPECT_GT(trainer.stats().edges_deleted, 500u);  // N >> limit
  EXPECT_LE(max_held, cfg.unlearn_staleness_limit + 1);
  EXPECT_GT(mem.held, 0u);
  EXPECT_LE(mem.bytes,
            (cfg.unlearn_staleness_limit + 1) * mem.largest_record_bytes);
  if (obs::enabled()) {
    EXPECT_EQ(obs::Registry::global()
                  .gauge("seqge_stream_unlearn_records")
                  ->value(),
              static_cast<std::int64_t>(mem.held));
  }
}

TEST(StreamTrainer, HorizonDecidesDowndateOrFallback) {
  // Edge k trains at mutation k + 1. With 100 insertions and limit 8,
  // the first deletion (mutation 101) finds edge 91 (trained at 92) one
  // mutation past the horizon, and the next deletion (mutation 102)
  // finds edge 93 (trained at 94) exactly at it.
  StreamConfig cfg = small_stream_config();
  cfg.unlearn_staleness_limit = 8;
  constexpr std::size_t kChain = 101;
  SlidingWindowGraph graph(kChain);
  Rng mrng(65);
  auto model = make_model(ModelKind::kOselm, kChain, cfg.train, mrng);
  Rng srng(66);
  StreamTrainer trainer(*model, graph, cfg, srng);
  for (NodeId k = 0; k < 100; ++k) trainer.insert(k, k + 1, 1.0f, k);
  EXPECT_EQ(trainer.record_memory().held, 8u);

  const StreamStats before = trainer.stats();
  ASSERT_TRUE(trainer.remove(91, 92));  // outside the horizon
  EXPECT_EQ(trainer.stats().fallback_retrains, before.fallback_retrains + 1);
  EXPECT_EQ(trainer.stats().walks_unlearned, before.walks_unlearned);

  ASSERT_TRUE(trainer.remove(93, 94));  // at the horizon's edge
  EXPECT_EQ(trainer.stats().walks_unlearned, before.walks_unlearned + 2);
  EXPECT_EQ(trainer.stats().fallback_retrains, before.fallback_retrains + 1);

  // A re-inserted edge gets a new token and a new record to downdate.
  trainer.insert(93, 94, 1.0f, 200);
  ASSERT_TRUE(trainer.remove(93, 94));
  EXPECT_EQ(trainer.stats().walks_unlearned, before.walks_unlearned + 4);
}

TEST(StreamTrainer, TrainingCountersMatchRegistry) {
  // SGD cannot downdate, so every deletion re-trains the surviving
  // endpoints: those batches must be counted like insertion batches,
  // both in the trainer's TrainStats and in the registry mirrors.
  StreamConfig cfg = small_stream_config();
  SlidingWindowGraph graph(kNodes);
  Rng mrng(67);
  auto model = make_model(ModelKind::kOriginalSGD, kNodes, cfg.train, mrng);
  Rng srng(68);
  StreamTrainer trainer(*model, graph, cfg, srng);
  auto counter = [](const char* name) {
    return obs::Registry::global().counter(name)->value();
  };
  const std::uint64_t walks0 = counter("seqge_train_walks_total");
  const std::uint64_t batches0 = counter("seqge_train_batches_total");
  const std::uint64_t contexts0 = counter("seqge_train_contexts_total");
  for (NodeId u = 0; u + 1 < kNodes; ++u) trainer.insert(u, u + 1, 1.0f, u);
  for (NodeId u = 0; u + 1 < kNodes; u += 3) {
    ASSERT_TRUE(trainer.remove(u, u + 1));
  }
  const StreamStats& s = trainer.stats();
  ASSERT_GT(s.edges_deleted, 0u);
  EXPECT_EQ(s.fallback_retrains, s.edges_deleted);
  const TrainStats& t = trainer.train_stats();
  EXPECT_EQ(t.num_walks, s.walks_trained);
  EXPECT_EQ(t.num_batches, s.edges_inserted + s.fallback_retrains);
  EXPECT_GT(t.num_contexts, 0u);
  if (obs::enabled()) {
    EXPECT_EQ(counter("seqge_train_walks_total") - walks0, t.num_walks);
    EXPECT_EQ(counter("seqge_train_batches_total") - batches0, t.num_batches);
    EXPECT_EQ(counter("seqge_train_contexts_total") - contexts0,
              t.num_contexts);
  }
}

// --- serving-layer tombstones ----------------------------------------------

MatrixF random_matrix(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  MatrixF m(rows, cols);
  Rng rng(seed);
  m.fill_uniform(rng, -1.0, 1.0);
  return m;
}

/// Bitmap-only publish: hide `nodes` (ascending) in one new version,
/// copying no row.
std::uint64_t hide(serve::ShardedEmbeddingStore& store,
                   const std::vector<NodeId>& nodes) {
  return store.publish_delta({}, MatrixF{}, 0, {}, nodes);
}

/// Delta publish of `nodes` with fresh rows: they are served again.
std::uint64_t republish(serve::ShardedEmbeddingStore& store,
                     const std::vector<NodeId>& nodes, std::uint64_t seed) {
  return store.publish_delta(nodes, random_matrix(nodes.size(), kDims, seed));
}

TEST(Tombstones, ShardedStoreHidesAndRevives) {
  serve::ShardedEmbeddingStore store(4);
  store.publish(random_matrix(32, kDims, 61));
  const auto copied_before = store.rows_copied();
  hide(store, {5, 17});
  // Visibility flips copy zero embedding rows.
  EXPECT_EQ(store.rows_copied(), copied_before);
  EXPECT_EQ(store.tombstoned_rows(), 2u);

  serve::ShardedQueryEngine engine(store);
  const auto hits = engine.topk(NodeId{0}, 32);
  for (const auto& h : hits) {
    EXPECT_NE(h.node, NodeId{5});
    EXPECT_NE(h.node, NodeId{17});
  }
  // Hidden rows shrink the candidate set (self + 2 dead of 32 rows).
  EXPECT_EQ(hits.size(), 32u - 3u);

  // A delta republish of a dead row revives it.
  republish(store, {17}, 64);
  EXPECT_EQ(store.tombstoned_rows(), 1u);
  serve::ShardedQueryEngine engine2(store);
  bool saw17 = false;
  for (const auto& h : engine2.topk(NodeId{5}, 32)) {
    if (h.node == NodeId{17}) saw17 = true;
    EXPECT_NE(h.node, NodeId{5});
  }
  EXPECT_TRUE(saw17);

  // A full publish serves everything again.
  store.publish(random_matrix(32, kDims, 62));
  EXPECT_EQ(store.tombstoned_rows(), 0u);
}

TEST(Tombstones, ShardedStoreValidatesAndEdits) {
  serve::ShardedEmbeddingStore store(2);
  EXPECT_THROW((void)hide(store, {1}), std::logic_error);
  store.publish(random_matrix(16, kDims, 63));
  EXPECT_THROW((void)hide(store, {7, 3}), std::invalid_argument);
  EXPECT_THROW((void)hide(store, {3, 3}), std::invalid_argument);
  EXPECT_THROW((void)hide(store, {99}), std::invalid_argument);
  EXPECT_EQ(store.version(), 1u);  // a rejected publish is no version

  hide(store, {2, 9});
  EXPECT_EQ(store.tombstoned_rows(), 2u);
  // Edits, not replacement: {4} adds to {2, 9}, and a dead node killed
  // again stays counted once.
  hide(store, {4, 9});
  EXPECT_EQ(store.tombstoned_rows(), 3u);
  republish(store, {2}, 65);
  EXPECT_EQ(store.tombstoned_rows(), 2u);
  EXPECT_EQ(store.version(), 4u);
  serve::ShardedQueryEngine engine(store);
  bool saw2 = false;
  for (const auto& h : engine.topk(NodeId{0}, 16)) {
    if (h.node == NodeId{2}) saw2 = true;
    EXPECT_NE(h.node, NodeId{4});
    EXPECT_NE(h.node, NodeId{9});
  }
  EXPECT_TRUE(saw2);
}

TEST(Tombstones, EngineFiltersIvfPath) {
  serve::ShardedEmbeddingStore store(1);
  store.publish(random_matrix(64, kDims, 67));
  hide(store, {10, 40});

  serve::ShardedIndexConfig ivf_cfg;
  ivf_cfg.index.kind = serve::IndexConfig::Kind::kIvf;
  ivf_cfg.index.nprobe = 4;
  serve::ShardedQueryEngine ivf_engine(store, ivf_cfg);
  for (const auto& h : ivf_engine.topk(NodeId{10}, 64)) {
    EXPECT_NE(h.node, NodeId{10});
    EXPECT_NE(h.node, NodeId{40});
  }
}

TEST(Tombstones, OneShardStoreRoundTrip) {
  serve::ShardedEmbeddingStore store;
  store.publish(random_matrix(16, kDims, 71));
  EXPECT_EQ(hide(store, {3}), 2u);
  ASSERT_TRUE(store.shard(0)->tombstoned(3));
  EXPECT_EQ(store.rows_copied(), 16u);  // the bitmap flip copied no row
  serve::ShardedQueryEngine engine(store);
  for (const auto& h : engine.topk(NodeId{0}, 16)) {
    EXPECT_NE(h.node, NodeId{3});
  }
  // Republishing the row: everything served again.
  republish(store, {3}, 72);
  EXPECT_FALSE(store.shard(0)->tombstoned(3));
  EXPECT_EQ(store.tombstoned_rows(), 0u);
}

TEST(Tombstones, SinkDeltaFlipsBitsInOneVersion) {
  // on_delta's tombstone list edits the dead bits in the same version
  // as its rows: into an empty store (full publish), as a bitmap-only
  // delta, through the half-the-rows full fallback (which keeps the
  // bits of rows outside the delta), and by reviving a touched row.
  serve::ShardedEmbeddingStore store(2);
  TrainConfig tcfg;
  tcfg.dims = kDims;
  Rng mrng(72);
  auto model = make_model(ModelKind::kOselm, 16, tcfg, mrng);
  const TrainStats stats;
  const std::vector<NodeId> none, three = {3}, twelve = {12};
  store.on_delta(*model, stats, none, three);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.full_publishes(), 1u);
  EXPECT_EQ(store.tombstoned_rows(), 1u);
  ASSERT_TRUE(store.shard(0)->tombstoned(3));

  const auto copied = store.rows_copied();
  store.on_delta(*model, stats, none, twelve);
  EXPECT_EQ(store.version(), 2u);
  EXPECT_EQ(store.rows_copied(), copied);  // the bitmap flip copied no row
  EXPECT_EQ(store.tombstoned_rows(), 2u);

  std::vector<NodeId> most;  // half the rows: the full fallback
  for (NodeId v = 4; v < 12; ++v) most.push_back(v);
  store.on_delta(*model, stats, most, none);
  EXPECT_EQ(store.version(), 3u);
  EXPECT_EQ(store.full_publishes(), 2u);
  EXPECT_EQ(store.tombstoned_rows(), 2u);
  EXPECT_TRUE(store.shard(0)->tombstoned(3));
  EXPECT_TRUE(store.shard(1)->tombstoned(12 - 8));

  store.on_delta(*model, stats, three, none);
  EXPECT_EQ(store.version(), 4u);
  EXPECT_EQ(store.tombstoned_rows(), 1u);
  EXPECT_FALSE(store.shard(0)->tombstoned(3));
  serve::ShardedQueryEngine engine(store);
  for (const auto& h : engine.topk(NodeId{0}, 16)) {
    EXPECT_NE(h.node, NodeId{12});
  }
}

TEST(Tombstones, ConcurrentReadersSeeConsistentSnapshots) {
  // TSan hammer: one publisher alternating deltas and bitmap-only
  // publishes, readers scanning through fresh engines. Every access goes
  // through the RCU heads — no torn bitmaps, no use-after-free.
  serve::ShardedEmbeddingStore store(4);
  store.publish(random_matrix(48, kDims, 73));
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      serve::ShardedQueryEngine engine(store);
      const auto hits = engine.topk(NodeId{1}, 8);
      EXPECT_LE(hits.size(), 8u);
    }
  });
  for (int i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      hide(store, {7, 23, 33});
    } else {
      republish(store, {7, 40}, 100 + i);  // 7 revives
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GE(store.version(), 201u);
}

}  // namespace
}  // namespace seqge
