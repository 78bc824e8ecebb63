// Gates for the fused training-kernel layer (PR 9):
//  - fused vs force_unfused whole-model BIT identity for all three CPU
//    backends, in every negative mode, including duplicate-negative
//    walks (which must take the sequential fallback);
//  - steady-state train_walk performs ZERO heap allocations (pinned
//    with an operator-new counter, same technique as test_obs).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "embedding/oselm_dataflow.hpp"
#include "linalg/kernels.hpp"
#include "embedding/oselm_skipgram.hpp"
#include "embedding/skipgram_sgd.hpp"
#include "sampling/negative_sampler.hpp"
#include "util/rng.hpp"

// Global allocation counter: every scalar/array new in this binary
// routes through here (aligned news keep their defaults — nothing on
// the training paths allocates aligned storage).
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace seqge {
namespace {

constexpr std::size_t kNodes = 60;
constexpr std::size_t kDims = 24;  // not a multiple of 8: exercises tails
constexpr std::size_t kWindow = 5;
constexpr std::size_t kNs = 6;

/// Deterministic pseudo-walk corpus over kNodes nodes.
std::vector<std::vector<NodeId>> make_walks(std::size_t count,
                                            std::size_t len,
                                            std::uint64_t seed) {
  std::vector<std::vector<NodeId>> walks(count);
  Rng rng(seed);
  for (auto& w : walks) {
    w.resize(len);
    for (auto& v : w) {
      v = static_cast<NodeId>(rng.next() % kNodes);
    }
  }
  return walks;
}

NegativeSampler make_sampler() {
  std::vector<std::uint64_t> counts(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) counts[i] = 1 + i % 7;
  return NegativeSampler(counts);
}

bool bits_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------
// Fused vs unfused bit identity
// ---------------------------------------------------------------------

TEST(FusedIdentity, SkipGramPerContext) {
  Rng ra(7), rb(7);
  SkipGramSGD fused(kNodes, kDims, ra);
  SkipGramSGD ref(kNodes, kDims, rb);
  ref.set_force_unfused(true);
  const auto walks = make_walks(12, 30, 100);
  const auto sampler = make_sampler();
  double loss_f = 0.0, loss_r = 0.0;
  for (std::size_t i = 0; i < walks.size(); ++i) {
    Rng sa(1000 + i), sb(1000 + i);
    loss_f += fused.train_walk(walks[i], kWindow, sampler, kNs,
                               NegativeMode::kPerContext, sa, 0.025);
    loss_r += ref.train_walk(walks[i], kWindow, sampler, kNs,
                             NegativeMode::kPerContext, sb, 0.025);
  }
  EXPECT_EQ(loss_f, loss_r);
  EXPECT_TRUE(bits_equal(fused.embeddings().flat(), ref.embeddings().flat()));
  EXPECT_TRUE(bits_equal(fused.output_weights().flat(),
                         ref.output_weights().flat()));
}

TEST(FusedIdentity, SkipGramPerWalkSharedNegatives) {
  Rng ra(8), rb(8);
  SkipGramSGD fused(kNodes, kDims, ra);
  SkipGramSGD ref(kNodes, kDims, rb);
  ref.set_force_unfused(true);
  const auto walks = make_walks(12, 30, 200);
  const auto sampler = make_sampler();
  for (std::size_t i = 0; i < walks.size(); ++i) {
    Rng sa(2000 + i), sb(2000 + i);
    fused.train_walk(walks[i], kWindow, sampler, kNs,
                     NegativeMode::kPerWalk, sa, 0.025);
    ref.train_walk(walks[i], kWindow, sampler, kNs, NegativeMode::kPerWalk,
                   sb, 0.025);
  }
  EXPECT_TRUE(bits_equal(fused.embeddings().flat(), ref.embeddings().flat()));
  EXPECT_TRUE(bits_equal(fused.output_weights().flat(),
                         ref.output_weights().flat()));
}

TEST(FusedIdentity, SkipGramDuplicateNegativesFallBack) {
  // Duplicate draws must route through the sequential path and still
  // match the reference exactly.
  Rng ra(9), rb(9);
  SkipGramSGD fused(kNodes, kDims, ra);
  SkipGramSGD ref(kNodes, kDims, rb);
  ref.set_force_unfused(true);
  const std::vector<NodeId> dup_negs = {3, 11, 3, 20, 11};
  const auto walks = make_walks(6, 20, 300);
  for (const auto& w : walks) {
    const double lf = fused.train_walk(w, kWindow, dup_negs, 0.05);
    const double lr = ref.train_walk(w, kWindow, dup_negs, 0.05);
    EXPECT_EQ(lf, lr);
  }
  EXPECT_TRUE(bits_equal(fused.embeddings().flat(), ref.embeddings().flat()));
  EXPECT_TRUE(bits_equal(fused.output_weights().flat(),
                         ref.output_weights().flat()));
}

TEST(FusedIdentity, OselmBothModes) {
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  for (const auto mode :
       {NegativeMode::kPerContext, NegativeMode::kPerWalk}) {
    Rng ra(11), rb(11);
    OselmSkipGram fused(kNodes, opts, ra);
    OselmSkipGram ref(kNodes, opts, rb);
    ref.set_force_unfused(true);
    const auto walks = make_walks(10, 25, 400);
    const auto sampler = make_sampler();
    double loss_f = 0.0, loss_r = 0.0;
    for (std::size_t i = 0; i < walks.size(); ++i) {
      Rng sa(3000 + i), sb(3000 + i);
      loss_f += fused.train_walk(walks[i], kWindow, sampler, kNs, mode, sa);
      loss_r += ref.train_walk(walks[i], kWindow, sampler, kNs, mode, sb);
    }
    EXPECT_EQ(loss_f, loss_r);
    EXPECT_TRUE(bits_equal(fused.beta_transposed().flat(),
                           ref.beta_transposed().flat()));
    EXPECT_TRUE(
        bits_equal(fused.covariance().flat(), ref.covariance().flat()));
  }
}

TEST(FusedIdentity, OselmDuplicateNegativesFallBack) {
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  Rng ra(12), rb(12);
  OselmSkipGram fused(kNodes, opts, ra);
  OselmSkipGram ref(kNodes, opts, rb);
  ref.set_force_unfused(true);
  const std::vector<NodeId> dup_negs = {5, 5, 17, 23, 17, 9};
  for (const auto& w : make_walks(6, 20, 500)) {
    EXPECT_EQ(fused.train_walk(w, kWindow, dup_negs),
              ref.train_walk(w, kWindow, dup_negs));
  }
  EXPECT_TRUE(bits_equal(fused.beta_transposed().flat(),
                         ref.beta_transposed().flat()));
}

TEST(FusedIdentity, DataflowSharedNegatives) {
  OselmSkipGramDataflow::Options opts;
  opts.dims = kDims;
  Rng ra(13), rb(13);
  OselmSkipGramDataflow fused(kNodes, opts, ra);
  OselmSkipGramDataflow ref(kNodes, opts, rb);
  ref.set_force_unfused(true);
  const auto walks = make_walks(10, 25, 600);
  const auto sampler = make_sampler();
  double loss_f = 0.0, loss_r = 0.0;
  for (std::size_t i = 0; i < walks.size(); ++i) {
    Rng sa(4000 + i), sb(4000 + i);
    loss_f += fused.train_walk(walks[i], kWindow, sampler, kNs, sa);
    loss_r += ref.train_walk(walks[i], kWindow, sampler, kNs, sb);
  }
  EXPECT_EQ(loss_f, loss_r);
  EXPECT_TRUE(bits_equal(fused.beta_transposed().flat(),
                         ref.beta_transposed().flat()));
  EXPECT_TRUE(
      bits_equal(fused.covariance().flat(), ref.covariance().flat()));
}

TEST(FusedIdentity, DataflowDuplicateNegativesFallBack) {
  OselmSkipGramDataflow::Options opts;
  opts.dims = kDims;
  Rng ra(14), rb(14);
  OselmSkipGramDataflow fused(kNodes, opts, ra);
  OselmSkipGramDataflow ref(kNodes, opts, rb);
  ref.set_force_unfused(true);
  const std::vector<NodeId> dup_negs = {2, 31, 2, 8};
  for (const auto& w : make_walks(6, 20, 700)) {
    EXPECT_EQ(fused.train_walk(w, kWindow, dup_negs),
              ref.train_walk(w, kWindow, dup_negs));
  }
  EXPECT_TRUE(bits_equal(fused.beta_transposed().flat(),
                         ref.beta_transposed().flat()));
}

// ---------------------------------------------------------------------
// Steady-state allocation freedom
// ---------------------------------------------------------------------

// One warmup pass sizes every scratch vector; a second pass over the
// SAME walk sequence must not touch the heap at all.
template <typename TrainPass>
void expect_steady_state_alloc_free(TrainPass&& pass) {
  pass();  // warmup: scratch vectors grow to their steady-state sizes
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  pass();
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "train_walk allocated in steady state";
}

TEST(SteadyStateAlloc, SkipGram) {
  Rng rng(21);
  SkipGramSGD m(kNodes, kDims, rng);
  const auto walks = make_walks(8, 30, 800);
  const auto sampler = make_sampler();
  for (const auto mode :
       {NegativeMode::kPerContext, NegativeMode::kPerWalk}) {
    expect_steady_state_alloc_free([&] {
      for (std::size_t i = 0; i < walks.size(); ++i) {
        Rng sr(5000 + i);
        m.train_walk(walks[i], kWindow, sampler, kNs, mode, sr, 0.025);
      }
    });
  }
}

TEST(SteadyStateAlloc, Oselm) {
  OselmSkipGram::Options opts;
  opts.dims = kDims;
  Rng rng(22);
  OselmSkipGram m(kNodes, opts, rng);
  const auto walks = make_walks(8, 30, 900);
  const auto sampler = make_sampler();
  for (const auto mode :
       {NegativeMode::kPerContext, NegativeMode::kPerWalk}) {
    expect_steady_state_alloc_free([&] {
      for (std::size_t i = 0; i < walks.size(); ++i) {
        Rng sr(6000 + i);
        m.train_walk(walks[i], kWindow, sampler, kNs, mode, sr);
      }
    });
  }
}

TEST(SteadyStateAlloc, Dataflow) {
  OselmSkipGramDataflow::Options opts;
  opts.dims = kDims;
  Rng rng(23);
  OselmSkipGramDataflow m(kNodes, opts, rng);
  const auto walks = make_walks(8, 30, 950);
  const auto sampler = make_sampler();
  expect_steady_state_alloc_free([&] {
    for (std::size_t i = 0; i < walks.size(); ++i) {
      Rng sr(7000 + i);
      m.train_walk(walks[i], kWindow, sampler, kNs, sr);
    }
  });
}

}  // namespace
}  // namespace seqge
