// Parameterized property sweeps (TEST_P) over configuration space:
// OS-ELM stability across dims/mu/p0, walker correctness across p/q,
// dataflow-vs-alg1 consistency across window sizes, and fixed-point core
// stability across value ranges.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "embedding/oselm_dataflow.hpp"
#include "embedding/oselm_skipgram.hpp"
#include "fpga/accelerator.hpp"
#include "graph/generators.hpp"
#include "graph/sliding_window.hpp"
#include "linalg/kernels.hpp"
#include "sampling/negative_sampler.hpp"
#include "util/rng.hpp"
#include "walk/corpus.hpp"
#include "walk/node2vec_walker.hpp"

namespace seqge {
namespace {

// ---------------------------------------------------------------------
// OS-ELM stability sweep: across (dims, mu, p0) the model must stay
// finite, keep P positive-diagonal, and reduce squared error on a
// repeated workload.
class OselmStabilityTest
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(OselmStabilityTest, StaysFiniteAndLearns) {
  const auto [dims, mu, p0] = GetParam();
  Rng rng(101);
  OselmSkipGram::Options opts;
  opts.dims = static_cast<std::size_t>(dims);
  opts.mu = mu;
  opts.p0 = p0;
  OselmSkipGram model(30, opts, rng);

  Rng wrng(102);
  std::vector<NodeId> walk(12);
  const std::vector<NodeId> negs = {27, 28, 29};
  double first = 0, last = 0;
  for (int iter = 0; iter < 50; ++iter) {
    for (auto& v : walk) v = static_cast<NodeId>(wrng.bounded(25));
    std::span<const NodeId> ws(walk);
    double err = 0;
    for_each_context(ws, 4, [&](const WalkContext& ctx) {
      err += model.train_context(ctx, negs);
    });
    if (iter == 0) first = err;
    last = err;
  }
  EXPECT_TRUE(std::isfinite(last));
  EXPECT_LT(last, first * 1.5) << "error must not blow up";
  for (std::size_t i = 0; i < opts.dims; ++i) {
    EXPECT_GT(model.covariance()(i, i), 0.0f);
    EXPECT_TRUE(std::isfinite(model.covariance()(i, i)));
  }
  for (float v : model.beta_transposed().flat()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsMuP0, OselmStabilityTest,
    ::testing::Combine(::testing::Values(4, 16, 48),
                       ::testing::Values(0.005, 0.01, 0.1),
                       ::testing::Values(1.0, 10.0, 100.0)));

// ---------------------------------------------------------------------
// Walker sweep: across (p, q) every step must follow an edge and the
// analytic one-step distribution must match empirically on a fixed
// small graph.
class WalkerBiasTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WalkerBiasTest, OneStepDistributionMatchesFormula) {
  const auto [p, q] = GetParam();
  // Lollipop: triangle 0-1-2 plus stick 2-3.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}};
  const Graph g = Graph::from_edges(4, edges);

  Node2VecParams params;
  params.p = p;
  params.q = q;
  Node2VecWalker<Graph> walker(g, params);

  // From (prev=0, cur=2): neighbors of 2 are {0, 1, 3}.
  //   0: return           -> 1/p
  //   1: adjacent to 0    -> 1
  //   3: distance 2       -> 1/q
  const double w0 = 1.0 / p, w1 = 1.0, w3 = 1.0 / q;
  const double z = w0 + w1 + w3;

  Rng rng(201);
  constexpr int kTrials = 30000;
  int c0 = 0, c1 = 0, c3 = 0;
  for (int i = 0; i < kTrials; ++i) {
    const NodeId nxt = walker.biased_step(rng, 0, 2);
    c0 += (nxt == 0);
    c1 += (nxt == 1);
    c3 += (nxt == 3);
  }
  EXPECT_EQ(c0 + c1 + c3, kTrials);
  EXPECT_NEAR(c0 / static_cast<double>(kTrials), w0 / z, 0.02);
  EXPECT_NEAR(c1 / static_cast<double>(kTrials), w1 / z, 0.02);
  EXPECT_NEAR(c3 / static_cast<double>(kTrials), w3 / z, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    PqGrid, WalkerBiasTest,
    ::testing::Combine(::testing::Values(0.25, 0.5, 1.0, 2.0),
                       ::testing::Values(0.5, 1.0, 2.0)));

// ---------------------------------------------------------------------
// Dataflow consistency sweep: for every window size, a walk with
// exactly one context must make Algorithm 2 equal Algorithm 1.
class DataflowWindowTest : public ::testing::TestWithParam<int> {};

TEST_P(DataflowWindowTest, OneContextEquivalence) {
  const auto window = static_cast<std::size_t>(GetParam());
  Rng ra(301), rb(301);
  OselmSkipGram::Options o1;
  o1.dims = 8;
  OselmSkipGramDataflow::Options o2;
  o2.dims = 8;
  // alg1 is driven through train_context; compare pure recursions.
  o2.reset_p_per_walk = false;
  OselmSkipGram alg1(16, o1, ra);
  OselmSkipGramDataflow alg2(16, o2, rb);

  Rng wrng(302);
  std::vector<NodeId> walk(window);
  const std::vector<NodeId> negs = {14, 15};
  for (int iter = 0; iter < 8; ++iter) {
    for (auto& v : walk) v = static_cast<NodeId>(wrng.bounded(12));
    WalkContext ctx{walk[0],
                    std::span<const NodeId>(walk).subspan(1)};
    alg1.train_context(ctx, negs);
    alg2.train_walk(walk, window, negs);
  }
  EXPECT_LT(max_abs_diff(alg1.beta_transposed(), alg2.beta_transposed()),
            1e-4)
      << "window " << window;
}

INSTANTIATE_TEST_SUITE_P(Windows, DataflowWindowTest,
                         ::testing::Values(2, 3, 5, 8, 12));

// ---------------------------------------------------------------------
// Fixed-point core sweep: across weight scales the core must stay
// saturation-free in its normal operating range and track the float
// reference.
class CoreScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(CoreScaleTest, TracksFloatReferenceAtScale) {
  const double scale = GetParam();
  fpga::AcceleratorConfig cfg;
  cfg.dims = 8;
  cfg.parallelism = 8;
  cfg.walk_length = 8;
  cfg.window = 4;
  cfg.negative_samples = 2;

  Rng rng(401);
  OselmSkipGramDataflow::Options opts;
  opts.dims = cfg.dims;
  opts.mu = cfg.mu;
  opts.p0 = cfg.p0;
  const std::size_t n = cfg.max_slots();
  OselmSkipGramDataflow ref(n, opts, rng);
  for (auto& v : ref.beta_transposed().flat()) {
    v *= static_cast<float>(scale);
  }

  fpga::PlCore core(n, {cfg.dims, cfg.mu, cfg.p0, cfg.reset_p_per_walk});
  std::vector<fpga::CoreFixed> row(cfg.dims);
  for (std::size_t v = 0; v < n; ++v) {
    auto src = ref.beta_transposed().row(v);
    for (std::size_t d = 0; d < cfg.dims; ++d) {
      row[d] = fpga::CoreFixed::from_double(src[d]);
    }
    core.load_beta_slot(v, row);
  }

  const std::vector<NodeId> walk = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<NodeId> negs = {8, 9};
  ref.train_walk(walk, cfg.window, negs);
  core.train_walk(walk, cfg.window, negs);

  double max_diff = 0;
  for (std::size_t v = 0; v < n; ++v) {
    auto fr = ref.beta_transposed().row(v);
    auto fc = core.beta_slot(v);
    for (std::size_t d = 0; d < cfg.dims; ++d) {
      max_diff = std::max(max_diff,
                          std::abs(fc[d].to_double() -
                                   static_cast<double>(fr[d])));
    }
  }
  EXPECT_LT(max_diff, 1e-3 * std::max(1.0, scale)) << "scale " << scale;
}

INSTANTIATE_TEST_SUITE_P(Scales, CoreScaleTest,
                         ::testing::Values(0.1, 1.0, 10.0, 40.0));

// ---------------------------------------------------------------------
// Corpus sweep: for every (walks_per_node, walk_length) the corpus
// bookkeeping must be exact.
class CorpusShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CorpusShapeTest, Bookkeeping) {
  const auto [r, l] = GetParam();
  const Graph g = make_ring(25, 4);
  Node2VecParams params;
  params.walk_length = static_cast<std::size_t>(l);
  params.window = 2;
  Rng rng(501);
  const WalkCorpus corpus =
      generate_corpus(g, params, static_cast<std::size_t>(r), rng);
  EXPECT_EQ(corpus.walks.size(), 25u * static_cast<std::size_t>(r));
  std::uint64_t visits = 0;
  for (const auto& w : corpus.walks) {
    EXPECT_EQ(w.size(), static_cast<std::size_t>(l));
    visits += w.size();
  }
  std::uint64_t freq = 0;
  for (auto f : corpus.frequency) freq += f;
  EXPECT_EQ(freq, visits);
}

INSTANTIATE_TEST_SUITE_P(Shapes, CorpusShapeTest,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Values(2, 10, 40)));

// ---------------------------------------------------------------------
// Sliding-window interleaving sweep: after any random interleaving of
// insert / remove / expire, the incrementally maintained structures
// (adjacency, degree table, alias sampler) must be indistinguishable
// from ones built fresh from the surviving edge set.
class WindowInterleavingTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowInterleavingTest, MatchesFreshlyBuiltGraph) {
  constexpr std::size_t kN = 20;
  SlidingWindowGraph::Options opts;
  opts.max_age = 30;
  opts.max_edges = 40;
  opts.sampler_rebuild_interval = 7;  // force frequent lazy rebuilds
  SlidingWindowGraph win(kN, opts);

  // Reference: the live edge set, in insertion (== stamp) order.
  struct RefEdge {
    NodeId u, v;
    float w;
    std::uint64_t stamp;
  };
  std::vector<RefEdge> live;
  auto ref_find = [&](NodeId u, NodeId v) {
    return std::find_if(live.begin(), live.end(), [&](const RefEdge& e) {
      return (e.u == u && e.v == v) || (e.u == v && e.v == u);
    });
  };

  Rng rng(600 + static_cast<std::uint64_t>(GetParam()));
  std::uint64_t clock = 0;
  std::vector<ExpiredEdge> evicted;
  for (int op = 0; op < 400; ++op) {
    const std::uint64_t roll = rng.bounded(10);
    if (roll < 6) {  // insert
      const auto u = static_cast<NodeId>(rng.bounded(kN));
      const auto v = static_cast<NodeId>(rng.bounded(kN));
      const float w = 1.0f + 0.25f * static_cast<float>(rng.bounded(4));
      const std::uint64_t token = win.add_edge(u, v, w, clock);
      if (u == v || ref_find(u, v) != live.end()) {
        EXPECT_EQ(token, SlidingWindowGraph::kInvalidToken);
      } else {
        ASSERT_NE(token, SlidingWindowGraph::kInvalidToken);
        live.push_back({u, v, w, clock});
      }
    } else if (roll < 8) {  // remove a random pair, live or not
      const auto u = static_cast<NodeId>(rng.bounded(kN));
      const auto v = static_cast<NodeId>(rng.bounded(kN));
      const auto it = ref_find(u, v);
      const auto removed = win.remove_edge(u, v);
      ASSERT_EQ(removed.has_value(), it != live.end());
      if (it != live.end()) {
        EXPECT_EQ(removed->stamp, it->stamp);
        live.erase(it);
      }
    } else {  // advance the clock and expire
      clock += rng.bounded(8);
      evicted.clear();
      const std::size_t n = win.expire(clock, evicted);
      EXPECT_EQ(n, evicted.size());
      // Mirror the age horizon…
      if (clock > opts.max_age) {
        const std::uint64_t cutoff = clock - opts.max_age;
        std::erase_if(live, [&](const RefEdge& e) { return e.stamp < cutoff; });
      }
      // …and the capacity horizon (oldest-first).
      while (live.size() > opts.max_edges) live.erase(live.begin());
    }
    clock += rng.bounded(2);
  }

  // Fresh rebuild from the surviving edges.
  DynamicGraph fresh(kN);
  for (const RefEdge& e : live) {
    ASSERT_TRUE(fresh.add_edge(e.u, e.v, e.w));
  }

  ASSERT_EQ(win.num_edges(), fresh.num_edges());
  std::vector<std::uint64_t> fresh_counts(kN);
  for (NodeId u = 0; u < kN; ++u) {
    ASSERT_EQ(win.degree(u), fresh.degree(u)) << "node " << u;
    EXPECT_NEAR(win.weighted_degree(u), fresh.weighted_degree(u), 1e-6);
    fresh_counts[u] = fresh.degree(u);
    // Same neighbor sets with the same weights (order may differ).
    auto wn = win.neighbors(u);
    std::vector<NodeId> a(wn.begin(), wn.end());
    auto fn = fresh.neighbors(u);
    std::vector<NodeId> b(fn.begin(), fn.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "node " << u;
    for (NodeId v : a) {
      EXPECT_EQ(win.edge_weight(u, v), fresh.edge_weight(u, v));
    }
  }

  // The degree table feeding the sampler is exact…
  EXPECT_EQ(win.degree_counts(), fresh_counts);
  // …and the alias table built from it is the one a fresh build gives:
  // construction is deterministic from counts, so equal-seed draws
  // must agree exactly.
  const NegativeSampler& ws = win.refresh_sampler();
  const NegativeSampler fs(fresh_counts);
  Rng ra(777), rb(777);
  for (int i = 0; i < 512; ++i) {
    ASSERT_EQ(ws.sample(ra), fs.sample(rb)) << "draw " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowInterleavingTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace seqge
