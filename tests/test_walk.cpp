// Tests for the node2vec rejection walker, context windowing, and corpus
// generation — including the statistical property that every transition
// is drawn with its exact node2vec probability (enumerated by
// walk_oracle.hpp) on static and sliding-window graphs, and that p/q
// steer the walk as Sec. 2.1 describes.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/sliding_window.hpp"
#include "util/rng.hpp"
#include "walk/corpus.hpp"
#include "walk/node2vec_walker.hpp"
#include "walk_oracle.hpp"

namespace seqge {
namespace {

TEST(Node2VecParams, Validation) {
  Node2VecParams p;
  EXPECT_NO_THROW(p.validate());
  p.p = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Node2VecParams{};
  p.window = 100;
  p.walk_length = 50;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Walker, WalkHasRequestedLength) {
  const Graph g = make_ring(20, 4);
  Node2VecParams params;
  params.walk_length = 15;
  Node2VecWalker<Graph> walker(g, params);
  Rng rng(1);
  const auto walk = walker.walk(rng, 3);
  EXPECT_EQ(walk.size(), 15u);
  EXPECT_EQ(walk[0], 3u);
}

TEST(Walker, ConsecutiveNodesAreConnected) {
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 200, .target_edges = 800, .num_classes = 4, .seed = 2});
  Node2VecParams params;
  params.walk_length = 40;
  Node2VecWalker<Graph> walker(data.graph, params);
  Rng rng(2);
  for (int t = 0; t < 20; ++t) {
    const auto start = static_cast<NodeId>(rng.bounded(200));
    const auto walk = walker.walk(rng, start);
    for (std::size_t i = 1; i < walk.size(); ++i) {
      ASSERT_TRUE(data.graph.has_edge(walk[i - 1], walk[i]))
          << walk[i - 1] << " -> " << walk[i];
    }
  }
}

TEST(Walker, IsolatedStartYieldsSingleton) {
  const std::vector<Edge> edges = {{0, 1}};
  const Graph g = Graph::from_edges(3, edges);  // node 2 isolated
  Node2VecWalker<Graph> walker(g, Node2VecParams{});
  Rng rng(3);
  const auto walk = walker.walk(rng, 2);
  EXPECT_EQ(walk.size(), 1u);
}

TEST(Walker, ReturnParameterBiasesBacktracking) {
  // Path graph 0-1-2. From (prev=0, cur=1) the only options are back to
  // 0 (alpha=1/p) or on to 2 (alpha=1/q, since d(0,2)=2). With p small,
  // returns dominate; with p large, they are rare.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);

  auto return_rate = [&](double p) {
    Node2VecParams params;
    params.p = p;
    params.q = 1.0;
    Node2VecWalker<Graph> walker(g, params);
    Rng rng(4);
    int back = 0;
    constexpr int kTrials = 20000;
    for (int i = 0; i < kTrials; ++i) {
      back += (walker.biased_step(rng, /*prev=*/0, /*cur=*/1) == 0);
    }
    return back / static_cast<double>(kTrials);
  };

  // Expected: (1/p) / (1/p + 1).
  EXPECT_NEAR(return_rate(0.25), 0.8, 0.02);
  EXPECT_NEAR(return_rate(4.0), 0.2, 0.02);
}

TEST(Walker, InOutParameterBiasesExploration) {
  // Square with a diagonal: 0-1, 1-2, 2-3, 3-0, 0-2.
  // From (prev=0, cur=1): candidates 0 (return), 2 (triangle, d=1).
  // From (prev=1, cur=2): candidates 1 (return), 0 (d=1 from 1), 3 (d=2).
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Graph g = Graph::from_edges(4, edges);

  auto explore_rate = [&](double q) {
    Node2VecParams params;
    params.p = 1.0;
    params.q = q;
    Node2VecWalker<Graph> walker(g, params);
    Rng rng(5);
    int to3 = 0;
    constexpr int kTrials = 20000;
    for (int i = 0; i < kTrials; ++i) {
      to3 += (walker.biased_step(rng, /*prev=*/1, /*cur=*/2) == 3);
    }
    return to3 / static_cast<double>(kTrials);
  };

  // Expected: (1/q) / (1 + 1 + 1/q).
  EXPECT_NEAR(explore_rate(0.5), 2.0 / 4.0, 0.02);
  EXPECT_NEAR(explore_rate(2.0), 0.5 / 2.5, 0.02);
}

TEST(Walker, RespectsEdgeWeights) {
  // First step from node 0: neighbors 1 (weight 9) and 2 (weight 1).
  const std::vector<Edge> edges = {{0, 1, 9.0f}, {0, 2, 1.0f}};
  const Graph g = Graph::from_edges(3, edges);
  Node2VecParams params;
  params.walk_length = 2;
  params.window = 2;
  Node2VecWalker<Graph> walker(g, params);
  Rng rng(6);
  int heavy = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) heavy += (walker.walk(rng, 0)[1] == 1);
  EXPECT_NEAR(heavy / static_cast<double>(kTrials), 0.9, 0.01);
}

TEST(Walker, WorksOnDynamicGraph) {
  DynamicGraph dg(5);
  dg.add_edge(0, 1);
  dg.add_edge(1, 2);
  Node2VecParams params;
  params.walk_length = 10;
  Node2VecWalker<DynamicGraph> walker(dg, params);
  Rng rng(7);
  auto walk = walker.walk(rng, 0);
  EXPECT_EQ(walk.size(), 10u);
  // Adding an edge immediately affects subsequent walks.
  dg.add_edge(2, 3);
  bool reached3 = false;
  for (int i = 0; i < 50 && !reached3; ++i) {
    for (NodeId v : walker.walk(rng, 0)) reached3 |= (v == 3);
  }
  EXPECT_TRUE(reached3);
}

/// For each (p, q) in {0.25, 1, 4}^2, every first step from every node
/// and every second-order step along every arc (prev -> cur) of `g`:
/// the frequency of each transition over kDraws draws must lie within
/// 5 sigma of its probability enumerated from w * alpha. Five, not
/// four: the graphs below make ~1.4k such checks, and a 4 sigma bound
/// would fail a correct walker in about one seed of twelve. Returns the
/// number of transitions checked.
template <typename GraphT>
std::size_t expect_exact_transitions(const GraphT& g, std::uint64_t seed) {
  constexpr std::size_t kDraws = 40000;
  std::size_t checked = 0;
  Rng rng(seed);
  std::vector<NodeId> walk;
  for (const double p : {0.25, 1.0, 4.0}) {
    for (const double q : {0.25, 1.0, 4.0}) {
      Node2VecParams params;
      params.p = p;
      params.q = q;
      params.walk_length = 2;
      params.window = 2;
      const Node2VecWalker<GraphT> walker(g, params);
      for (NodeId cur = 0; cur < g.num_nodes(); ++cur) {
        const auto nbrs = g.neighbors(cur);
        if (nbrs.empty()) continue;
        std::vector<NodeId> prevs{test::kNoPrev};  // the first step
        prevs.insert(prevs.end(), nbrs.begin(), nbrs.end());
        for (const NodeId prev : prevs) {
          const std::vector<double> w =
              test::transition_weights(g, params, prev, cur);
          double total = 0.0;
          for (double x : w) total += x;
          std::map<NodeId, std::size_t> counts;
          for (std::size_t d = 0; d < kDraws; ++d) {
            if (prev == test::kNoPrev) {
              walker.walk_into(rng, cur, walk);
              ++counts[walk.at(1)];
            } else {
              ++counts[walker.biased_step(rng, prev, cur)];
            }
          }
          std::size_t hits = 0;
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            const double prob = w[i] / total;
            const std::size_t n = counts[nbrs[i]];
            const double freq = static_cast<double>(n) / kDraws;
            const double sigma = std::sqrt(prob * (1.0 - prob) / kDraws);
            EXPECT_LE(std::abs(freq - prob), 5.0 * sigma + 1e-12)
                << "p=" << p << " q=" << q << " prev=" << prev
                << " cur=" << cur << " x=" << nbrs[i];
            hits += n;
            ++checked;
          }
          EXPECT_EQ(hits, kDraws) << "stepped off cur=" << cur;
        }
      }
    }
  }
  return checked;
}

TEST(Walker, MatchesExactTransitionDistribution) {
  // Static graph with weights above 1 and a merged duplicate edge
  // (0-1: 2 + 2.5), so the rejection bound W = 4.5 is itself a merge.
  const std::vector<Edge> edges = {
      {0, 1, 2.0f}, {1, 0, 2.5f}, {0, 2, 1.0f}, {1, 2, 0.5f},
      {2, 3, 3.0f}, {3, 4, 1.0f}, {2, 4, 0.25f}, {4, 5, 2.0f},
      {5, 6, 1.5f}, {6, 2, 1.0f}, {6, 7, 0.75f}};
  const Graph g = Graph::from_edges(8, edges);
  ASSERT_FLOAT_EQ(g.max_weight(), 4.5f);
  std::size_t checked = expect_exact_transitions(g, 1);

  // Window graph after explicit removals and age expiry: W stays at the
  // removed heaviest edge's 6.0 (a bound, no longer the maximum), nodes
  // 8 and 9 are dead, and node 7 dangles on one edge.
  SlidingWindowGraph::Options opts;
  opts.max_age = 10;
  SlidingWindowGraph window(10, opts);
  std::uint64_t stamp = 0;
  window.add_edge(8, 9, 1.0f, ++stamp);  // expires
  window.add_edge(8, 0, 2.0f, ++stamp);  // expires
  for (const Edge& e : edges) window.add_edge(e.src, e.dst, e.weight, ++stamp);
  window.add_edge(3, 5, 6.0f, ++stamp);
  window.add_edge(0, 3, 0.5f, ++stamp);
  ASSERT_TRUE(window.remove_edge(3, 5));
  ASSERT_TRUE(window.remove_edge(1, 2));
  std::vector<ExpiredEdge> expired;
  window.expire(13, expired);
  ASSERT_EQ(expired.size(), 2u);
  ASSERT_FLOAT_EQ(window.max_weight(), 6.0f);
  ASSERT_EQ(window.degree(8) + window.degree(9), 0u);
  ASSERT_EQ(window.degree(7), 1u);
  Rng rng(2);
  EXPECT_EQ(Node2VecWalker<SlidingWindowGraph>(window, Node2VecParams{})
                .walk(rng, 9)
                .size(),
            1u);
  checked += expect_exact_transitions(window, 3);

  EXPECT_GE(checked, 1400u);
}

TEST(Windowing, ContextCountMatchesPaper) {
  // l = 80, w = 8 -> 73 contexts (Sec. 4.2).
  EXPECT_EQ(num_contexts(80, 8), 73u);
  EXPECT_EQ(num_contexts(8, 8), 1u);
  EXPECT_EQ(num_contexts(7, 8), 0u);
}

TEST(Windowing, CentersAndPositives) {
  const std::vector<NodeId> walk = {10, 11, 12, 13, 14};
  std::vector<NodeId> centers;
  std::vector<std::size_t> positive_counts;
  for_each_context(std::span<const NodeId>(walk), 3,
                   [&](const WalkContext& ctx) {
                     centers.push_back(ctx.center);
                     positive_counts.push_back(ctx.positives.size());
                   });
  ASSERT_EQ(centers.size(), 3u);
  EXPECT_EQ(centers[0], 10u);
  EXPECT_EQ(centers[2], 12u);
  for (auto c : positive_counts) EXPECT_EQ(c, 2u);
}

TEST(Windowing, FirstContextPositivesFollowCenter) {
  const std::vector<NodeId> walk = {1, 2, 3, 4};
  for_each_context(std::span<const NodeId>(walk), 4,
                   [&](const WalkContext& ctx) {
                     EXPECT_EQ(ctx.center, 1u);
                     ASSERT_EQ(ctx.positives.size(), 3u);
                     EXPECT_EQ(ctx.positives[0], 2u);
                     EXPECT_EQ(ctx.positives[2], 4u);
                   });
}

TEST(Corpus, CountsAndFrequencies) {
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 100, .target_edges = 400, .num_classes = 4, .seed = 11});
  Node2VecParams params;
  params.walk_length = 20;
  const WalkCorpus corpus =
      generate_corpus_pipelined(data.graph, params, 3, 12, 0);
  EXPECT_EQ(corpus.walks.size(), 300u);

  std::uint64_t total_visits = 0;
  for (const auto& w : corpus.walks) total_visits += w.size();
  std::uint64_t freq_sum = 0;
  for (auto f : corpus.frequency) freq_sum += f;
  EXPECT_EQ(freq_sum, total_visits);
  EXPECT_EQ(corpus.total_contexts(8), 300u * num_contexts(20, 8));
}

TEST(Corpus, PipelinedIsThreadCountInvariant) {
  // The per-walk-seeded corpus must be identical for any thread count —
  // same walks in the same slots for the same seed.
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 80, .target_edges = 320, .num_classes = 4, .seed = 21});
  Node2VecParams params;
  params.walk_length = 16;
  const WalkCorpus a = generate_corpus_pipelined(data.graph, params, 3, 42, 0);
  const WalkCorpus b = generate_corpus_pipelined(data.graph, params, 3, 42, 3);
  ASSERT_EQ(a.walks.size(), b.walks.size());
  for (std::size_t i = 0; i < a.walks.size(); ++i) {
    EXPECT_EQ(a.walks[i], b.walks[i]) << "walk " << i;
  }
  EXPECT_EQ(a.frequency, b.frequency);

  // Different seeds give different corpora.
  const WalkCorpus c = generate_corpus_pipelined(data.graph, params, 3, 43, 0);
  bool differs = false;
  for (std::size_t i = 0; i < a.walks.size() && !differs; ++i) {
    differs = (a.walks[i] != c.walks[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(Corpus, PipelinedWalksFollowStartOrder) {
  const Graph g = make_ring(25, 4);
  Node2VecParams params;
  params.walk_length = 12;
  const WalkCorpus corpus = generate_corpus_pipelined(g, params, 4, 7, 0);
  const std::vector<NodeId> starts = pipelined_start_order(g, 4, 7);
  ASSERT_EQ(corpus.walks.size(), starts.size());
  for (std::size_t w = 0; w < starts.size(); ++w) {
    EXPECT_EQ(corpus.walks[w][0], starts[w]) << "walk " << w;
  }
}

TEST(Corpus, EveryNodeStartsWalks) {
  const Graph g = make_ring(30, 2);
  Node2VecParams params;
  params.walk_length = 5;
  params.window = 2;
  const WalkCorpus corpus = generate_corpus_pipelined(g, params, 2, 13, 0);
  std::vector<int> starts(30, 0);
  for (const auto& w : corpus.walks) ++starts[w[0]];
  for (int s : starts) EXPECT_EQ(s, 2);
}

}  // namespace
}  // namespace seqge
