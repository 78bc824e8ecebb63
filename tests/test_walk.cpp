// Tests for the node2vec walkers (on-the-fly and rejection-sampling),
// context windowing, and corpus generation — including the statistical
// property that both sampling strategies draw from the same biased
// distribution, and that p/q steer the walk as Sec. 2.1 describes.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/sliding_window.hpp"
#include "util/rng.hpp"
#include "walk/corpus.hpp"
#include "walk/node2vec_walker.hpp"

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

// Reference on-the-fly walk in its direct form: a first step by edge
// weight, then two passes over cur's neighbors with one has_edge()
// binary search per neighbor per pass. Node2VecWalker's merge-based
// step must reproduce it bit for bit, RNG draws included.
template <typename GraphT>
std::vector<NodeId> reference_walk(const GraphT& g,
                                   const Node2VecParams& params, Rng& rng,
                                   NodeId start) {
  std::vector<NodeId> out{start};
  if (g.degree(start) == 0) return out;
  {
    const auto nbrs = g.neighbors(start);
    const auto ws = g.weights(start);
    double total = 0.0;
    for (float w : ws) total += w;
    double r = rng.uniform() * total;
    NodeId next = nbrs.back();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      r -= ws[i];
      if (r <= 0.0) {
        next = nbrs[i];
        break;
      }
    }
    out.push_back(next);
  }
  const double inv_p = 1.0 / params.p;
  const double inv_q = 1.0 / params.q;
  while (out.size() < params.walk_length) {
    const NodeId cur = out.back();
    const NodeId prev = out[out.size() - 2];
    if (g.degree(cur) == 0) break;
    auto bias = [&](NodeId x) {
      if (x == prev) return inv_p;
      if (g.has_edge(prev, x)) return 1.0;
      return inv_q;
    };
    const auto nbrs = g.neighbors(cur);
    const auto ws = g.weights(cur);
    double total = 0.0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      total += ws[i] * bias(nbrs[i]);
    }
    double r = rng.uniform() * total;
    NodeId next = nbrs.back();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      r -= ws[i] * bias(nbrs[i]);
      if (r <= 0.0) {
        next = nbrs[i];
        break;
      }
    }
    out.push_back(next);
  }
  return out;
}

/// Compare `walks` walker walks against reference_walk for every
/// (p, q) in {0.25, 1, 4}^2, each walk from its own seed; returns the
/// number of walks compared.
template <typename GraphT>
std::size_t expect_reference_walks(const GraphT& g, std::size_t walks,
                                   std::uint64_t seed) {
  std::size_t compared = 0;
  for (const double p : {0.25, 1.0, 4.0}) {
    for (const double q : {0.25, 1.0, 4.0}) {
      Node2VecParams params;
      params.p = p;
      params.q = q;
      params.walk_length = 24;
      params.window = 4;
      const Node2VecWalker<GraphT> walker(g, params);
      Rng starts(seed);
      std::vector<NodeId> got;
      for (std::size_t w = 0; w < walks; ++w) {
        const auto start = static_cast<NodeId>(starts.bounded(g.num_nodes()));
        Rng a(seed * 1000003 + w), b(seed * 1000003 + w);
        walker.walk_into(a, start, got);
        const std::vector<NodeId> want = reference_walk(g, params, b, start);
        EXPECT_EQ(got, want) << "p=" << p << " q=" << q << " walk " << w;
        EXPECT_EQ(a.next(), b.next()) << "RNG draws diverged, walk " << w;
        if (got != want) return compared;
        ++compared;
      }
    }
  }
  return compared;
}

/// Hubs (Barabasi-Albert) plus a ring lattice (dense triangles), with
/// weights in [0.25, 4).
std::vector<Edge> weighted_test_edges(std::size_t n, std::uint64_t seed) {
  std::vector<Edge> edges = make_barabasi_albert(n, 3, seed).edge_list();
  for (const Edge& e : make_ring(n, 3).edge_list()) edges.push_back(e);
  Rng rng(seed + 1);
  for (Edge& e : edges) {
    e.weight = static_cast<float>(0.25 + 3.75 * rng.uniform());
  }
  return edges;
}

TEST(Walker, MatchesReferenceStepBitForBit) {
  constexpr std::size_t kN = 400;
  constexpr std::size_t kWalks = 4000;  // x 9 (p, q) pairs x 3 graphs
  const std::vector<Edge> edges = weighted_test_edges(kN, 31);
  std::size_t compared = 0;

  const Graph g = Graph::from_edges(kN, edges);
  compared += expect_reference_walks(g, kWalks, 1);

  // Mutable graph after churn: a sixth of the edges removed, some
  // re-added with new weights.
  DynamicGraph dyn(kN);
  for (const Edge& e : edges) dyn.add_edge(e.src, e.dst, e.weight);
  Rng churn(32);
  for (std::size_t i = 0; i < edges.size(); i += 6) {
    dyn.remove_edge(edges[i].src, edges[i].dst);
  }
  for (std::size_t i = 0; i < edges.size(); i += 18) {
    dyn.add_edge(edges[i].src, edges[i].dst,
                 static_cast<float>(0.5 + churn.uniform()));
  }
  compared += expect_reference_walks(dyn, kWalks, 2);

  // Window graph: walks before and after age expiry plus explicit
  // removals.
  SlidingWindowGraph::Options opts;
  opts.max_age = edges.size();
  SlidingWindowGraph window(kN, opts);
  std::uint64_t stamp = 0;
  for (const Edge& e : edges) window.add_edge(e.src, e.dst, e.weight, ++stamp);
  compared += expect_reference_walks(window, kWalks / 4, 3);
  std::vector<ExpiredEdge> expired;  // the oldest third
  window.expire(stamp + stamp / 3, expired);
  ASSERT_FALSE(expired.empty());
  for (std::size_t i = 0; i < edges.size(); i += 7) {
    window.remove_edge(edges[i].src, edges[i].dst);
  }
  ASSERT_LT(window.num_edges(), edges.size() - expired.size());
  compared += expect_reference_walks(window, kWalks * 3 / 4, 4);

  EXPECT_GE(compared, 100000u);
}

TEST(RejectionWalker, MatchesOnTheFlyDistribution) {
  // Both strategies must sample the same second-order distribution.
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 60, .target_edges = 240, .num_classes = 3, .seed = 8});
  const Graph& g = data.graph;
  Node2VecParams params;
  params.p = 0.5;
  params.q = 2.0;
  Node2VecWalker<Graph> otf(g, params);
  RejectionNode2VecWalker rej(g, params);

  // Pick a (prev, cur) pair with decent degree.
  NodeId cur = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.degree(u) >= 4) {
      cur = u;
      break;
    }
  }
  const NodeId prev = g.neighbors(cur)[0];

  constexpr int kTrials = 60000;
  std::map<NodeId, int> otf_counts, rej_counts;
  Rng r1(9), r2(10);
  for (int i = 0; i < kTrials; ++i) {
    ++otf_counts[otf.biased_step(r1, prev, cur)];
    ++rej_counts[rej.biased_step(r2, prev, cur)];
  }
  for (NodeId nbr : g.neighbors(cur)) {
    const double a = otf_counts[nbr] / static_cast<double>(kTrials);
    const double b = rej_counts[nbr] / static_cast<double>(kTrials);
    EXPECT_NEAR(a, b, 0.015) << "neighbor " << nbr;
  }
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
  Rng rng(12);
  const WalkCorpus corpus = generate_corpus(data.graph, params, 3, rng);
  EXPECT_EQ(corpus.walks.size(), 300u);

  std::uint64_t total_visits = 0;
  for (const auto& w : corpus.walks) total_visits += w.size();
  std::uint64_t freq_sum = 0;
  for (auto f : corpus.frequency) freq_sum += f;
  EXPECT_EQ(freq_sum, total_visits);
  EXPECT_EQ(corpus.total_contexts(8), 300u * num_contexts(20, 8));
}

TEST(Corpus, DeterministicVariantIsThreadCountInvariant) {
  // The per-walk-seeded corpus must be identical regardless of OpenMP
  // scheduling — same walks in the same slots for the same seed.
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 80, .target_edges = 320, .num_classes = 4, .seed = 21});
  Node2VecParams params;
  params.walk_length = 16;
  const WalkCorpus a =
      generate_corpus_deterministic(data.graph, params, 3, 42);
  const WalkCorpus b =
      generate_corpus_deterministic(data.graph, params, 3, 42);
  ASSERT_EQ(a.walks.size(), b.walks.size());
  for (std::size_t i = 0; i < a.walks.size(); ++i) {
    EXPECT_EQ(a.walks[i], b.walks[i]) << "walk " << i;
  }
  EXPECT_EQ(a.frequency, b.frequency);

  // Different seeds give different corpora.
  const WalkCorpus c =
      generate_corpus_deterministic(data.graph, params, 3, 43);
  bool differs = false;
  for (std::size_t i = 0; i < a.walks.size() && !differs; ++i) {
    differs = (a.walks[i] != c.walks[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(Corpus, DeterministicVariantHasCorrectShape) {
  const Graph g = make_ring(25, 4);
  Node2VecParams params;
  params.walk_length = 12;
  const WalkCorpus corpus = generate_corpus_deterministic(g, params, 4, 7);
  EXPECT_EQ(corpus.walks.size(), 100u);
  std::uint64_t visits = 0;
  for (const auto& w : corpus.walks) {
    EXPECT_EQ(w.size(), 12u);
    visits += w.size();
  }
  std::uint64_t freq = 0;
  for (auto f : corpus.frequency) freq += f;
  EXPECT_EQ(freq, visits);
  // Walk w starts at node w % n.
  EXPECT_EQ(corpus.walks[0][0], 0u);
  EXPECT_EQ(corpus.walks[26][0], 1u);
}

TEST(Corpus, EveryNodeStartsWalks) {
  const Graph g = make_ring(30, 2);
  Node2VecParams params;
  params.walk_length = 5;
  params.window = 2;
  Rng rng(13);
  const WalkCorpus corpus = generate_corpus(g, params, 2, rng);
  std::vector<int> starts(30, 0);
  for (const auto& w : corpus.walks) ++starts[w[0]];
  for (int s : starts) EXPECT_EQ(s, 2);
}

}  // namespace
}  // namespace seqge
