// Unit tests for the CSR graph, dynamic graph, the max_weight() bound
// the walker rejects against, sliding-window sampler cadence, connected
// components, union-find, and the spanning-forest split that drives the
// "seq" scenario.

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "graph/components.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/sliding_window.hpp"
#include "graph/spanning_forest.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace seqge {
namespace {

Graph triangle_plus_tail() {
  // 0-1-2 triangle, 2-3 tail; node 4 isolated.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}};
  return Graph::from_edges(5, edges);
}

TEST(Graph, BasicTopology) {
  const Graph g = triangle_plus_tail();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(4), 0u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // undirected
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(4, 0));
}

TEST(Graph, NeighborsAreSorted) {
  const std::vector<Edge> edges = {{0, 3}, {0, 1}, {0, 2}};
  const Graph g = Graph::from_edges(4, edges);
  auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, DuplicateEdgesMergeWeights) {
  const std::vector<Edge> edges = {{0, 1, 1.0f}, {1, 0, 2.5f}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FLOAT_EQ(g.edge_weight(0, 1), 3.5f);
  EXPECT_FLOAT_EQ(g.edge_weight(1, 0), 3.5f);
}

TEST(Graph, MaxWeightIsTakenAfterMerging) {
  const std::vector<Edge> edges = {{0, 1, 1.0f}, {1, 0, 2.5f}, {1, 2, 3.0f}};
  EXPECT_FLOAT_EQ(Graph::from_edges(3, edges).max_weight(), 3.5f);
  EXPECT_FLOAT_EQ(Graph::from_edges(3, {}).max_weight(), 0.0f);
}

TEST(Graph, NonPositiveWeightThrows) {
  for (const float w : {0.0f, -1.0f, std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN()}) {
    const std::vector<Edge> edges = {{0, 1, w}};
    EXPECT_THROW(Graph::from_edges(2, edges), std::invalid_argument) << w;
  }
}

TEST(Graph, SelfLoopsDropped) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, OutOfRangeNodeThrows) {
  const std::vector<Edge> edges = {{0, 7}};
  EXPECT_THROW(Graph::from_edges(3, edges), std::out_of_range);
}

TEST(Graph, EdgeListRoundTrip) {
  const Graph g = triangle_plus_tail();
  const auto edges = g.edge_list();
  EXPECT_EQ(edges.size(), g.num_edges());
  const Graph g2 = Graph::from_edges(g.num_nodes(), edges);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(g.degree(u), g2.degree(u));
    auto a = g.neighbors(u);
    auto b = g2.neighbors(u);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST(Graph, WeightedDegree) {
  const std::vector<Edge> edges = {{0, 1, 2.0f}, {0, 2, 3.0f}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 5.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 2.0);
}

TEST(DynamicGraph, InsertionSemantics) {
  DynamicGraph dg(4);
  EXPECT_TRUE(dg.add_edge(0, 1));
  EXPECT_FALSE(dg.add_edge(0, 1)) << "duplicate must be rejected";
  EXPECT_FALSE(dg.add_edge(1, 0)) << "reverse duplicate must be rejected";
  EXPECT_FALSE(dg.add_edge(2, 2)) << "self-loop must be rejected";
  EXPECT_TRUE(dg.add_edge(1, 2));
  EXPECT_EQ(dg.num_edges(), 2u);
  EXPECT_TRUE(dg.has_edge(2, 1));
  EXPECT_EQ(dg.degree(1), 2u);
}

TEST(DynamicGraph, MaxWeightIsARunningBound) {
  DynamicGraph dg(4);
  EXPECT_FALSE(dg.add_edge(0, 1, 0.0f)) << "zero weight must be rejected";
  EXPECT_FALSE(dg.add_edge(0, 1, std::numeric_limits<float>::quiet_NaN()));
  EXPECT_EQ(dg.num_edges(), 0u);
  dg.add_edge(0, 1, 2.0f);
  dg.add_edge(1, 2, 5.0f);
  EXPECT_FLOAT_EQ(dg.max_weight(), 5.0f);
  ASSERT_TRUE(dg.remove_edge(1, 2));
  EXPECT_FLOAT_EQ(dg.max_weight(), 5.0f) << "removals never lower the bound";
  EXPECT_FLOAT_EQ(DynamicGraph::from_graph(triangle_plus_tail()).max_weight(),
                  triangle_plus_tail().max_weight());

  SlidingWindowGraph window(3);
  window.add_edge(0, 1, 4.0f, 1);
  EXPECT_FLOAT_EQ(window.max_weight(), 4.0f);
  EXPECT_EQ(window.add_edge(1, 2, -1.0f, 2), SlidingWindowGraph::kInvalidToken);
}

TEST(DynamicGraph, NeighborsStaySorted) {
  DynamicGraph dg(5);
  dg.add_edge(0, 4);
  dg.add_edge(0, 1);
  dg.add_edge(0, 3);
  auto nbrs = dg.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(DynamicGraph, RoundTripWithGraph) {
  const Graph g = triangle_plus_tail();
  const DynamicGraph dg = DynamicGraph::from_graph(g);
  EXPECT_EQ(dg.num_edges(), g.num_edges());
  const Graph g2 = dg.to_graph();
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_TRUE(g2.has_edge(0, 2));
  EXPECT_FLOAT_EQ(g2.edge_weight(2, 3), 1.0f);
}

TEST(SlidingWindowGraph, SamplerRebuildCadenceMatchesInterval) {
  const obs::Counter* counter = obs::Registry::global().counter(
      "seqge_train_sampler_rebuilds_total");
  // 20 insertions, sampling after each: one rebuild per `interval`
  // mutations after the initial build.
  for (const auto& [interval, expected] :
       {std::pair<std::size_t, std::size_t>{5, 4}, {16, 1}}) {
    SlidingWindowGraph::Options opts;
    opts.sampler_rebuild_interval = interval;
    SlidingWindowGraph g(32, opts);
    g.sampler();
    const std::size_t before = g.sampler_rebuilds();
    const std::uint64_t counted_before = counter->value();
    for (NodeId u = 0; u < 20; ++u) {
      ASSERT_NE(g.add_edge(u, u + 1, 1.0f, u),
                SlidingWindowGraph::kInvalidToken);
      g.sampler();
    }
    EXPECT_EQ(g.sampler_rebuilds() - before, expected) << interval;
    if (obs::enabled()) {
      EXPECT_EQ(counter->value() - counted_before, expected) << interval;
    }
  }
}

TEST(UnionFind, MergesAndCounts) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2)) << "already connected";
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 3));
}

TEST(Components, LabelsAndCount) {
  const Graph g = triangle_plus_tail();
  const ComponentLabels cc = connected_components(g);
  EXPECT_EQ(cc.count, 2u);  // {0,1,2,3} and {4}
  EXPECT_EQ(cc.label[0], cc.label[3]);
  EXPECT_NE(cc.label[0], cc.label[4]);
  EXPECT_EQ(count_components(g), 2u);
}

TEST(SpanningForest, ForestProperties) {
  Rng rng(5);
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 300, .target_edges = 1200, .num_classes = 4, .seed = 9});
  const Graph& g = data.graph;
  const std::size_t cc = count_components(g);

  const ForestSplit split = split_spanning_forest(g, rng);
  // |forest| = n - #components; forest + removed = all edges.
  EXPECT_EQ(split.forest_edges.size(), g.num_nodes() - cc);
  EXPECT_EQ(split.forest_edges.size() + split.removed_edges.size(),
            g.num_edges());

  const Graph forest =
      Graph::from_edges(g.num_nodes(), split.forest_edges);
  EXPECT_EQ(count_components(forest), cc)
      << "forest must preserve the component structure";
  // A forest has no cycles: |E| = n - #components exactly.
  EXPECT_EQ(forest.num_edges(), forest.num_nodes() - cc);
}

TEST(SpanningForest, ShuffleVariesAcrossSeeds) {
  const LabeledGraph data = generate_dcsbm(
      {.num_nodes = 100, .target_edges = 400, .num_classes = 2, .seed = 3});
  Rng r1(1), r2(2);
  const auto s1 = split_spanning_forest(data.graph, r1);
  const auto s2 = split_spanning_forest(data.graph, r2);
  // Different seeds should produce a different insertion order (first
  // few removed edges differ with overwhelming probability).
  bool differs = false;
  for (std::size_t i = 0; i < 5 && i < s1.removed_edges.size(); ++i) {
    if (!(s1.removed_edges[i] == s2.removed_edges[i])) differs = true;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace seqge
