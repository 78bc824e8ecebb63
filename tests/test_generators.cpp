// Tests for the synthetic-dataset substrate: the DC-SBM generator, the
// Table 1 dataset twins, utility graphs, and labeled-graph I/O.

#include <gtest/gtest.h>

#include <sstream>

#include "graph/components.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "util/rng.hpp"

namespace seqge {
namespace {

TEST(Dcsbm, MatchesRequestedCounts) {
  const SbmConfig cfg{.num_nodes = 500,
                      .target_edges = 2500,
                      .num_classes = 5,
                      .seed = 1};
  const LabeledGraph g = generate_dcsbm(cfg);
  EXPECT_EQ(g.graph.num_nodes(), 500u);
  // Degree-floor patching may add a few edges beyond the target.
  EXPECT_GE(g.graph.num_edges(), 2500u);
  EXPECT_LE(g.graph.num_edges(), 2600u);
  EXPECT_EQ(g.num_classes, 5u);
  EXPECT_EQ(g.labels.size(), 500u);
}

TEST(Dcsbm, EveryNodeHasDegreeAtLeastOne) {
  const LabeledGraph g = generate_dcsbm(
      {.num_nodes = 1000, .target_edges = 1500, .num_classes = 7, .seed = 2});
  const GraphStats stats = compute_stats(g.graph);
  EXPECT_GE(stats.min_degree, 1u);
}

TEST(Dcsbm, LabelsInRangeAndBalanced) {
  const LabeledGraph g = generate_dcsbm(
      {.num_nodes = 800, .target_edges = 4000, .num_classes = 8, .seed = 3});
  std::vector<std::size_t> counts(8, 0);
  for (auto label : g.labels) {
    ASSERT_LT(label, 8u);
    ++counts[label];
  }
  for (std::size_t c : counts) EXPECT_NEAR(c, 100.0, 2.0);
}

TEST(Dcsbm, AssortativeBlocksAreHomophilous) {
  const LabeledGraph g = generate_dcsbm({.num_nodes = 1000,
                                         .target_edges = 8000,
                                         .num_classes = 5,
                                         .assortativity = 12.0,
                                         .seed = 4});
  const GraphStats stats = compute_stats(g);
  // Random labeling would give homophily ~ 1/5; assortativity 12 must
  // push it far above.
  EXPECT_GT(stats.label_homophily, 0.5);
}

TEST(Dcsbm, HigherAssortativityRaisesHomophily) {
  auto homophily = [](double assort) {
    const LabeledGraph g = generate_dcsbm({.num_nodes = 600,
                                           .target_edges = 4000,
                                           .num_classes = 4,
                                           .assortativity = assort,
                                           .seed = 5});
    return compute_stats(g).label_homophily;
  };
  EXPECT_GT(homophily(20.0), homophily(2.0));
}

TEST(Dcsbm, DeterministicForSameSeed) {
  const SbmConfig cfg{.num_nodes = 200,
                      .target_edges = 800,
                      .num_classes = 3,
                      .seed = 42};
  const LabeledGraph a = generate_dcsbm(cfg);
  const LabeledGraph b = generate_dcsbm(cfg);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.graph.edge_list().size(), b.graph.edge_list().size());
  const auto ea = a.graph.edge_list();
  const auto eb = b.graph.edge_list();
  for (std::size_t i = 0; i < ea.size(); ++i) EXPECT_TRUE(ea[i] == eb[i]);
}

TEST(Dcsbm, HeavyTailedDegrees) {
  const LabeledGraph g = generate_dcsbm({.num_nodes = 2000,
                                         .target_edges = 10000,
                                         .num_classes = 4,
                                         .degree_exponent = 2.3,
                                         .seed = 6});
  const GraphStats stats = compute_stats(g.graph);
  // Hubs should far exceed the mean degree.
  EXPECT_GT(static_cast<double>(stats.max_degree), 3.0 * stats.mean_degree);
}

TEST(Dcsbm, RejectsBadConfig) {
  EXPECT_THROW(
      generate_dcsbm({.num_nodes = 1, .target_edges = 1, .num_classes = 1}),
      std::invalid_argument);
  EXPECT_THROW(generate_dcsbm({.num_nodes = 10,
                               .target_edges = 5,
                               .num_classes = 20}),
               std::invalid_argument);
}

TEST(KarateClub, CanonicalShape) {
  const LabeledGraph g = make_karate_club();
  EXPECT_EQ(g.graph.num_nodes(), 34u);
  EXPECT_EQ(g.graph.num_edges(), 78u);
  EXPECT_EQ(g.num_classes, 2u);
  EXPECT_EQ(count_components(g.graph), 1u);
  // The two faction leaders are not directly connected.
  EXPECT_FALSE(g.graph.has_edge(0, 33));
  EXPECT_EQ(g.graph.degree(0), 16u);
  EXPECT_EQ(g.graph.degree(33), 17u);
}

TEST(Ring, RegularDegree) {
  const Graph g = make_ring(10, 4);
  for (NodeId u = 0; u < 10; ++u) EXPECT_EQ(g.degree(u), 4u);
  EXPECT_EQ(g.num_edges(), 20u);
  EXPECT_EQ(count_components(g), 1u);
}

TEST(ErdosRenyi, ExactEdgeCount) {
  const Graph g = make_erdos_renyi(100, 300, 7);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 300u);
  EXPECT_THROW(make_erdos_renyi(4, 100, 1), std::invalid_argument);
}

TEST(Datasets, SpecsMatchTable1) {
  const auto& specs = dataset_specs();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "cora");
  EXPECT_EQ(specs[0].num_nodes, 2708u);
  EXPECT_EQ(specs[0].num_edges, 5429u);
  EXPECT_EQ(specs[0].num_classes, 7u);
  EXPECT_EQ(specs[1].name, "ampt");
  EXPECT_EQ(specs[1].num_nodes, 7650u);
  EXPECT_EQ(specs[1].num_edges, 143663u);
  EXPECT_EQ(specs[1].num_classes, 8u);
  EXPECT_EQ(specs[2].name, "amcp");
  EXPECT_EQ(specs[2].num_nodes, 13752u);
  EXPECT_EQ(specs[2].num_edges, 287209u);
  EXPECT_EQ(specs[2].num_classes, 10u);
}

TEST(Datasets, NameParsing) {
  EXPECT_EQ(dataset_from_name("cora"), DatasetId::kCora);
  EXPECT_EQ(dataset_from_name("AMPT"), DatasetId::kAmazonPhoto);
  EXPECT_EQ(dataset_from_name("amazon-computers"),
            DatasetId::kAmazonComputers);
  EXPECT_THROW((void)dataset_from_name("nope"), std::invalid_argument);
}

TEST(Datasets, FullScaleTwinMatchesSpec) {
  const LabeledGraph g = make_dataset(DatasetId::kCora, 1, 1.0);
  EXPECT_EQ(g.graph.num_nodes(), 2708u);
  EXPECT_NEAR(static_cast<double>(g.graph.num_edges()), 5429.0, 120.0);
  EXPECT_EQ(g.num_classes, 7u);
  EXPECT_EQ(g.name, "cora");
}

TEST(Datasets, ScaleShrinksProportionally) {
  const LabeledGraph g = make_dataset(DatasetId::kAmazonPhoto, 1, 0.1);
  EXPECT_NEAR(static_cast<double>(g.graph.num_nodes()), 765.0, 1.0);
  EXPECT_NEAR(static_cast<double>(g.graph.num_edges()), 14366.0, 150.0);
  EXPECT_THROW(make_dataset(DatasetId::kCora, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(make_dataset(DatasetId::kCora, 1, 1.5), std::invalid_argument);
}

TEST(GraphIo, SaveLoadRoundTrip) {
  const LabeledGraph g = generate_dcsbm(
      {.num_nodes = 120, .target_edges = 500, .num_classes = 4, .seed = 8});
  std::stringstream ss;
  save_labeled_graph(ss, g);
  const LabeledGraph g2 = load_labeled_graph(ss);
  EXPECT_EQ(g2.graph.num_nodes(), g.graph.num_nodes());
  EXPECT_EQ(g2.graph.num_edges(), g.graph.num_edges());
  EXPECT_EQ(g2.labels, g.labels);
  EXPECT_EQ(g2.num_classes, g.num_classes);
  for (NodeId u = 0; u < g.graph.num_nodes(); ++u) {
    auto a = g.graph.neighbors(u);
    auto b = g2.graph.neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST(GraphIo, RejectsGarbage) {
  std::stringstream ss("not a graph file");
  EXPECT_THROW(load_labeled_graph(ss), std::runtime_error);
}

TEST(GraphStats, HandComputedCase) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  LabeledGraph lg;
  lg.graph = Graph::from_edges(4, edges);
  lg.labels = {0, 0, 1, 1};
  lg.num_classes = 2;
  const GraphStats s = compute_stats(lg);
  EXPECT_EQ(s.num_nodes, 4u);
  EXPECT_EQ(s.num_edges, 2u);
  EXPECT_EQ(s.min_degree, 0u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 1.0);
  EXPECT_EQ(s.num_components, 2u);
  EXPECT_DOUBLE_EQ(s.label_homophily, 0.5);  // (0,1) same, (1,2) differ
}

}  // namespace
}  // namespace seqge
