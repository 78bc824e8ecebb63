#pragma once
// Mutable adjacency-list graph supporting incremental edge insertion —
// the substrate for the paper's "seq" scenario, where edges removed down
// to a spanning forest are re-inserted one at a time and a sequential
// training step runs after every insertion (Sec. 4.3.2).
//
// Adjacency lists are kept sorted by neighbor id, so has_edge() — the
// node2vec walker's triangle test (walk/node2vec_walker.hpp) — is
// O(log deg). Insertion is O(deg), which is negligible at the paper's
// graph sizes relative to the walk + training cost per insertion.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace seqge {

class DynamicGraph {
 public:
  explicit DynamicGraph(std::size_t num_nodes)
      : adjacency_(num_nodes), weights_(num_nodes) {}

  /// Seed from an existing static graph (e.g. the spanning forest).
  static DynamicGraph from_graph(const Graph& g);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
    return adjacency_[u].size();
  }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return adjacency_[u];
  }
  [[nodiscard]] std::span<const float> weights(NodeId u) const noexcept {
    return weights_[u];
  }
  /// Running maximum over every weight ever inserted: an upper bound on
  /// the live weights (removals never lower it), which is all the
  /// walker's rejection step needs.
  [[nodiscard]] float max_weight() const noexcept { return max_weight_; }
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;
  [[nodiscard]] float edge_weight(NodeId u, NodeId v) const noexcept;
  [[nodiscard]] double weighted_degree(NodeId u) const noexcept;

  /// Insert undirected edge (u, v). Returns false (no-op) when the edge
  /// already exists, u == v, or the weight is not finite and > 0.
  bool add_edge(NodeId u, NodeId v, float weight = 1.0f);

  /// Remove undirected edge (u, v). Returns false (no-op) when the edge
  /// does not exist or u == v. O(deg), mirroring add_edge.
  bool remove_edge(NodeId u, NodeId v);

  /// Copy into an immutable CSR graph.
  [[nodiscard]] Graph to_graph() const;

 private:
  void insert_arc(NodeId u, NodeId v, float w);
  void erase_arc(NodeId u, NodeId v);

  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<std::vector<float>> weights_;
  std::size_t num_edges_ = 0;
  float max_weight_ = 0.0f;
};

}  // namespace seqge
