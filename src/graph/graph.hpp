#pragma once
// Immutable undirected weighted graph in CSR (compressed sparse row)
// form. Adjacency lists are sorted by neighbor id, so has_edge() — the
// node2vec walker's triangle test for the second-order bias alpha_pq —
// is O(log deg). Node ids are dense [0, n).

#include <cstdint>
#include <span>
#include <vector>

namespace seqge {

using NodeId = std::uint32_t;

struct Edge {
  NodeId src = 0;
  NodeId dst = 0;
  float weight = 1.0f;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;

  /// Build from an edge list. When `undirected` (the default and the only
  /// mode the paper uses), each input edge is stored in both endpoint
  /// adjacency lists. Duplicate edges are merged (weights summed);
  /// self-loops are dropped. Weights must be finite and > 0.
  static Graph from_edges(std::size_t num_nodes, std::span<const Edge> edges,
                          bool undirected = true);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Number of undirected edges (each counted once).
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
    return offsets_[u + 1] - offsets_[u];
  }

  /// Sorted neighbor ids of u.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return {adjacency_.data() + offsets_[u], degree(u)};
  }
  /// Edge weights aligned with neighbors(u).
  [[nodiscard]] std::span<const float> weights(NodeId u) const noexcept {
    return {weights_.data() + offsets_[u], degree(u)};
  }

  /// Largest edge weight after duplicate merging (0 when edgeless): the
  /// walker's rejection bound.
  [[nodiscard]] float max_weight() const noexcept { return max_weight_; }

  /// O(log deg) membership test.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  /// Weight of edge (u, v); 0 if absent.
  [[nodiscard]] float edge_weight(NodeId u, NodeId v) const noexcept;

  /// Sum of weights incident to u (used by first-order walk bias).
  [[nodiscard]] double weighted_degree(NodeId u) const noexcept;

  /// All undirected edges, each once with src < dst.
  [[nodiscard]] std::vector<Edge> edge_list() const;

  /// Total directed adjacency entries (2x undirected edge count).
  [[nodiscard]] std::size_t num_adjacency_entries() const noexcept {
    return adjacency_.size();
  }

 private:
  std::vector<std::size_t> offsets_;  // n+1 entries
  std::vector<NodeId> adjacency_;     // sorted per node
  std::vector<float> weights_;
  std::size_t num_edges_ = 0;
  float max_weight_ = 0.0f;
};

}  // namespace seqge
