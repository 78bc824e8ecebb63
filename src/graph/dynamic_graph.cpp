#include "graph/dynamic_graph.hpp"

#include <algorithm>
#include <cmath>

namespace seqge {

DynamicGraph DynamicGraph::from_graph(const Graph& g) {
  DynamicGraph dg(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto nbrs = g.neighbors(u);
    auto ws = g.weights(u);
    dg.adjacency_[u].assign(nbrs.begin(), nbrs.end());
    dg.weights_[u].assign(ws.begin(), ws.end());
  }
  dg.num_edges_ = g.num_edges();
  dg.max_weight_ = g.max_weight();
  return dg;
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const noexcept {
  const auto& nbrs = adjacency_[u];
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

float DynamicGraph::edge_weight(NodeId u, NodeId v) const noexcept {
  const auto& nbrs = adjacency_[u];
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0.0f;
  return weights_[u][static_cast<std::size_t>(it - nbrs.begin())];
}

double DynamicGraph::weighted_degree(NodeId u) const noexcept {
  double s = 0.0;
  for (float w : weights_[u]) s += w;
  return s;
}

void DynamicGraph::insert_arc(NodeId u, NodeId v, float w) {
  auto& nbrs = adjacency_[u];
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  const auto pos = static_cast<std::size_t>(it - nbrs.begin());
  nbrs.insert(it, v);
  weights_[u].insert(weights_[u].begin() + static_cast<std::ptrdiff_t>(pos),
                     w);
}

bool DynamicGraph::add_edge(NodeId u, NodeId v, float weight) {
  if (u == v || u >= num_nodes() || v >= num_nodes()) return false;
  if (!(weight > 0.0f) || !std::isfinite(weight)) return false;
  if (has_edge(u, v)) return false;
  insert_arc(u, v, weight);
  insert_arc(v, u, weight);
  ++num_edges_;
  max_weight_ = std::max(max_weight_, weight);
  return true;
}

void DynamicGraph::erase_arc(NodeId u, NodeId v) {
  auto& nbrs = adjacency_[u];
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  const auto pos = static_cast<std::size_t>(it - nbrs.begin());
  nbrs.erase(it);
  weights_[u].erase(weights_[u].begin() +
                    static_cast<std::ptrdiff_t>(pos));
}

bool DynamicGraph::remove_edge(NodeId u, NodeId v) {
  if (u == v || u >= num_nodes() || v >= num_nodes()) return false;
  if (!has_edge(u, v)) return false;
  erase_arc(u, v);
  erase_arc(v, u);
  --num_edges_;
  return true;
}

Graph DynamicGraph::to_graph() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    const auto& nbrs = adjacency_[u];
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) edges.push_back({u, nbrs[i], weights_[u][i]});
    }
  }
  return Graph::from_edges(num_nodes(), edges);
}

}  // namespace seqge
