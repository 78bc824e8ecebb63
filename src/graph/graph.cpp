#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace seqge {

Graph Graph::from_edges(std::size_t num_nodes, std::span<const Edge> edges,
                        bool undirected) {
  // Collect directed arcs (both directions for undirected input).
  struct Arc {
    NodeId src, dst;
    float w;
  };
  std::vector<Arc> arcs;
  arcs.reserve(edges.size() * (undirected ? 2 : 1));
  for (const Edge& e : edges) {
    if (e.src >= num_nodes || e.dst >= num_nodes) {
      throw std::out_of_range("Graph::from_edges: node id out of range");
    }
    if (!(e.weight > 0.0f) || !std::isfinite(e.weight)) {
      throw std::invalid_argument("Graph::from_edges: weight must be > 0");
    }
    if (e.src == e.dst) continue;  // self-loops break the d_tx logic
    arcs.push_back({e.src, e.dst, e.weight});
    if (undirected) arcs.push_back({e.dst, e.src, e.weight});
  }
  std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });

  Graph g;
  g.offsets_.assign(num_nodes + 1, 0);
  g.adjacency_.reserve(arcs.size());
  g.weights_.reserve(arcs.size());

  for (std::size_t i = 0; i < arcs.size();) {
    const Arc& a = arcs[i];
    float w = 0.0f;
    std::size_t j = i;
    // Merge duplicates (parallel edges) by summing weights.
    while (j < arcs.size() && arcs[j].src == a.src && arcs[j].dst == a.dst) {
      w += arcs[j].w;
      ++j;
    }
    g.adjacency_.push_back(a.dst);
    g.weights_.push_back(w);
    g.max_weight_ = std::max(g.max_weight_, w);
    ++g.offsets_[a.src + 1];
    i = j;
  }
  for (std::size_t u = 0; u < num_nodes; ++u) {
    g.offsets_[u + 1] += g.offsets_[u];
  }
  g.num_edges_ = undirected ? g.adjacency_.size() / 2 : g.adjacency_.size();
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

float Graph::edge_weight(NodeId u, NodeId v) const noexcept {
  auto nbrs = neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0.0f;
  return weights(u)[static_cast<std::size_t>(it - nbrs.begin())];
}

double Graph::weighted_degree(NodeId u) const noexcept {
  double s = 0.0;
  for (float w : weights(u)) s += w;
  return s;
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    auto nbrs = neighbors(u);
    auto ws = weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) out.push_back({u, nbrs[i], ws[i]});
    }
  }
  return out;
}

}  // namespace seqge
