#pragma once
// Second-order biased random walks (node2vec, Grover & Leskovec, ref [1]).
// Given the previous node t and current node u, the unnormalized
// probability of stepping to neighbor x is w_ux * alpha_pq(t, x) with
//   alpha = 1/p  if x == t            (d_tx = 0, return)
//   alpha = 1    if (t, x) in E       (d_tx = 1, triangle)
//   alpha = 1/q  otherwise            (d_tx = 2, explore)
//
// One strategy, rejection sampling (KnightKing-style): propose a
// neighbor x of u uniformly, accept it with probability
//   w_ux * alpha(t, x) / (W * alpha_max),  alpha_max = max(1/p, 1, 1/q),
// else propose again. The accepted x is distributed exactly as
// w_ux * alpha(t, x) whenever W is an upper bound on every edge weight:
// the graph's max_weight(). A bound rather than the current maximum is
// enough, so a mutable graph keeps a running maximum that deletions
// never lower. The d_tx = 1 test is has_edge(t, x), a binary search in
// t's sorted adjacency list. The first step has no t: alpha == 1, so it
// draws proportionally to edge weight alone.
//
// Nothing is precomputed, so the walker reads the graph as it is at
// every step — the "seq" scenario mutates it between walks. A step
// costs O(log deg(t)) per proposal, never a scan of u's list. For unit
// weights the expected number of proposals per step is
// alpha_max / E[alpha], E[alpha] taken uniformly over u's neighbors
// (at most alpha_max / min(1/p, 1, 1/q); at p = 0.5, q = 1 about 2).

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace seqge {

struct Node2VecParams {
  double p = 0.5;             ///< return parameter (Table 2: 0.5)
  double q = 1.0;             ///< in-out parameter (Table 2: 1.0)
  std::size_t walk_length = 80;   ///< l (Table 2: 80)
  std::size_t window = 8;         ///< w (Table 2: 8)

  void validate() const {
    if (p <= 0.0 || q <= 0.0) {
      throw std::invalid_argument("Node2VecParams: p, q must be > 0");
    }
    if (walk_length < 2 || window < 2 || window > walk_length) {
      throw std::invalid_argument(
          "Node2VecParams: need 2 <= window <= walk_length");
    }
  }
};

/// Rejection-sampling second-order walker. GraphT must provide
/// degree(u), neighbors(u) in ascending id order, weights(u) aligned
/// with neighbors(u), has_edge(u, v) and max_weight() >= every edge
/// weight (Graph, DynamicGraph and SlidingWindowGraph all do). The
/// walker holds no mutable state, so one const walker may serve any
/// number of threads.
template <typename GraphT>
class Node2VecWalker {
 public:
  Node2VecWalker(const GraphT& graph, Node2VecParams params)
      : graph_(graph), params_(params) {
    params_.validate();
    inv_p_ = 1.0 / params_.p;
    inv_q_ = 1.0 / params_.q;
    alpha_max_ = std::max({inv_p_, 1.0, inv_q_});
  }

  [[nodiscard]] const Node2VecParams& params() const noexcept {
    return params_;
  }

  /// Perform one walk of params().walk_length nodes starting at `start`.
  /// Stops early only if the walk reaches a node with no neighbors.
  [[nodiscard]] std::vector<NodeId> walk(Rng& rng, NodeId start) const {
    std::vector<NodeId> out;
    walk_into(rng, start, out);
    return out;
  }

  void walk_into(Rng& rng, NodeId start, std::vector<NodeId>& out) const {
    out.clear();
    out.reserve(params_.walk_length);
    out.push_back(start);
    if (graph_.degree(start) == 0) return;

    // First step: proportional to edge weights only (no prev node).
    NodeId cur = draw(rng, start, 1.0, [](NodeId) { return 1.0; });
    out.push_back(cur);

    while (out.size() < params_.walk_length) {
      if (graph_.degree(cur) == 0) break;
      const NodeId prev = out[out.size() - 2];
      cur = biased_step(rng, prev, cur);
      out.push_back(cur);
    }
  }

  /// One second-order step from `cur` given previous node `prev`.
  [[nodiscard]] NodeId biased_step(Rng& rng, NodeId prev,
                                   NodeId cur) const {
    return draw(rng, cur, alpha_max_, [&](NodeId x) {
      if (x == prev) return inv_p_;
      if (graph_.has_edge(prev, x)) return 1.0;
      return inv_q_;
    });
  }

 private:
  /// Draw a neighbor x of `cur` with probability proportional to
  /// w_cur,x * alpha(x), where alpha(x) <= alpha_max.
  template <typename Alpha>
  [[nodiscard]] NodeId draw(Rng& rng, NodeId cur, double alpha_max,
                            Alpha alpha) const {
    const auto nbrs = graph_.neighbors(cur);
    const auto ws = graph_.weights(cur);
    const double bound = graph_.max_weight() * alpha_max;
    for (;;) {
      const std::size_t i = rng.bounded(nbrs.size());
      if (rng.uniform() * bound < ws[i] * alpha(nbrs[i])) return nbrs[i];
    }
  }

  const GraphT& graph_;
  Node2VecParams params_;
  double inv_p_ = 1.0;
  double inv_q_ = 1.0;
  double alpha_max_ = 1.0;
};

}  // namespace seqge
