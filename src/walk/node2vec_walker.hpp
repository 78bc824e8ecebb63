#pragma once
// Second-order biased random walks (node2vec, Grover & Leskovec, ref [1]).
// Given the previous node t and current node u, the unnormalized
// probability of stepping to neighbor x is w_ux * alpha_pq(t, x) with
//   alpha = 1/p  if x == t            (d_tx = 0, return)
//   alpha = 1    if (t, x) in E       (d_tx = 1, triangle)
//   alpha = 1/q  otherwise            (d_tx = 2, explore)
//
// Two sampling strategies are provided:
//  * OnTheFly — two passes over the current node's adjacency list,
//    recomputing the bias per step. The d_tx = 1 test merges that list
//    against the previous node's, so both lists must be sorted by
//    neighbor id (Graph, DynamicGraph and SlidingWindowGraph all keep
//    them so). O(deg(cur) + deg(prev)) per step, zero preprocessing,
//    works on mutable graphs — this is what the paper's host CPU does,
//    and what the "seq" scenario requires (the graph changes every
//    step).
//  * Rejection — per-node alias tables over edge weights as the proposal
//    distribution, accept with alpha/alpha_max (KnightKing-style).
//    O(1) expected per step after O(E) preprocessing; static graphs only.
// Both draw from the exact same distribution (verified by tests).

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "sampling/alias_table.hpp"
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

/// On-the-fly second-order walker; GraphT must provide num_nodes(),
/// degree(u), neighbors(u) in ascending id order, and weights(u)
/// aligned with neighbors(u). The walker holds no mutable state, so one
/// const walker may serve any number of threads.
template <typename GraphT>
class Node2VecWalker {
 public:
  Node2VecWalker(const GraphT& graph, Node2VecParams params)
      : graph_(graph), params_(params) {
    params_.validate();
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
    NodeId cur = weighted_neighbor(rng, start);
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
    const auto nbrs = graph_.neighbors(cur);
    const auto ws = graph_.weights(cur);
    const double inv_p = 1.0 / params_.p;
    const double inv_q = 1.0 / params_.q;

    double total = 0.0;
    {
      PrevCursor tri(graph_.neighbors(prev));
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        total += ws[i] * bias(prev, nbrs[i], tri, inv_p, inv_q);
      }
    }
    double r = rng.uniform() * total;
    PrevCursor tri(graph_.neighbors(prev));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      r -= ws[i] * bias(prev, nbrs[i], tri, inv_p, inv_q);
      if (r <= 0.0) return nbrs[i];
    }
    return nbrs.back();  // FP round-off fallback
  }

 private:
  /// Membership test of ascending ids in prev's sorted adjacency: one
  /// forward merge per pass instead of a binary search per neighbor.
  class PrevCursor {
   public:
    explicit PrevCursor(std::span<const NodeId> prev_nbrs)
        : list_(prev_nbrs) {}

    [[nodiscard]] bool contains(NodeId x) {
      while (pos_ < list_.size() && list_[pos_] < x) ++pos_;
      return pos_ < list_.size() && list_[pos_] == x;
    }

   private:
    std::span<const NodeId> list_;
    std::size_t pos_ = 0;
  };

  [[nodiscard]] static double bias(NodeId prev, NodeId x, PrevCursor& tri,
                                   double inv_p, double inv_q) {
    if (x == prev) return inv_p;
    if (tri.contains(x)) return 1.0;
    return inv_q;
  }

  [[nodiscard]] NodeId weighted_neighbor(Rng& rng, NodeId u) const {
    const auto nbrs = graph_.neighbors(u);
    const auto ws = graph_.weights(u);
    double total = 0.0;
    for (float w : ws) total += w;
    double r = rng.uniform() * total;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      r -= ws[i];
      if (r <= 0.0) return nbrs[i];
    }
    return nbrs.back();
  }

  const GraphT& graph_;
  Node2VecParams params_;
};

/// Rejection-sampling walker over a static CSR graph. Proposal: alias
/// table over each node's edge weights; acceptance: alpha/alpha_max.
class RejectionNode2VecWalker {
 public:
  RejectionNode2VecWalker(const Graph& graph, Node2VecParams params);

  [[nodiscard]] const Node2VecParams& params() const noexcept {
    return params_;
  }

  [[nodiscard]] std::vector<NodeId> walk(Rng& rng, NodeId start) const;
  void walk_into(Rng& rng, NodeId start, std::vector<NodeId>& out) const;
  [[nodiscard]] NodeId biased_step(Rng& rng, NodeId prev, NodeId cur) const;

 private:
  const Graph& graph_;
  Node2VecParams params_;
  std::vector<AliasTable> proposal_;  // per node, over edge weights
  double alpha_max_ = 1.0;
  double inv_p_ = 1.0;
  double inv_q_ = 1.0;
};

}  // namespace seqge
