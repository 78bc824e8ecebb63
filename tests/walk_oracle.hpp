#pragma once
// Test-only node2vec oracle: the transition distribution enumerated
// directly from w * alpha, and an on-the-fly walk over it (one uniform
// per step, inverted over the running sum). Fixtures that feed walks
// into a model (the FPGA golden words) take them from here, so they
// stay pinned to the model, not to the library walker's RNG stream.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walk/node2vec_walker.hpp"

namespace seqge::test {

/// Marks a first step: no previous node, alpha == 1.
inline constexpr NodeId kNoPrev = ~NodeId{0};

/// Unnormalized node2vec transition weights w_cur,x * alpha(prev, x),
/// aligned with g.neighbors(cur).
template <typename GraphT>
std::vector<double> transition_weights(const GraphT& g,
                                       const Node2VecParams& params,
                                       NodeId prev, NodeId cur) {
  const auto nbrs = g.neighbors(cur);
  const auto ws = g.weights(cur);
  std::vector<double> out(nbrs.size());
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    double alpha = 1.0;
    if (prev != kNoPrev) {
      if (nbrs[i] == prev) {
        alpha = 1.0 / params.p;
      } else if (!g.has_edge(prev, nbrs[i])) {
        alpha = 1.0 / params.q;
      }
    }
    out[i] = ws[i] * alpha;
  }
  return out;
}

/// Walk of params.walk_length nodes from `start`, each step one uniform
/// draw inverted over the running sum of transition_weights().
template <typename GraphT>
std::vector<NodeId> reference_walk(const GraphT& g,
                                   const Node2VecParams& params, Rng& rng,
                                   NodeId start) {
  std::vector<NodeId> out{start};
  if (g.degree(start) == 0) return out;
  NodeId prev = kNoPrev;
  while (out.size() < params.walk_length) {
    const NodeId cur = out.back();
    if (g.degree(cur) == 0) break;
    const auto nbrs = g.neighbors(cur);
    const std::vector<double> w = transition_weights(g, params, prev, cur);
    double total = 0.0;
    for (double x : w) total += x;
    double r = rng.uniform() * total;
    NodeId next = nbrs.back();  // FP round-off fallback
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      r -= w[i];
      if (r <= 0.0) {
        next = nbrs[i];
        break;
      }
    }
    prev = cur;
    out.push_back(next);
  }
  return out;
}

}  // namespace seqge::test
