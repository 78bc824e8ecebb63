#pragma once
// Shared training configuration. Defaults follow Table 2 of the paper:
//   p = 0.5, q = 1.0, r = 10 walks/node, l = 80, w = 8, ns = 10.

#include <cstdint>
#include <stdexcept>

#include "walk/node2vec_walker.hpp"

namespace seqge {

/// When negatives are drawn: fresh per context (Algorithm 1 on CPU) or
/// one shared set per random walk (the FPGA's DRAM<->BRAM traffic
/// optimization, Sec. 3.2 / ref [18]).
enum class NegativeMode { kPerContext, kPerWalk };

struct TrainConfig {
  std::size_t dims = 32;              ///< graph-embedding dimensions N
  Node2VecParams walk{};              ///< p, q, l, w
  std::size_t walks_per_node = 10;    ///< r
  std::size_t negative_samples = 10;  ///< ns
  NegativeMode negative_mode = NegativeMode::kPerContext;

  // --- proposed OS-ELM model ---
  /// Scale factor mu mapping beta to the input-side weights (Fig. 7:
  /// accuracy is high for mu in [0.005, 0.1]).
  double mu = 0.05;
  /// Initial P = p0 * I. Large p0 = fast early adaptation (standard RLS
  /// forgetting-free initialization).
  double p0 = 0.1;
  /// Fig. 7 "alpha" baseline: input-side weights fixed at random values
  /// as in classic OS-ELM instead of the tied mu * beta^T.
  bool random_alpha = false;
  /// Re-initialize P = p0*I at every walk (board flow of Fig. 4: only
  /// beta round-trips DRAM<->BRAM). Keeps the RLS gain from decaying to
  /// zero over long sequential streams. false = classic persistent-P
  /// OS-ELM (ablation).
  bool reset_p_per_walk = true;

  std::uint64_t seed = 42;

  void validate() const {
    walk.validate();
    if (dims == 0) throw std::invalid_argument("TrainConfig: dims == 0");
    if (walks_per_node == 0) {
      throw std::invalid_argument("TrainConfig: walks_per_node == 0");
    }
    if (negative_samples == 0) {
      throw std::invalid_argument("TrainConfig: negative_samples == 0");
    }
    if (mu <= 0.0) throw std::invalid_argument("TrainConfig: mu <= 0");
    if (p0 <= 0.0) throw std::invalid_argument("TrainConfig: p0 <= 0");
  }
};

}  // namespace seqge
