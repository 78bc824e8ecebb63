#pragma once
// Algorithm 2 on the CPU: the float instantiation of the shared
// dataflow core (embedding/alg2_core.hpp) over all n nodes, with the
// skip-gram init, negative drawing and embedding extraction around it.
// fpga::Accelerator runs the same core in Q8.24.

#include <span>
#include <vector>

#include "embedding/alg2_core.hpp"
#include "sampling/negative_sampler.hpp"
#include "util/rng.hpp"

namespace seqge {

class OselmSkipGramDataflow : public Alg2Core<FloatNum> {
 public:
  OselmSkipGramDataflow(std::size_t num_nodes, const Options& opts,
                        Rng& rng);

  using Alg2Core::train_walk;

  /// Convenience overload that draws the shared negatives itself.
  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    const NegativeSampler& sampler, std::size_t ns,
                    Rng& rng);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return beta_transposed().rows();
  }

  [[nodiscard]] MatrixF extract_embedding() const;

  /// Embedding rows of `nodes` only, row i at out[i * dims()] —
  /// bit-identical to the corresponding rows of extract_embedding(), at
  /// O(touched) cost (the delta-publishing fast path).
  void extract_rows(std::span<const NodeId> nodes,
                    std::span<float> out) const;

  [[nodiscard]] std::size_t model_bytes(
      std::size_t bytes_per_scalar = sizeof(float)) const noexcept {
    return (num_nodes() * dims() + dims() * dims()) * bytes_per_scalar;
  }

 private:
  std::vector<NodeId> scratch_negatives_;
};

}  // namespace seqge
