#pragma once
// The "Original model": skip-gram with negative sampling trained by SGD
// (word2vec-style; Fig. 2-left of the paper). This is the baseline that
// the proposed OS-ELM model is compared against in Tables 3-5 and
// Figs. 5-6, and the model that exhibits catastrophic forgetting in the
// "seq" scenario.
//
// Per (center c, sample s, label t) the update is
//   g = sigmoid(h . v_s) - t
//   v_s -= lr * g * h        (output vector)
//   h_acc += g * v_s          (accumulated into the input row after the
//                              context's samples are processed)
//   w_c -= lr * h_acc
// The graph embedding is the input matrix W_in (Sec. 2.1).
//
// Deletion/unlearning: SGD has no closed-form reversal (unlike the
// OS-ELM recursion, whose covariance downdate untrains exactly — see
// OselmSkipGram::untrain_walk), so this model keeps the default
// EmbeddingModel::untrain_batch (returns false) and the documented
// *approximate* deletion path applies: on edge expiry the StreamTrainer
// re-trains fresh walks from the deleted edge's surviving endpoints,
// diluting the stale structure instead of subtracting it.

#include <cstdint>
#include <span>
#include <vector>

#include "embedding/config.hpp"
#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "sampling/negative_sampler.hpp"
#include "util/rng.hpp"
#include "walk/corpus.hpp"

namespace seqge {

class SkipGramSGD {
 public:
  /// W_in ~ U(-0.5/dims, 0.5/dims), W_out = 0 (word2vec convention).
  SkipGramSGD(std::size_t num_nodes, std::size_t dims, Rng& rng);

  /// Train one (center, positive) pair plus `negatives`. Returns the
  /// summed logistic loss over the ns+1 samples (for monitoring).
  double train_pair(NodeId center, NodeId positive,
                    std::span<const NodeId> negatives, double lr);

  /// Train every positive of a context window against `negatives`.
  double train_context(const WalkContext& ctx,
                       std::span<const NodeId> negatives, double lr);

  /// Train all contexts of one walk. Negatives are drawn fresh per
  /// context (kPerContext) or once for the whole walk (kPerWalk).
  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    const NegativeSampler& sampler, std::size_t ns,
                    NegativeMode mode, Rng& rng, double lr);

  /// kPerWalk path with externally pre-sampled shared negatives (the
  /// batched pipeline's PS-side pre-sampling). Bit-identical to the
  /// rng-drawing overload when `shared_negatives` came from the same
  /// stream.
  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    std::span<const NodeId> shared_negatives, double lr);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return w_in_.rows();
  }
  [[nodiscard]] std::size_t dims() const noexcept { return w_in_.cols(); }

  /// The graph embedding (input-side weights), one row per node.
  [[nodiscard]] const MatrixF& embeddings() const noexcept { return w_in_; }
  [[nodiscard]] std::span<const float> embedding(NodeId v) const noexcept {
    return w_in_.row(v);
  }
  [[nodiscard]] const MatrixF& output_weights() const noexcept {
    return w_out_;
  }

  /// Parameter bytes: two n x dims matrices at `bytes_per_scalar`. The
  /// paper's CPU reference stores doubles (8); our in-memory layout is
  /// float (4). Both are reported by bench_table5_model_size.
  [[nodiscard]] std::size_t model_bytes(
      std::size_t bytes_per_scalar = sizeof(float)) const noexcept {
    return 2 * num_nodes() * dims() * bytes_per_scalar;
  }

  /// Debug/bench knob: route every pair through the sequential
  /// per-sample reference path instead of the fused batched kernels.
  /// The fused path is bit-identical on every ISA (tests gate on it);
  /// this exists to measure and to prove that claim.
  void set_force_unfused(bool v) noexcept { force_unfused_ = v; }

 private:
  /// Cache w_out_ row pointers of `negatives` in neg_rows_ and detect
  /// duplicate draws (sampling is with replacement) — once per walk in
  /// kPerWalk mode, once per pair in kPerContext mode.
  void prepare_negatives(std::span<const NodeId> negatives);
  /// train_pair body assuming prepare_negatives(negatives) ran.
  double train_pair_prepared(NodeId center, NodeId positive,
                             std::span<const NodeId> negatives, double lr);
  /// The exact pre-fusion sequential path (duplicate fallback,
  /// force_unfused, and the reference for the identity tests).
  double train_pair_unfused(NodeId center, NodeId positive,
                            std::span<const NodeId> negatives, double lr);

  MatrixF w_in_;   // n x dims
  MatrixF w_out_;  // n x dims (row s = output vector of node s)
  std::vector<float> h_grad_;  // scratch, dims entries
  std::vector<NodeId> scratch_negatives_;
  // Fused-path scratch, reused across pairs/walks (train_walk is
  // allocation-free in steady state — tests/test_train_fused.cpp pins
  // that with an operator-new counter).
  std::vector<float*> neg_rows_;     // w_out_ rows of the negative batch
  std::vector<float*> sample_rows_;  // positive + filtered negatives
  std::vector<float> scores_, g_;    // per-sample scores / gradients
  bool neg_dups_ = false;
  bool force_unfused_ = false;
};

}  // namespace seqge
