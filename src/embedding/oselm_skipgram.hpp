#pragma once
// The "Proposed model": OS-ELM-based sequentially-trainable skip-gram
// (Sec. 3.1, Algorithm 1). A single-hidden-layer network where only the
// output-side weights beta (N x n) are trainable, updated by the
// recursive-least-squares OS-ELM rule; the input-side weights are the
// tied mu * beta^T (eliminating the classic OS-ELM random alpha), so the
// hidden activation of center node c is simply H = mu * beta[:, c].
//
// Per context (center c, window positives, ns negatives):
//   H      = mu * beta_col(c)                                  (1 x N)
//   ph     = P H^T,  hp = H P                                  (N)
//   k      = 1 / (1 + H P H^T)
//   P     <- P - (ph hp) k                      (rank-1 RLS shrink)
//   ph2    = P H^T                              (with the new P)
//   for each sample s (1 positive + ns negatives):
//     e    = t_s - H . beta_col(s)              (t=1 pos, 0 neg)
//     beta_col(s) += ph2 * e
//
// beta is stored transposed (n rows of N floats) so beta_col(v) is a
// contiguous row — that row, scaled by mu, is also node v's embedding.
//
// The `random_alpha` option reproduces Fig. 7's "alpha" baseline:
// H = alpha[c] with alpha fixed random, embedding still read from beta.

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

class OselmSkipGram {
 public:
  struct Options {
    std::size_t dims = 32;
    double mu = 0.05;
    double p0 = 0.1;
    bool random_alpha = false;
    /// Reset P to p0*I at the start of every walk. This mirrors the
    /// board flow of Fig. 4 (only beta round-trips DRAM<->BRAM; P is
    /// (re)initialized on the PL) and keeps the per-walk update gain
    /// bounded, which is what lets sequential training keep absorbing
    /// new edges indefinitely instead of freezing as 1/t RLS gain decay
    /// sets in. Disable for the classic persistent-P OS-ELM recursion
    /// (the ablation bench compares both).
    bool reset_p_per_walk = true;

    static Options from(const TrainConfig& cfg) {
      return {cfg.dims, cfg.mu, cfg.p0, cfg.random_alpha,
              cfg.reset_p_per_walk};
    }
  };

  OselmSkipGram(std::size_t num_nodes, const Options& opts, Rng& rng);

  /// One Algorithm-1 iteration (lines 2-15): RLS update of P then the
  /// beta columns of the context's samples. Returns the summed squared
  /// error over samples (monitoring only).
  double train_context(const WalkContext& ctx,
                       std::span<const NodeId> negatives);

  /// train_context assuming prepare_negatives(negatives) already ran
  /// (the per-walk shared-negatives paths gather row pointers once).
  double train_context_prepared(const WalkContext& ctx,
                                std::span<const NodeId> negatives);

  /// Train all contexts of one walk; negatives per context (Algorithm 1
  /// default) or one shared batch per walk.
  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    const NegativeSampler& sampler, std::size_t ns,
                    NegativeMode mode, Rng& rng);

  /// kPerWalk path with externally pre-sampled shared negatives (the
  /// batched pipeline's PS-side pre-sampling). Resets P per walk exactly
  /// like the rng-drawing overload.
  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    std::span<const NodeId> shared_negatives);

  /// Reverse one train_walk(walk, window, shared_negatives): the RLS
  /// recursion run backwards. Contexts are reversed last-to-first; each
  /// undoes its beta updates in reverse sample order and then applies
  /// the rank-1 covariance *downdate*
  ///   d  = 1 - H P' H^T          (P' = covariance after the context;
  ///                               equals 1 / (1 + H P H^T) exactly)
  ///   e  = (t - H . beta'(s)) / d,  beta(s) = beta'(s) - e (P' H^T)
  ///   P  = P' + (P' H^T)(H P') / d
  /// which is the Sherman–Morrison inverse update inverted. When the
  /// untrained walk is the most recently trained one (LIFO order —
  /// what sliding-window expiry of the newest-first kind and the
  /// unlearning tests exercise), this reproduces the pre-walk state to
  /// float round-off; untraining older walks runs the same formulas as
  /// an approximation of that walk's contribution against the current
  /// state.
  ///
  /// Returns false — with the model left PARTIALLY reversed — when a
  /// context cannot be inverted:
  ///  * conditioning guard: d <= eps, i.e. the downdated P would lose
  ///    positive-definiteness (numerically impossible under exact LIFO,
  ///    the approximate regime's escape hatch);
  ///  * tied-weights self-reference: the context's center appears among
  ///    its own samples, so H = mu * beta(center) at training time is
  ///    unrecoverable from the post-update state.
  /// Callers must then fall back to re-training the walk's surviving
  /// neighborhoods (StreamTrainer does exactly that).
  ///
  /// With reset_p_per_walk (the default) the covariance restored by a
  /// full reversal is the transient p0*I, not the pre-walk P — beta is
  /// still exactly reversed, which is all that state carries across
  /// walks in that mode.
  bool untrain_walk(std::span<const NodeId> walk, std::size_t window,
                    std::span<const NodeId> shared_negatives,
                    double eps = 1e-6);

  /// One reversed context of untrain_walk (exposed for the unit tests'
  /// guard probes). Same return contract.
  bool untrain_context(const WalkContext& ctx,
                       std::span<const NodeId> negatives, double eps = 1e-6);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return beta_t_.rows();
  }
  [[nodiscard]] std::size_t dims() const noexcept { return beta_t_.cols(); }
  [[nodiscard]] double mu() const noexcept { return opts_.mu; }

  /// beta^T (n x N): row v = output weight column of node v.
  [[nodiscard]] const MatrixF& beta_transposed() const noexcept {
    return beta_t_;
  }
  [[nodiscard]] MatrixF& beta_transposed() noexcept { return beta_t_; }
  [[nodiscard]] const MatrixF& covariance() const noexcept { return p_; }
  [[nodiscard]] MatrixF& covariance() noexcept { return p_; }

  /// The graph embedding: mu * beta_col(v) in tied mode; beta_col(v)
  /// when random_alpha (beta is still the trained weight there).
  [[nodiscard]] MatrixF extract_embedding() const;

  /// Embedding rows of `nodes` only, row i at out[i * dims()] —
  /// bit-identical to the corresponding rows of extract_embedding(), at
  /// O(touched) cost (the delta-publishing fast path).
  void extract_rows(std::span<const NodeId> nodes,
                    std::span<float> out) const;

  /// Parameter bytes: beta (n x N) + P (N x N), float32 — what the BRAM
  /// actually holds. Excludes the fixed random alpha unless the alpha
  /// baseline is in use (that is the paper's memory-saving argument).
  [[nodiscard]] std::size_t model_bytes(
      std::size_t bytes_per_scalar = sizeof(float)) const noexcept {
    std::size_t params = num_nodes() * dims() + dims() * dims();
    if (opts_.random_alpha) params += num_nodes() * dims();
    return params * bytes_per_scalar;
  }

  /// Hidden activation of a center node into `h` (dims entries).
  void hidden(NodeId center, std::span<float> h) const noexcept;

  /// Debug/bench knob: per-sample sequential beta updates instead of
  /// the fused batched kernels (which are bit-identical; tests gate).
  void set_force_unfused(bool v) noexcept { force_unfused_ = v; }

 private:
  /// Cache beta rows of `negatives` + duplicate detection (see
  /// SkipGramSGD::prepare_negatives).
  void prepare_negatives(std::span<const NodeId> negatives);

  Options opts_;
  MatrixF beta_t_;  // n x N
  MatrixF p_;       // N x N
  MatrixF alpha_;   // n x N, only when random_alpha
  // Scratch (kept to avoid per-context allocation).
  std::vector<float> h_, ph_, hp_, ph2_;
  std::vector<NodeId> scratch_negatives_;
  // Fused-path scratch, reused across contexts/walks.
  std::vector<float*> neg_rows_, sample_rows_;
  std::vector<float> scores_, coeffs_;
  bool neg_dups_ = false;
  bool force_unfused_ = false;
};

}  // namespace seqge
