#pragma once
// Algorithm 2 (Sec. 3.2), written once for every number type: the
// dataflow-optimized OS-ELM skip-gram update that the FPGA runs. Within
// one random walk, P and beta are frozen; each context computes against
// the frozen state and accumulates its corrections into delta-P (dense
// N x N) and delta-beta (sparse rows); both are committed once per walk.
// This removes the loop-carried dependency between contexts so the four
// HLS pipeline stages stream:
//   Stage 1: H = mu * beta[center];  ph = P H^T;  hp = H P
//   Stage 2: hph = H P H^T
//   Stage 3: errors e_s = t_s - H . beta[s] for the window's samples
//   Stage 4: k = 1/(1+hph); dP -= k (ph x hp); dBeta[s] += (k ph) e_s
// After the walk: P += dP; beta[s] += dBeta[s] (lines 19-20).
//
// The per-context correction uses the closed form
//   P_i H^T = (P H^T) / (1 + H P H^T)
// (exact for the rank-1 RLS update), so Stage 4 needs one scalar
// reciprocal, exactly as in Algorithm 2 lines 16-18.
//
// The number type is a traits parameter that holds only the arithmetic,
// operation for operation: FloatNum is the CPU model
// (OselmSkipGramDataflow, SIMD kernels, k and e in double), Q824Num the
// bit-accurate Q8.24 PL core with wide DSP48-style MAC accumulators
// (fpga::Accelerator, whose rows are BRAM slots). Fig. 5's float vs
// fixed-point comparison is this one type parameter.
//
// Accuracy consequence (Fig. 5): updates within a walk do not see each
// other, which costs up to ~1% micro-F1 on the small Cora graph and
// nothing on the larger Amazon graphs.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "embedding/config.hpp"
#include "embedding/sparse_delta.hpp"
#include "fixed/fixed_point.hpp"
#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace seqge {

/// Float arithmetic of the CPU model: the ISA-dispatched kernels of
/// linalg/simd.hpp, with k and the sample errors in double.
struct FloatNum {
  using Value = float;
  using Scalar = double;
  /// Batched gather kernels for duplicate-free sample groups.
  static constexpr bool kFused = true;

  static constexpr auto matvec_both = simd::matvec_both;
  static constexpr auto dot_batch_gather = simd::dot_batch_gather;
  static constexpr auto axpy_gather = simd::axpy_gather;

  static Value value(double x) noexcept { return static_cast<float>(x); }
  static double to_double(Scalar x) noexcept { return x; }
  static Value dot(const Value* x, const Value* y, std::size_t n) noexcept {
    return simd::dot(x, y, n);
  }
  static Scalar one_plus(Value x) noexcept {
    return 1.0 + static_cast<double>(x);
  }
  static Scalar reciprocal(Scalar d) noexcept { return 1.0 / d; }
  static Scalar error(bool positive, Value score) noexcept {
    return (positive ? 1.0 : 0.0) - static_cast<double>(score);
  }
  /// m -= (k ph) hp^T, or += when !subtract (m is n x n).
  static void rank1(Value* m, std::size_t n, Value k, const Value* ph,
                    const Value* hp, bool subtract) noexcept {
    simd::rank1_update(m, n, n, subtract ? -k : k, ph, hp);
  }
  /// row -= e x, or += when !subtract.
  static void axpy(Value* row, Value e, const Value* x, std::size_t n,
                   bool subtract) noexcept {
    simd::axpy(subtract ? -e : e, x, row, n);
  }
};

/// Q8.24 arithmetic of the PL core: every dot product is a CoreAcc MAC
/// chain narrowed once. Narrowing does not round symmetrically about
/// zero, so (-a) * b != -(a * b): negation is never folded into a
/// product, and the mirror subtracts the forward pass's products.
struct Q824Num {
  using Value = fixed::CoreFixed;
  using Scalar = fixed::CoreFixed;
  static constexpr bool kFused = false;

  static Value value(double x) noexcept { return Value::from_double(x); }
  static Value value(Value x) noexcept { return x; }
  static double to_double(Scalar x) noexcept { return x.to_double(); }
  static void matvec_both(const Value* p, std::size_t n, const Value* h,
                          Value* ph, Value* hp) noexcept {
    for (std::size_t r = 0; r < n; ++r) {
      fixed::CoreAcc acc_row;  // ph[r] = sum_c P[r][c] H[c]
      fixed::CoreAcc acc_col;  // hp[r] = sum_c H[c] P[c][r]
      for (std::size_t c = 0; c < n; ++c) {
        acc_row.mac(p[r * n + c], h[c]);
        acc_col.mac(h[c], p[c * n + r]);
      }
      ph[r] = acc_row.result();
      hp[r] = acc_col.result();
    }
  }
  static Value dot(const Value* x, const Value* y, std::size_t n) noexcept {
    fixed::CoreAcc acc;
    for (std::size_t d = 0; d < n; ++d) acc.mac(x[d], y[d]);
    return acc.result();
  }
  static Scalar one_plus(Value x) noexcept { return value(1.0) + x; }
  static Scalar reciprocal(Scalar d) noexcept { return value(1.0) / d; }
  static Scalar error(bool positive, Value score) noexcept {
    return (positive ? value(1.0) : Value{}) - score;
  }
  static void rank1(Value* m, std::size_t n, Value k, const Value* ph,
                    const Value* hp, bool subtract) noexcept {
    for (std::size_t r = 0; r < n; ++r) {
      const Value phk = ph[r] * k;
      for (std::size_t c = 0; c < n; ++c) {
        Value& x = m[r * n + c];
        x = subtract ? x - phk * hp[c] : x + phk * hp[c];
      }
    }
  }
  static void axpy(Value* row, Value e, const Value* x, std::size_t n,
                   bool subtract) noexcept {
    for (std::size_t d = 0; d < n; ++d) {
      row[d] = subtract ? row[d] - x[d] * e : row[d] + x[d] * e;
    }
  }
};

struct Alg2Options {
  std::size_t dims = 32;
  double mu = 0.05;
  double p0 = 0.1;
  /// See OselmSkipGram::Options::reset_p_per_walk.
  bool reset_p_per_walk = true;

  static Alg2Options from(const TrainConfig& cfg) {
    return {cfg.dims, cfg.mu, cfg.p0, cfg.reset_p_per_walk};
  }
};

template <typename Num>
class Alg2Core {
 public:
  using Value = typename Num::Value;
  using Options = Alg2Options;

  /// `rows` zero beta rows (nodes on the CPU, BRAM slots on the PL) and
  /// P = p0 * I.
  Alg2Core(std::size_t rows, const Options& opts);

  /// Train one full walk with a shared negative batch (the FPGA always
  /// shares negatives across the walk's contexts). Commits delta-P and
  /// delta-beta at the end. Returns summed squared error.
  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    std::span<const NodeId> shared_negatives);

  /// Reverse one train_walk: the frozen-state mirror of the forward
  /// pass. Every context recomputes its correction against the
  /// *current* beta/P (exactly how the forward pass computed it against
  /// the then-frozen state) and accumulates the negated deltas; one
  /// commit applies them. Because the forward algorithm froze state for
  /// the whole walk, the recomputed corrections differ from the
  /// original ones only by the walk's own committed delta — a
  /// second-order O(mu^2) error — so this is an approximation (to
  /// ~1e-4 at default mu), not the exact LIFO reversal OselmSkipGram
  /// has. With reset_p_per_walk (default) ph = p0 * H is closed-form
  /// and P is left untouched (the per-walk covariance is transient);
  /// in persistent-P mode the accumulated delta-P is subtracted back.
  ///
  /// Returns false — with NO state modified (the deltas are discarded,
  /// unlike the Alg-1 path) — when the conditioning guard fires
  /// (1 + H P H^T <= eps for some context). Callers fall back to
  /// re-training surviving neighborhoods.
  bool untrain_walk(std::span<const NodeId> walk, std::size_t window,
                    std::span<const NodeId> shared_negatives,
                    double eps = 1e-6);

  [[nodiscard]] std::size_t dims() const noexcept { return p_.rows(); }
  [[nodiscard]] double mu() const noexcept { return opts_.mu; }

  [[nodiscard]] const Matrix<Value>& beta_transposed() const noexcept {
    return beta_t_;
  }
  /// Mutable access for checkpoint loading / warm starts.
  [[nodiscard]] Matrix<Value>& beta_transposed() noexcept { return beta_t_; }
  [[nodiscard]] const Matrix<Value>& covariance() const noexcept {
    return p_;
  }
  [[nodiscard]] Matrix<Value>& covariance() noexcept { return p_; }

  // --- bounds-checked BRAM access (the host DMA side of the PL core) ---
  void load_p(std::span<const Value> p) {  // N*N entries
    if (p.size() != p_.size()) throw std::invalid_argument("load_p: size");
    std::copy(p.begin(), p.end(), p_.data());
  }
  void load_beta_slot(std::size_t slot, std::span<const Value> row) {
    if (slot >= beta_t_.rows() || row.size() != dims()) {
      throw std::invalid_argument("load_beta_slot: bad slot/size");
    }
    std::copy(row.begin(), row.end(), beta_t_.row(slot).begin());
  }
  [[nodiscard]] std::span<const Value> beta_slot(std::size_t slot) const {
    if (slot >= beta_t_.rows()) throw std::out_of_range("beta_slot: slot");
    return beta_t_.row(slot);
  }

  /// MACs of the four-stage schedule run so far: 3N^2 + 3N per context
  /// plus 2N per sample (the perf model's op-count audit). A walk run
  /// backwards (untrain_walk) counts as the forward walk of its shape.
  [[nodiscard]] std::uint64_t mac_count() const noexcept {
    const std::uint64_t n = dims();
    return contexts_ * (3 * n * n + 3 * n) + samples_ * 2 * n;
  }
  [[nodiscard]] std::uint64_t contexts_processed() const noexcept {
    return contexts_;
  }

  /// Debug/bench knob: per-sample sequential delta updates instead of
  /// the fused batched kernels (which are bit-identical; tests gate).
  void set_force_unfused(bool v) noexcept { force_unfused_ = v; }

 private:
  /// Stages 1-4 and the commit of one walk; the mirror when Untrain.
  /// nullopt (nothing committed) when the untrain guard fires.
  template <bool Untrain>
  std::optional<double> run_walk(std::span<const NodeId> walk,
                                 std::size_t window,
                                 std::span<const NodeId> negatives,
                                 double eps);

  Options opts_;
  Matrix<Value> beta_t_;  // rows x N (frozen during a walk)
  Matrix<Value> p_;       // N x N (frozen during a walk)
  Matrix<Value> delta_p_; // N x N accumulator
  SparseRowDelta<Value> delta_beta_;
  std::vector<Value> h_, ph_, hp_, piht_;
  // Fused-path scratch, reused across contexts/walks.
  std::vector<NodeId> sample_ids_;
  std::vector<const Value*> sample_rows_;  // frozen beta rows (scores)
  std::vector<Value*> delta_rows_;         // delta_beta_ rows (updates)
  std::vector<Value> scores_, coeffs_;
  std::uint64_t contexts_ = 0;
  std::uint64_t samples_ = 0;
  bool force_unfused_ = false;
};

extern template class Alg2Core<FloatNum>;
extern template class Alg2Core<Q824Num>;

}  // namespace seqge
