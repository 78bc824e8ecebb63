#include "embedding/alg2_core.hpp"

#include "walk/corpus.hpp"

namespace seqge {

template <typename Num>
Alg2Core<Num>::Alg2Core(std::size_t rows, const Options& opts)
    : opts_(opts),
      beta_t_(rows, opts.dims),
      p_(opts.dims, opts.dims),
      delta_p_(opts.dims, opts.dims),
      delta_beta_(rows, opts.dims),
      h_(opts.dims),
      ph_(opts.dims),
      hp_(opts.dims),
      piht_(opts.dims) {
  p_.set_identity(Num::value(opts.p0));
}

template <typename Num>
double Alg2Core<Num>::train_walk(std::span<const NodeId> walk,
                                 std::size_t window,
                                 std::span<const NodeId> shared_negatives) {
  return *run_walk<false>(walk, window, shared_negatives, 0.0);
}

template <typename Num>
bool Alg2Core<Num>::untrain_walk(std::span<const NodeId> walk,
                                 std::size_t window,
                                 std::span<const NodeId> shared_negatives,
                                 double eps) {
  if (window < 2 || walk.size() < window) return true;
  return run_walk<true>(walk, window, shared_negatives, eps).has_value();
}

template <typename Num>
template <bool Untrain>
std::optional<double> Alg2Core<Num>::run_walk(
    std::span<const NodeId> walk, std::size_t window,
    std::span<const NodeId> negatives, double eps) {
  const std::size_t n = dims();
  const Value mu = Num::value(opts_.mu);
  const Value p0 = Num::value(opts_.p0);
  // In reset mode the covariance a walk trained against was exactly
  // p0*I: the forward pass re-initializes it, and the mirror takes
  // ph = hp = p0 * H in closed form — no P read — and leaves P alone.
  const bool closed_form = Untrain && opts_.reset_p_per_walk;
  if (!Untrain && opts_.reset_p_per_walk) p_.set_identity(p0);
  delta_p_.fill(Value{});

  // Duplicate negative draws (sampling with replacement) would make
  // the gathered delta updates collide on one row — those walks take
  // the sequential per-sample path. Checked once: the batch is shared
  // across every context of the walk.
  bool fused = Num::kFused && !force_unfused_;
  for (std::size_t i = 0; fused && i + 1 < negatives.size(); ++i) {
    fused = std::find(negatives.begin() + i + 1, negatives.end(),
                      negatives[i]) == negatives.end();
  }

  double sq_err = 0.0;
  bool ok = true;
  for_each_context(walk, window, [&](const WalkContext& ctx) {
    if (!ok) return;
    ++contexts_;
    // Stage 1: H from the frozen beta; ph = P H^T, hp = H P in one
    // pass over P.
    auto bc = beta_t_.row(ctx.center);
    for (std::size_t d = 0; d < n; ++d) h_[d] = mu * bc[d];
    if (closed_form) {
      for (std::size_t d = 0; d < n; ++d) {
        ph_[d] = p0 * h_[d];
        hp_[d] = ph_[d];
      }
    } else {
      Num::matvec_both(p_.data(), n, h_.data(), ph_.data(), hp_.data());
    }

    // Stage 2: 1 + H P H^T, the conditioning guard of the mirror, and
    // the Stage 4 scalar k.
    const auto denom = Num::one_plus(Num::dot(h_.data(), ph_.data(), n));
    if (Untrain && !(Num::to_double(denom) > eps)) {
      ok = false;
      return;
    }
    const Value k = Num::value(Num::reciprocal(denom));

    // Stage 4 (P side): delta_P -= k (ph hp);  P_i H^T = k ph. The
    // mirror accumulates the negated deltas throughout.
    Num::rank1(delta_p_.data(), n, k, ph_.data(), hp_.data(),
               /*subtract=*/!Untrain);
    for (std::size_t d = 0; d < n; ++d) piht_[d] = k * ph_[d];

    // Stage 3 + 4 (beta side): errors against the frozen beta, deferred
    // into delta_beta.
    auto train_sample = [&](NodeId s, bool positive) {
      const auto e = Num::error(
          positive, Num::dot(h_.data(), beta_t_.row(s).data(), n));
      const double ed = Num::to_double(e);
      sq_err += ed * ed;
      ++samples_;
      Num::axpy(delta_beta_.row(s).data(), Num::value(e), piht_.data(), n,
                /*subtract=*/Untrain);
    };
    for (NodeId pos : ctx.positives) {
      if (!fused) {
        train_sample(pos, true);
        for (NodeId neg : negatives) {
          if (neg != pos) train_sample(neg, false);
        }
        continue;
      }
      if constexpr (Num::kFused) {
        // Fused group: scores come from the frozen beta (batching
        // cannot go stale), updates land in pairwise-distinct delta rows.
        sample_ids_.assign(1, pos);
        sample_rows_.assign(1, beta_t_.row(pos).data());
        for (NodeId neg : negatives) {
          if (neg == pos) continue;
          sample_ids_.push_back(neg);
          sample_rows_.push_back(beta_t_.row(neg).data());
        }
        const std::size_t m = sample_ids_.size();
        scores_.resize(m);
        coeffs_.resize(m);
        Num::dot_batch_gather(sample_rows_.data(), m, n, h_.data(),
                              scores_.data());
        for (std::size_t i = 0; i < m; ++i) {
          const auto e = Num::error(i == 0, scores_[i]);
          sq_err += e * e;
          coeffs_[i] = Num::value(Untrain ? -e : e);
        }
        samples_ += m;
        // First-touch delta_beta_.row() in sample order (same dirty-list
        // order as the sequential path), THEN collect the pointers —
        // row() can grow the pool and move earlier rows.
        for (NodeId s : sample_ids_) (void)delta_beta_.row(s);
        delta_rows_.clear();
        for (NodeId s : sample_ids_) {
          delta_rows_.push_back(delta_beta_.row(s).data());
        }
        Num::axpy_gather(delta_rows_.data(), coeffs_.data(), piht_.data(),
                         m, n);
      }
    }
  });

  if (!ok) {
    // Nothing was committed: the model is bit-identical to before.
    delta_beta_.clear();
    return std::nullopt;
  }
  // Commit (Algorithm 2 lines 19-20).
  if (!closed_form) {
    auto pf = p_.flat();
    auto df = delta_p_.flat();
    for (std::size_t i = 0; i < pf.size(); ++i) pf[i] += df[i];
  }
  delta_beta_.apply_to(beta_t_);
  return sq_err;
}

template class Alg2Core<FloatNum>;
template class Alg2Core<Q824Num>;

}  // namespace seqge
