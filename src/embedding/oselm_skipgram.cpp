#include "embedding/oselm_skipgram.hpp"

#include <cmath>
#include <cstdint>

#include "linalg/kernels.hpp"

namespace seqge {

OselmSkipGram::OselmSkipGram(std::size_t num_nodes, const Options& opts,
                             Rng& rng)
    : opts_(opts),
      beta_t_(num_nodes, opts.dims),
      p_(opts.dims, opts.dims),
      h_(opts.dims),
      ph_(opts.dims),
      hp_(opts.dims),
      ph2_(opts.dims) {
  const double r = 0.5 / static_cast<double>(opts.dims);
  beta_t_.fill_uniform(rng, -r, r);
  p_.set_identity(static_cast<float>(opts.p0));
  if (opts_.random_alpha) {
    alpha_ = MatrixF(num_nodes, opts.dims);
    // Classic OS-ELM draws alpha from a symmetric distribution; N(0, 1/N)
    // keeps ||H|| comparable across dims.
    alpha_.fill_gaussian(rng, 1.0 / std::sqrt(static_cast<double>(opts.dims)));
  }
}

void OselmSkipGram::hidden(NodeId center, std::span<float> h) const noexcept {
  if (opts_.random_alpha) {
    copy<float>(alpha_.row(center), h);
  } else {
    auto b = beta_t_.row(center);
    const auto mu = static_cast<float>(opts_.mu);
    for (std::size_t d = 0; d < h.size(); ++d) h[d] = mu * b[d];
  }
}

void OselmSkipGram::prepare_negatives(std::span<const NodeId> negatives) {
  neg_rows_.clear();
  for (NodeId neg : negatives) {
    float* row = beta_t_.row(neg).data();
    neg_rows_.push_back(row);
    // The dims^2 P-matrix math runs before the first batched score
    // touches these rows — roughly 2 us of compute that hides the
    // gathered rows' cache-miss latency if we start the fetches now.
    // Prefetching changes no floats.
    for (std::size_t b = 0; b < opts_.dims; b += 16) {
      __builtin_prefetch(row + b);
    }
  }
  // Duplicate draws (sampling is with replacement) make the batched
  // scores read rows the sequential path updates mid-group — those
  // contexts take the per-sample fallback. A 64-bit Bloom filter over
  // the ids screens the common all-distinct batch; only a bit collision
  // pays for the exact quadratic check, so the verdict is identical.
  std::uint64_t seen = 0;
  bool collision = false;
  for (NodeId neg : negatives) {
    const std::uint64_t bit = std::uint64_t{1} << (neg & 63u);
    collision |= (seen & bit) != 0;
    seen |= bit;
  }
  neg_dups_ = false;
  if (collision) {
    for (std::size_t i = 0; i + 1 < neg_rows_.size() && !neg_dups_; ++i) {
      for (std::size_t j = i + 1; j < neg_rows_.size(); ++j) {
        if (neg_rows_[i] == neg_rows_[j]) {
          neg_dups_ = true;
          break;
        }
      }
    }
  }
}

double OselmSkipGram::train_context(const WalkContext& ctx,
                                    std::span<const NodeId> negatives) {
  prepare_negatives(negatives);
  return train_context_prepared(ctx, negatives);
}

double OselmSkipGram::train_context_prepared(
    const WalkContext& ctx, std::span<const NodeId> negatives) {
  const std::size_t n_dims = dims();
  hidden(ctx.center, h_);

  // ph = P H^T ; hp = H P. P stays symmetric in exact arithmetic; both
  // are computed as in Algorithm 1 so float round-off follows the same
  // path as the hardware. The four dims^2 passes over P (two products,
  // the rank-1 update, the re-score) fuse into two trips through the
  // matrix via the SIMD pair kernels — the hot loop of this backend —
  // with bits identical to the unfused matvec/matvec_transposed/
  // rank1_update/matvec sequence (simd.hpp contract).
  simd::matvec_both(p_.data(), n_dims, h_.data(), ph_.data(), hp_.data());

  const double hph = dot<float>(h_, ph_);
  const double k = 1.0 / (1.0 + hph);

  // P <- P - (ph hp) k, then ph2 = P_i H^T with the updated P
  // (Algorithm 1 line 7), one row at a time.
  simd::rank1_matvec(p_.data(), n_dims, static_cast<float>(-k), ph_.data(),
                     hp_.data(), h_.data(), ph2_.data());

  double sq_err = 0.0;
  auto train_sample = [&](NodeId s, float t) {
    auto col = beta_t_.row(s);
    const double e = static_cast<double>(t) - dot<float>(h_, col);
    sq_err += e * e;
    axpy<float>(static_cast<float>(e), ph2_, col);
  };
  for (NodeId pos : ctx.positives) {
    float* pos_row = beta_t_.row(pos).data();
    if (force_unfused_ || neg_dups_) {
      train_sample(pos, 1.0f);
      for (NodeId neg : negatives) {
        if (neg == pos) continue;
        train_sample(neg, 0.0f);
      }
      continue;
    }
    // Fused group: positive first, then negatives != positive — the
    // sequential sample order. Rows are pairwise distinct here, so the
    // batched scores see exactly the floats the sequential pass would,
    // and the gathered axpy updates cannot collide.
    sample_rows_.clear();
    sample_rows_.push_back(pos_row);
    for (float* np : neg_rows_) {
      if (np != pos_row) sample_rows_.push_back(np);
    }
    const std::size_t n = sample_rows_.size();
    scores_.resize(n);
    coeffs_.resize(n);
    simd::dot_batch_gather(sample_rows_.data(), n, n_dims, h_.data(),
                           scores_.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double t = i == 0 ? 1.0 : 0.0;
      const double e = t - static_cast<double>(scores_[i]);
      sq_err += e * e;
      coeffs_[i] = static_cast<float>(e);
    }
    simd::axpy_gather(sample_rows_.data(), coeffs_.data(), ph2_.data(), n,
                      n_dims);
  }
  return sq_err;
}

double OselmSkipGram::train_walk(std::span<const NodeId> walk,
                                 std::size_t window,
                                 const NegativeSampler& sampler,
                                 std::size_t ns, NegativeMode mode,
                                 Rng& rng) {
  double err = 0.0;
  if (opts_.reset_p_per_walk) {
    p_.set_identity(static_cast<float>(opts_.p0));
  }
  if (mode == NegativeMode::kPerWalk) {
    sampler.sample_batch(rng, ns, walk.empty() ? 0 : walk[0],
                         scratch_negatives_);
    prepare_negatives(scratch_negatives_);  // once for the whole walk
    for_each_context(walk, window, [&](const WalkContext& ctx) {
      err += train_context_prepared(ctx, scratch_negatives_);
    });
    return err;
  }
  for_each_context(walk, window, [&](const WalkContext& ctx) {
    // Algorithm 1 draws fresh negatives per positive (line 13); using one
    // draw per context keeps the RLS structure identical while matching
    // the reference implementation's sampling rate.
    sampler.sample_batch(rng, ns, ctx.center, scratch_negatives_);
    err += train_context(ctx, scratch_negatives_);
  });
  return err;
}

double OselmSkipGram::train_walk(std::span<const NodeId> walk,
                                 std::size_t window,
                                 std::span<const NodeId> shared_negatives) {
  double err = 0.0;
  if (opts_.reset_p_per_walk) {
    p_.set_identity(static_cast<float>(opts_.p0));
  }
  prepare_negatives(shared_negatives);
  for_each_context(walk, window, [&](const WalkContext& ctx) {
    err += train_context_prepared(ctx, shared_negatives);
  });
  return err;
}

bool OselmSkipGram::untrain_context(const WalkContext& ctx,
                                    std::span<const NodeId> negatives,
                                    double eps) {
  if (!opts_.random_alpha) {
    // Tied weights: H was mu * beta(center) *at training time*. If this
    // context trained beta(center) through one of its own samples, the
    // current row no longer encodes that H — unrecoverable, bail before
    // touching anything.
    for (NodeId pos : ctx.positives) {
      if (pos == ctx.center) return false;
    }
    for (NodeId neg : negatives) {
      if (neg == ctx.center) return false;
    }
  }
  const std::size_t n_dims = dims();
  hidden(ctx.center, h_);

  // On the post-context P', ph = P' H^T equals the forward pass's ph2
  // (the vector every beta update was scaled by), and
  // d = 1 - H P' H^T = 1 / (1 + H P H^T) > 0 — so d tells us the
  // forward gain exactly, and d <= eps means the restored P would not
  // be positive-definite (the conditioning guard).
  simd::matvec_both(p_.data(), n_dims, h_.data(), ph_.data(), hp_.data());
  const double d = 1.0 - dot<float>(h_, ph_);
  if (!(d > eps)) return false;
  const double inv_d = 1.0 / d;

  // Reverse of the forward sample order: groups last-to-first, each
  // group's negatives (reversed) before its positive. The forward error
  // e satisfies t - H.beta'(s) = e * d, so e recovers exactly.
  auto untrain_sample = [&](NodeId s, float t) {
    auto col = beta_t_.row(s);
    const double e =
        (static_cast<double>(t) - dot<float>(h_, col)) * inv_d;
    axpy<float>(static_cast<float>(-e), ph_, col);
  };
  for (std::size_t g = ctx.positives.size(); g-- > 0;) {
    const NodeId pos = ctx.positives[g];
    for (std::size_t j = negatives.size(); j-- > 0;) {
      if (negatives[j] == pos) continue;
      untrain_sample(negatives[j], 0.0f);
    }
    untrain_sample(pos, 1.0f);
  }

  // Covariance downdate: P = P' + (P' H^T)(H P') / d restores the
  // pre-context covariance (Sherman–Morrison run backwards).
  rank1_update(p_, static_cast<float>(inv_d), std::span<const float>(ph_),
               std::span<const float>(hp_));
  return true;
}

bool OselmSkipGram::untrain_walk(std::span<const NodeId> walk,
                                 std::size_t window,
                                 std::span<const NodeId> shared_negatives,
                                 double eps) {
  if (window < 2 || walk.size() < window) return true;
  // Contexts strictly last-to-first; each reversal restores the state
  // its predecessor's reversal needs (the LIFO recursion). H is
  // recomputed lazily per context from the partially reversed beta —
  // exact, because by the time context i reverses, every later
  // context's update to beta(center_i) has already been undone.
  for (std::size_t i = walk.size() - window + 1; i-- > 0;) {
    const WalkContext ctx{walk[i], walk.subspan(i + 1, window - 1)};
    if (!untrain_context(ctx, shared_negatives, eps)) return false;
  }
  return true;
}

MatrixF OselmSkipGram::extract_embedding() const {
  MatrixF emb(num_nodes(), dims());
  const float scale =
      opts_.random_alpha ? 1.0f : static_cast<float>(opts_.mu);
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    auto src = beta_t_.row(v);
    auto dst = emb.row(v);
    for (std::size_t d = 0; d < dims(); ++d) dst[d] = scale * src[d];
  }
  return emb;
}

void OselmSkipGram::extract_rows(std::span<const NodeId> nodes,
                                 std::span<float> out) const {
  const float scale =
      opts_.random_alpha ? 1.0f : static_cast<float>(opts_.mu);
  float* dst = out.data();
  for (NodeId v : nodes) {
    for (float x : beta_t_.row(v)) *dst++ = scale * x;
  }
}

}  // namespace seqge
