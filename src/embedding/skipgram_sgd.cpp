#include "embedding/skipgram_sgd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"

namespace seqge {

SkipGramSGD::SkipGramSGD(std::size_t num_nodes, std::size_t dims, Rng& rng)
    : w_in_(num_nodes, dims), w_out_(num_nodes, dims), h_grad_(dims, 0.0f) {
  const double r = 0.5 / static_cast<double>(dims);
  w_in_.fill_uniform(rng, -r, r);
  // w_out_ stays zero (word2vec convention: output vectors start at 0).
}

void SkipGramSGD::prepare_negatives(std::span<const NodeId> negatives) {
  neg_rows_.clear();
  for (NodeId neg : negatives) neg_rows_.push_back(w_out_.row(neg).data());
  // Negatives are drawn with replacement, so the batch can repeat a
  // node (row pointers compare equal iff node ids do). The fused path
  // would read stale rows for the repeat, so such pairs take the
  // sequential fallback. A 64-bit Bloom filter over the ids screens the
  // common all-distinct batch in one pass; only a bit collision (a real
  // dup, or a false positive at ~ns^2/128 odds) pays for the exact
  // quadratic check, so the verdict is identical to always running it.
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

double SkipGramSGD::train_pair_unfused(NodeId center, NodeId positive,
                                       std::span<const NodeId> negatives,
                                       double lr) {
  auto h = w_in_.row(center);
  std::fill(h_grad_.begin(), h_grad_.end(), 0.0f);
  // Loss telemetry accumulates the pair's likelihood terms as one
  // product and takes a single log at the end: -log(p) - sum log(1-q_i)
  // == -log(p * prod (1-q_i)). One std::log per pair instead of one per
  // sample — the logs were a measurable slice of train_pair — at
  // identical math (the clamped factors are >= 1e-12 each, so the
  // product of <= ~50 terms cannot underflow double). Gradients are
  // untouched: they come from the scores alone. The fused path below
  // multiplies the same factors in the same order, keeping fused and
  // unfused losses bit-equal.
  double likelihood = 1.0;

  auto train_sample = [&](NodeId s, float label) {
    auto v = w_out_.row(s);
    const double score = sigmoid(dot<float>(h, v));
    const auto g = static_cast<float>(score - label);
    likelihood *= label > 0.5f ? std::max(score, 1e-12)
                               : std::max(1.0 - score, 1e-12);
    // h_grad accumulates before v changes, as in the reference word2vec.
    axpy<float>(g, v, h_grad_);
    axpy<float>(static_cast<float>(-lr) * g, h, v);
  };

  train_sample(positive, 1.0f);
  for (NodeId neg : negatives) {
    if (neg == positive) continue;  // never push the positive down
    train_sample(neg, 0.0f);
  }
  axpy<float>(static_cast<float>(-lr), h_grad_, h);
  return -std::log(likelihood);
}

double SkipGramSGD::train_pair_prepared(NodeId center, NodeId positive,
                                        std::span<const NodeId> negatives,
                                        double lr) {
  if (force_unfused_ || neg_dups_) {
    return train_pair_unfused(center, positive, negatives, lr);
  }
  auto h = w_in_.row(center);
  float* pos_row = w_out_.row(positive).data();

  // Positive first (label 1), then the negatives that aren't the
  // positive — the exact sample order of the sequential path. All rows
  // are distinct here (dups fell back above), so batching the scores
  // upfront reads the same floats the sequential path would.
  sample_rows_.clear();
  sample_rows_.push_back(pos_row);
  for (float* np : neg_rows_) {
    if (np != pos_row) sample_rows_.push_back(np);
  }
  const std::size_t n = sample_rows_.size();
  const std::size_t d = dims();
  scores_.resize(n);
  g_.resize(n);

  simd::dot_batch_gather(sample_rows_.data(), n, d, h.data(),
                         scores_.data());
  // Same product-form loss as train_pair_unfused (one log per pair),
  // factors multiplied in the same sample order so the two paths stay
  // bit-equal.
  double likelihood = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double score = sigmoid(scores_[i]);
    if (i == 0) {
      g_[i] = static_cast<float>(score - 1.0);
      likelihood *= std::max(score, 1e-12);
    } else {
      g_[i] = static_cast<float>(score);
      likelihood *= std::max(1.0 - score, 1e-12);
    }
  }
  simd::sgns_apply(h.data(), h_grad_.data(), sample_rows_.data(), g_.data(),
                   static_cast<float>(-lr), n, d);
  return -std::log(likelihood);
}

double SkipGramSGD::train_pair(NodeId center, NodeId positive,
                               std::span<const NodeId> negatives,
                               double lr) {
  prepare_negatives(negatives);
  return train_pair_prepared(center, positive, negatives, lr);
}

double SkipGramSGD::train_context(const WalkContext& ctx,
                                  std::span<const NodeId> negatives,
                                  double lr) {
  prepare_negatives(negatives);
  double loss = 0.0;
  for (NodeId pos : ctx.positives) {
    loss += train_pair_prepared(ctx.center, pos, negatives, lr);
  }
  return loss;
}

double SkipGramSGD::train_walk(std::span<const NodeId> walk,
                               std::size_t window,
                               const NegativeSampler& sampler, std::size_t ns,
                               NegativeMode mode, Rng& rng, double lr) {
  double loss = 0.0;
  if (mode == NegativeMode::kPerWalk) {
    sampler.sample_batch(rng, ns, /*exclude=*/walk.empty() ? 0 : walk[0],
                         scratch_negatives_);
    // Row pointers of the shared negatives are gathered once for the
    // whole walk instead of once per pair.
    prepare_negatives(scratch_negatives_);
  }
  for_each_context(walk, window, [&](const WalkContext& ctx) {
    if (mode == NegativeMode::kPerContext) {
      for (NodeId pos : ctx.positives) {
        sampler.sample_batch(rng, ns, pos, scratch_negatives_);
        prepare_negatives(scratch_negatives_);
        loss += train_pair_prepared(ctx.center, pos, scratch_negatives_, lr);
      }
    } else {
      for (NodeId pos : ctx.positives) {
        loss +=
            train_pair_prepared(ctx.center, pos, scratch_negatives_, lr);
      }
    }
  });
  return loss;
}

double SkipGramSGD::train_walk(std::span<const NodeId> walk,
                               std::size_t window,
                               std::span<const NodeId> shared_negatives,
                               double lr) {
  double loss = 0.0;
  prepare_negatives(shared_negatives);
  for_each_context(walk, window, [&](const WalkContext& ctx) {
    for (NodeId pos : ctx.positives) {
      loss += train_pair_prepared(ctx.center, pos, shared_negatives, lr);
    }
  });
  return loss;
}

}  // namespace seqge
