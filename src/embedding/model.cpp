#include "embedding/model.hpp"

#include <algorithm>
#include <stdexcept>

#include "embedding/oselm_dataflow.hpp"
#include "embedding/oselm_skipgram.hpp"
#include "embedding/skipgram_sgd.hpp"
#include "walk/walk_batch.hpp"

namespace seqge {

void EmbeddingModel::extract_rows(std::span<const NodeId> nodes,
                                  std::span<float> out) const {
  if (out.size() != nodes.size() * dims()) {
    throw std::invalid_argument("extract_rows: out size mismatch");
  }
  // Fallback for backends without a sparse path: materialize everything
  // and slice. Correct but O(n x dims) — the built-ins all override.
  const MatrixF full = extract_embedding();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto src = full.row(nodes[i]);
    std::copy(src.begin(), src.end(), out.begin() + i * dims());
  }
}

double EmbeddingModel::train_batch(const WalkBatch& batch,
                                   std::size_t window,
                                   const NegativeSampler& sampler,
                                   std::size_t ns, NegativeMode mode) {
  double loss = 0.0;
  for (std::size_t i = 0; i < batch.num_walks(); ++i) {
    Rng rng(batch.train_seed(i));
    loss += train_walk(batch.walk(i), window, sampler, ns, mode, rng);
  }
  return loss;
}

bool EmbeddingModel::untrain_batch(const WalkBatch& batch, std::size_t window,
                                   const NegativeSampler& sampler,
                                   std::size_t ns, NegativeMode mode) {
  (void)batch;
  (void)window;
  (void)sampler;
  (void)ns;
  (void)mode;
  return false;  // unsupported: callers re-train surviving neighborhoods
}

namespace {

/// Shared per-walk dispatch of the batched adapters: walks with
/// pre-sampled negatives (kPerWalk packing) train through `with_negs`,
/// the rest re-derive their RNG from the walk's seed and train through
/// `with_rng`. This is the determinism-critical half of the train_batch
/// contract — keep it in exactly one place.
template <typename WithNegs, typename WithRng>
double dispatch_batch(const WalkBatch& batch, NegativeMode mode,
                      WithNegs&& with_negs, WithRng&& with_rng) {
  double loss = 0.0;
  for (std::size_t i = 0; i < batch.num_walks(); ++i) {
    if (mode == NegativeMode::kPerWalk && batch.has_negatives(i)) {
      loss += with_negs(batch.walk(i), batch.negatives(i));
    } else {
      Rng rng(batch.train_seed(i));
      loss += with_rng(batch.walk(i), rng);
    }
  }
  return loss;
}

class SgdAdapter final : public EmbeddingModel {
 public:
  SgdAdapter(std::size_t num_nodes, const TrainConfig& cfg, Rng& rng)
      : model_(num_nodes, cfg.dims, rng) {}

  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    const NegativeSampler& sampler, std::size_t ns,
                    NegativeMode mode, Rng& rng) override {
    return model_.train_walk(walk, window, sampler, ns, mode, rng,
                             kLearningRate);
  }
  double train_batch(const WalkBatch& batch, std::size_t window,
                     const NegativeSampler& sampler, std::size_t ns,
                     NegativeMode mode) override {
    return dispatch_batch(
        batch, mode,
        [&](auto walk, auto negs) {
          return model_.train_walk(walk, window, negs, kLearningRate);
        },
        [&](auto walk, Rng& rng) {
          return model_.train_walk(walk, window, sampler, ns, mode, rng,
                                   kLearningRate);
        });
  }
  [[nodiscard]] MatrixF extract_embedding() const override {
    return model_.embeddings();
  }
  void extract_rows(std::span<const NodeId> nodes,
                    std::span<float> out) const override {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto src = model_.embedding(nodes[i]);
      std::copy(src.begin(), src.end(), out.begin() + i * src.size());
    }
  }
  [[nodiscard]] std::size_t dims() const override { return model_.dims(); }
  [[nodiscard]] std::size_t num_nodes() const override {
    return model_.num_nodes();
  }
  [[nodiscard]] std::size_t model_bytes() const override {
    return model_.model_bytes();
  }
  [[nodiscard]] std::string name() const override { return "original-sgd"; }

 private:
  static constexpr double kLearningRate = 0.01;  ///< paper Sec. 4.3
  SkipGramSGD model_;
};

class OselmAdapter final : public EmbeddingModel {
 public:
  OselmAdapter(std::size_t num_nodes, const TrainConfig& cfg, Rng& rng)
      : model_(num_nodes, OselmSkipGram::Options::from(cfg), rng) {}

  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    const NegativeSampler& sampler, std::size_t ns,
                    NegativeMode mode, Rng& rng) override {
    return model_.train_walk(walk, window, sampler, ns, mode, rng);
  }
  double train_batch(const WalkBatch& batch, std::size_t window,
                     const NegativeSampler& sampler, std::size_t ns,
                     NegativeMode mode) override {
    return dispatch_batch(
        batch, mode,
        [&](auto walk, auto negs) {
          return model_.train_walk(walk, window, negs);
        },
        [&](auto walk, Rng& rng) {
          return model_.train_walk(walk, window, sampler, ns, mode, rng);
        });
  }
  bool untrain_batch(const WalkBatch& batch, std::size_t window,
                     const NegativeSampler& /*sampler*/, std::size_t ns,
                     NegativeMode mode) override {
    // Reversible only when every walk's negatives are packed in the
    // batch (kPerWalk pipeline packing) — rng-drawn negatives are not
    // reconstructible once the sampler has been rebuilt.
    if (ns > 0 && mode != NegativeMode::kPerWalk) return false;
    for (std::size_t i = batch.num_walks(); i-- > 0;) {
      if (batch.walk(i).empty()) continue;
      if (ns > 0 && !batch.has_negatives(i)) return false;
      if (!model_.untrain_walk(batch.walk(i), window, batch.negatives(i))) {
        return false;
      }
    }
    return true;
  }
  [[nodiscard]] MatrixF extract_embedding() const override {
    return model_.extract_embedding();
  }
  void extract_rows(std::span<const NodeId> nodes,
                    std::span<float> out) const override {
    model_.extract_rows(nodes, out);
  }
  [[nodiscard]] std::size_t dims() const override { return model_.dims(); }
  [[nodiscard]] std::size_t num_nodes() const override {
    return model_.num_nodes();
  }
  [[nodiscard]] std::size_t model_bytes() const override {
    return model_.model_bytes();
  }
  [[nodiscard]] std::string name() const override { return "oselm-alg1"; }

 private:
  OselmSkipGram model_;
};

class DataflowAdapter final : public EmbeddingModel {
 public:
  DataflowAdapter(std::size_t num_nodes, const TrainConfig& cfg, Rng& rng)
      : model_(num_nodes, OselmSkipGramDataflow::Options::from(cfg), rng) {}

  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    const NegativeSampler& sampler, std::size_t ns,
                    NegativeMode /*mode*/, Rng& rng) override {
    // The dataflow algorithm always shares negatives per walk (Sec. 3.2).
    return model_.train_walk(walk, window, sampler, ns, rng);
  }
  double train_batch(const WalkBatch& batch, std::size_t window,
                     const NegativeSampler& sampler, std::size_t ns,
                     NegativeMode /*mode*/) override {
    // Negatives are only ever packed in kPerWalk mode, and the dataflow
    // algorithm always shares them; force the with-negatives branch
    // whenever they are present.
    return dispatch_batch(
        batch, NegativeMode::kPerWalk,
        [&](auto walk, auto negs) {
          return model_.train_walk(walk, window, negs);
        },
        [&](auto walk, Rng& rng) {
          return model_.train_walk(walk, window, sampler, ns, rng);
        });
  }
  bool untrain_batch(const WalkBatch& batch, std::size_t window,
                     const NegativeSampler& /*sampler*/, std::size_t ns,
                     NegativeMode /*mode*/) override {
    // The dataflow algorithm only ever trains with shared per-walk
    // negatives, so packed negatives are the only reversible shape.
    for (std::size_t i = batch.num_walks(); i-- > 0;) {
      if (batch.walk(i).empty()) continue;
      if (ns > 0 && !batch.has_negatives(i)) return false;
      if (!model_.untrain_walk(batch.walk(i), window, batch.negatives(i))) {
        return false;
      }
    }
    return true;
  }
  [[nodiscard]] MatrixF extract_embedding() const override {
    return model_.extract_embedding();
  }
  void extract_rows(std::span<const NodeId> nodes,
                    std::span<float> out) const override {
    model_.extract_rows(nodes, out);
  }
  [[nodiscard]] std::size_t dims() const override { return model_.dims(); }
  [[nodiscard]] std::size_t num_nodes() const override {
    return model_.num_nodes();
  }
  [[nodiscard]] std::size_t model_bytes() const override {
    return model_.model_bytes();
  }
  [[nodiscard]] std::string name() const override { return "oselm-alg2"; }

 private:
  OselmSkipGramDataflow model_;
};

}  // namespace

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kOriginalSGD:
      return "original-sgd";
    case ModelKind::kOselm:
      return "oselm-alg1";
    case ModelKind::kOselmDataflow:
      return "oselm-alg2";
  }
  return "unknown";
}

std::unique_ptr<EmbeddingModel> make_model(ModelKind kind,
                                           std::size_t num_nodes,
                                           const TrainConfig& cfg, Rng& rng) {
  cfg.validate();
  switch (kind) {
    case ModelKind::kOriginalSGD:
      return std::make_unique<SgdAdapter>(num_nodes, cfg, rng);
    case ModelKind::kOselm:
      return std::make_unique<OselmAdapter>(num_nodes, cfg, rng);
    case ModelKind::kOselmDataflow:
      return std::make_unique<DataflowAdapter>(num_nodes, cfg, rng);
  }
  throw std::invalid_argument("make_model: unknown kind");
}

}  // namespace seqge
