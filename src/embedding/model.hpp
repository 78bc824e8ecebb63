#pragma once
// Unified training-model interface. The two trainers (batch "all" and
// dynamic "seq", trainer.hpp) drive any model through this interface, so
// the original SGD skip-gram, the two OS-ELM variants, and the FPGA
// accelerator (src/fpga/accelerator.hpp) are interchangeable in every
// experiment harness.

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "embedding/config.hpp"
#include "graph/graph.hpp"
#include "linalg/matrix.hpp"
#include "sampling/negative_sampler.hpp"
#include "util/rng.hpp"

namespace seqge {

class WalkBatch;

class EmbeddingModel {
 public:
  virtual ~EmbeddingModel() = default;

  /// Train on every context of one random walk. Returns a model-specific
  /// loss value (logistic loss for SGD, squared error for OS-ELM) for
  /// monitoring only.
  virtual double train_walk(std::span<const NodeId> walk, std::size_t window,
                            const NegativeSampler& sampler, std::size_t ns,
                            NegativeMode mode, Rng& rng) = 0;

  /// Train a packed batch of walks. Each walk is trained with its own
  /// RNG stream seeded from WalkBatch::train_seed(i), using the walk's
  /// pre-sampled negatives when present (kPerWalk mode); the base-class
  /// fallback simply loops train_walk. Overrides must be bit-identical
  /// to the fallback — batching may only change *how* the same updates
  /// are applied (e.g. the FPGA amortizing DMA of shared beta rows
  /// across the batch), never the numbers. Returns the summed per-walk
  /// loss.
  virtual double train_batch(const WalkBatch& batch, std::size_t window,
                             const NegativeSampler& sampler, std::size_t ns,
                             NegativeMode mode);

  /// Reverse the training of `batch`, walks last-to-first (the LIFO
  /// order under which the OS-ELM covariance downdate is exact). Only
  /// batches whose walks carry pre-packed negatives (kPerWalk packing)
  /// are reversible — the sample stream is then reconstructible without
  /// replaying the model's internal RNG draws. Returns true when the
  /// whole batch was unlearned; false when the model does not support
  /// unlearning (the default — notably the SGD baseline, whose
  /// documented deletion path is approximate: re-train the surviving
  /// neighborhoods instead), a walk lacks packed negatives, or a
  /// conditioning guard fired mid-reversal. On false the model state
  /// may be partially reversed (see OselmSkipGram::untrain_walk); the
  /// caller must fall back to re-training the affected neighborhoods
  /// either way, which also repairs any partial reversal.
  virtual bool untrain_batch(const WalkBatch& batch, std::size_t window,
                             const NegativeSampler& sampler, std::size_t ns,
                             NegativeMode mode);

  /// The learned graph embedding, one row per node.
  [[nodiscard]] virtual MatrixF extract_embedding() const = 0;

  /// Copy the embedding rows of `nodes` into `out`, row i at
  /// out[i * dims(), (i + 1) * dims()) (out holds nodes.size() x dims()
  /// floats — a MatrixF's flat(), or a page of a serving store, which
  /// lets the rows land there without a staging copy). Row i must be
  /// bit-identical to row nodes[i] of extract_embedding() — that
  /// equivalence is what lets the delta-publishing path
  /// (SnapshotSink::on_delta) reproduce the full-snapshot path exactly.
  /// The base implementation materializes the full embedding and slices
  /// it (O(n x dims)); every built-in backend overrides it with an
  /// O(touched x dims) copy.
  virtual void extract_rows(std::span<const NodeId> nodes,
                            std::span<float> out) const;

  [[nodiscard]] virtual std::size_t dims() const = 0;
  [[nodiscard]] virtual std::size_t num_nodes() const = 0;
  [[nodiscard]] virtual std::size_t model_bytes() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

enum class ModelKind {
  kOriginalSGD,    ///< skip-gram + negative sampling + SGD (baseline)
  kOselm,          ///< proposed model, Algorithm 1
  kOselmDataflow,  ///< proposed model, Algorithm 2 (FPGA algorithm)
};

[[nodiscard]] std::string to_string(ModelKind kind);

/// Create one of the CPU models. Prefer the string-keyed backend
/// registry (embedding/backend_registry.hpp), which unifies these with
/// the FPGA accelerator; this enum factory is what the registry wraps.
[[nodiscard]] std::unique_ptr<EmbeddingModel> make_model(
    ModelKind kind, std::size_t num_nodes, const TrainConfig& cfg, Rng& rng);

}  // namespace seqge
