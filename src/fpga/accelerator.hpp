#pragma once
// Host-side driver of the board-level system (Fig. 4). The "PS" side
// owns the full weight array in DRAM (fixed-point, as stored on the
// device) and, per random walk:
//   1. pre-samples negatives (host CPU, like the paper's PS),
//   2. maps the walk's distinct nodes + negatives to BRAM slots,
//   3. DMA-in: sample ids, touched beta rows (P is modeled in the
//      transfer budget too, matching the perf-model calibration),
//   4. runs Algorithm 2 bit-accurately on the PL core — the Q8.24
//      instantiation of the shared dataflow core (embedding/alg2_core),
//      whose rows are the BRAM slots,
//   5. DMA-out: updated beta rows, written back to DRAM.
//
// Wall-clock on the simulating host is irrelevant; the accelerator
// accumulates *simulated* time from the cycle/DMA models. Implements
// EmbeddingModel so both trainers (all/seq) can drive the FPGA exactly
// like the CPU models — that is how Fig. 5/6 FPGA accuracy results are
// produced.

#include <cstdint>
#include <vector>

#include "embedding/alg2_core.hpp"
#include "embedding/model.hpp"
#include "fpga/config.hpp"
#include "fpga/perf_model.hpp"
#include "graph/graph.hpp"

namespace seqge::fpga {

using fixed::CoreFixed;
/// The PL training core: Algorithm 2 in Q8.24 over max_slots() BRAM rows.
using PlCore = Alg2Core<Q824Num>;

class Accelerator final : public EmbeddingModel {
 public:
  Accelerator(std::size_t num_nodes, const AcceleratorConfig& cfg, Rng& rng);

  // --- EmbeddingModel ----------------------------------------------------
  double train_walk(std::span<const NodeId> walk, std::size_t window,
                    const NegativeSampler& sampler, std::size_t ns,
                    NegativeMode mode, Rng& rng) override;
  /// Batched training. Functionally bit-identical to looping train_walk
  /// (each walk still runs Algorithm 2 and commits before the next), but
  /// the *simulated* DMA amortizes: the union of the batch's touched
  /// beta rows crosses DRAM<->BRAM once per direction and the per-walk
  /// descriptor overhead collapses to one per batch (Fig. 4 bursts).
  double train_batch(const WalkBatch& batch, std::size_t window,
                     const NegativeSampler& sampler, std::size_t ns,
                     NegativeMode mode) override;
  /// Unlearning on the device: walks last-to-first, each through the
  /// core's frozen-state mirror (PlCore::untrain_walk) with the same
  /// slot map and DMA round trip as training. Needs packed negatives,
  /// like the CPU dataflow adapter. A walk whose conditioning guard
  /// fires leaves the device state bit-unchanged (no DMA-out) and
  /// stops the reversal with false. Simulated time is charged per walk
  /// as for a forward walk of the same shape: the mirror runs the same
  /// four-stage pipeline and moves the same rows.
  bool untrain_batch(const WalkBatch& batch, std::size_t window,
                     const NegativeSampler& sampler, std::size_t ns,
                     NegativeMode mode) override;
  [[nodiscard]] MatrixF extract_embedding() const override;
  /// O(touched) embedding-row extraction (delta publishing): each row
  /// dequantizes exactly the same Q8.24 words extract_embedding would,
  /// so the two are bit-identical row for row.
  void extract_rows(std::span<const NodeId> nodes,
                    MatrixF& out) const override;
  [[nodiscard]] std::size_t dims() const override { return cfg_.dims; }
  [[nodiscard]] std::size_t num_nodes() const override {
    return num_nodes_;
  }
  [[nodiscard]] std::size_t model_bytes() const override {
    return (num_nodes_ * cfg_.dims + cfg_.dims * cfg_.dims) *
           PerfModel::kWordBytes;
  }
  [[nodiscard]] std::string name() const override { return "fpga-accel"; }

  // --- checkpoint support -------------------------------------------------
  /// Device weights dequantized to float (n x N rows, beta^T layout —
  /// the same payload the CPU models checkpoint). Q8.24 values with
  /// |raw| < 2^24 convert exactly, so save/load round-trips losslessly.
  [[nodiscard]] MatrixF beta_as_float() const;
  /// Overwrite the device weights from a float matrix, quantizing each
  /// entry to Q8.24 (the accelerator's load half of the checkpoint
  /// round trip). Shape must be n x N.
  void load_beta(const MatrixF& beta_t);

  // --- simulation introspection -------------------------------------------
  [[nodiscard]] double simulated_seconds() const noexcept {
    return simulated_us_ * 1e-6;
  }
  [[nodiscard]] const WalkTiming& last_walk_timing() const noexcept {
    return last_timing_;
  }
  [[nodiscard]] std::uint64_t walks_processed() const noexcept {
    return walks_;
  }
  [[nodiscard]] const PlCore& core() const noexcept { return core_; }
  /// BRAM-level access to the PL core (e.g. to inject a fault into P).
  [[nodiscard]] PlCore& core() noexcept { return core_; }
  /// The device-format weights in DRAM (n x N Q8.24 words).
  [[nodiscard]] std::span<const CoreFixed> dram_beta() const noexcept {
    return dram_beta_;
  }
  [[nodiscard]] const AcceleratorConfig& config() const noexcept {
    return cfg_;
  }

 private:
  AcceleratorConfig cfg_;
  std::size_t num_nodes_;
  PlCore core_;
  PerfModel perf_;
  std::vector<CoreFixed> dram_beta_;  // n x N, device-format weights
  // node -> slot scratch (persistent, O(touched) clears)
  std::vector<std::int32_t> slot_of_;
  std::vector<NodeId> slot_nodes_;
  std::vector<NodeId> walk_slots_, neg_slots_;
  std::vector<NodeId> negatives_;
  // batch scratch: per-walk negatives, packed (offsets are walks + 1)
  std::vector<NodeId> batch_negatives_;
  std::vector<std::uint32_t> batch_neg_off_;
  double simulated_us_ = 0.0;
  WalkTiming last_timing_{};
  std::uint64_t walks_ = 0;

  [[nodiscard]] std::uint32_t slot_for(NodeId node);
  void release_slots();
  struct WalkRun {
    double sq_err = 0.0;
    std::size_t distinct_slots = 0;
    bool ok = true;  ///< false: untrain guard fired, nothing written back
  };
  /// Slot-map, DMA-in, train (or untrain), DMA-out, release for one walk
  /// (no timing).
  WalkRun run_one_walk(std::span<const NodeId> walk,
                       std::span<const NodeId> negatives,
                       bool untrain = false);
};

}  // namespace seqge::fpga
