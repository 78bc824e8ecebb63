#pragma once
// WalkBatch: a packed, reusable buffer of random walks plus per-walk
// pre-sampled negatives and per-walk training RNG seeds — the unit of
// work flowing through the batched training pipeline (PS-side walk
// generation / negative pre-sampling feeding PL-side training, Fig. 4).
//
// Walks and negatives are stored contiguously with prefix-offset arrays,
// so a batch is two flat DMA-friendly buffers rather than a
// vector-of-vectors. Each walk carries the seed of its own training RNG
// stream: a walk's stochastic choices depend only on (base seed, walk
// id), never on which thread produced it or what was trained before —
// that is what makes single-threaded and pipelined runs bit-identical.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace seqge {

/// Derive an independent RNG seed for (stream, index) from a base seed.
/// Two SplitMix64-style mixes keep nearby indices uncorrelated.
[[nodiscard]] constexpr std::uint64_t derive_seed(
    std::uint64_t base, std::uint64_t stream, std::uint64_t index) noexcept {
  std::uint64_t z = base ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= 0xD1B54A32D192ED03ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stream tags for derive_seed.
inline constexpr std::uint64_t kWalkSeedStream = 0x77616c6bULL;   // "walk"
inline constexpr std::uint64_t kTrainSeedStream = 0x747261696eULL;  // "train"
inline constexpr std::uint64_t kOrderSeedStream = 0x6f72646572ULL;  // "order"

class WalkBatch {
 public:
  /// Sequence number assigned by the producer; the consumer trains
  /// batches strictly in index order so results are schedule-independent.
  std::size_t index = 0;

  void clear() noexcept;
  void reserve(std::size_t walks, std::size_t nodes_per_walk,
               std::size_t negatives_per_walk);

  /// Append one walk. `negatives` may be empty (models then draw their
  /// own from the walk's seed); when present it must be the batch
  /// pre-sampled for NegativeMode::kPerWalk.
  void add_walk(std::span<const NodeId> walk,
                std::span<const NodeId> negatives, std::uint64_t train_seed);

  /// Drop all walks past the first `count` (early-stop truncation).
  void truncate(std::size_t count) noexcept;

  [[nodiscard]] std::size_t num_walks() const noexcept {
    return seeds_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return seeds_.empty(); }

  [[nodiscard]] std::span<const NodeId> walk(std::size_t i) const noexcept {
    return {nodes_.data() + node_off_[i], node_off_[i + 1] - node_off_[i]};
  }
  [[nodiscard]] std::span<const NodeId> negatives(
      std::size_t i) const noexcept {
    return {negatives_.data() + neg_off_[i], neg_off_[i + 1] - neg_off_[i]};
  }
  [[nodiscard]] bool has_negatives(std::size_t i) const noexcept {
    return neg_off_[i + 1] > neg_off_[i];
  }
  [[nodiscard]] std::uint64_t train_seed(std::size_t i) const noexcept {
    return seeds_[i];
  }

  /// Total packed walk nodes across the batch.
  [[nodiscard]] std::size_t total_nodes() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t total_contexts(std::size_t window) const noexcept;

  /// Heap bytes the batch's buffers hold (capacity, not size): clear()
  /// keeps them, so a reused batch stops allocating once it has held
  /// its largest contents.
  [[nodiscard]] std::size_t heap_bytes() const noexcept;

 private:
  std::vector<NodeId> nodes_;          // all walks, concatenated
  std::vector<NodeId> negatives_;      // all negative sets, concatenated
  std::vector<std::uint32_t> node_off_{0};  // num_walks + 1 entries
  std::vector<std::uint32_t> neg_off_{0};   // num_walks + 1 entries
  std::vector<std::uint64_t> seeds_;   // per-walk training RNG seed
};

}  // namespace seqge
