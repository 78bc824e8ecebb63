#include "walk/walk_batch.hpp"

#include "walk/corpus.hpp"

namespace seqge {

void WalkBatch::clear() noexcept {
  nodes_.clear();
  negatives_.clear();
  node_off_.assign(1, 0);
  neg_off_.assign(1, 0);
  seeds_.clear();
  index = 0;
}

void WalkBatch::reserve(std::size_t walks, std::size_t nodes_per_walk,
                        std::size_t negatives_per_walk) {
  nodes_.reserve(walks * nodes_per_walk);
  negatives_.reserve(walks * negatives_per_walk);
  node_off_.reserve(walks + 1);
  neg_off_.reserve(walks + 1);
  seeds_.reserve(walks);
}

void WalkBatch::add_walk(std::span<const NodeId> walk,
                         std::span<const NodeId> negatives,
                         std::uint64_t train_seed) {
  nodes_.insert(nodes_.end(), walk.begin(), walk.end());
  negatives_.insert(negatives_.end(), negatives.begin(), negatives.end());
  node_off_.push_back(static_cast<std::uint32_t>(nodes_.size()));
  neg_off_.push_back(static_cast<std::uint32_t>(negatives_.size()));
  seeds_.push_back(train_seed);
}

void WalkBatch::truncate(std::size_t count) noexcept {
  if (count >= num_walks()) return;
  node_off_.resize(count + 1);
  neg_off_.resize(count + 1);
  seeds_.resize(count);
  nodes_.resize(node_off_.back());
  negatives_.resize(neg_off_.back());
}

std::size_t WalkBatch::total_contexts(std::size_t window) const noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < num_walks(); ++i) {
    total += num_contexts(walk(i).size(), window);
  }
  return total;
}

std::size_t WalkBatch::heap_bytes() const noexcept {
  return (nodes_.capacity() + negatives_.capacity()) * sizeof(NodeId) +
         (node_off_.capacity() + neg_off_.capacity()) *
             sizeof(std::uint32_t) +
         seeds_.capacity() * sizeof(std::uint64_t);
}

}  // namespace seqge
