#pragma once
// Sparse per-row accumulation buffer for the dataflow algorithm's
// delta-beta: within one random walk only O(l + ns) of the n embedding
// rows are touched, so the deferred update keeps a dirty list plus a
// compact pool of rows instead of a dense n x dims matrix. The node ->
// slot index is persistent across walks (O(1) clears via the dirty
// list), so repeated train_walk calls cost O(touched), not O(n).

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/matrix.hpp"

namespace seqge {

/// Set of embedding rows touched since the last clear() — the
/// bookkeeping half of copy-on-write delta publishing. The trainers
/// mark every node a trained batch could have updated (walk nodes plus
/// pre-sampled negatives); at snapshot cadence the sorted dirty list is
/// handed to SnapshotSink::on_delta so a store can republish O(touched)
/// rows instead of O(n). Same stamp-array technique as SparseRowDelta:
/// mark() is O(1), clear() is O(dirty), memory is one byte per row.
class DirtyRowSet {
 public:
  explicit DirtyRowSet(std::size_t num_rows)
      : stamp_(num_rows, 0), dirty_() {}

  void mark(NodeId node) {
    if (stamp_[node] == 0) {
      stamp_[node] = 1;
      dirty_.push_back(node);
    }
  }
  void mark_all(std::span<const NodeId> nodes) {
    for (NodeId v : nodes) mark(v);
  }

  [[nodiscard]] bool empty() const noexcept { return dirty_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return dirty_.size(); }
  [[nodiscard]] std::size_t num_rows() const noexcept {
    return stamp_.size();
  }

  /// Dirty rows in ascending order (sorts in place; stays sorted until
  /// the next mark of an unseen row).
  [[nodiscard]] std::span<const NodeId> sorted() {
    std::sort(dirty_.begin(), dirty_.end());
    return dirty_;
  }

  void clear() noexcept {
    for (NodeId node : dirty_) stamp_[node] = 0;
    dirty_.clear();
  }

 private:
  std::vector<std::uint8_t> stamp_;
  std::vector<NodeId> dirty_;
};

/// Ascending, duplicate-free node ids in one flat vector — the
/// StreamTrainer's tombstone set. insert/erase cost a binary search
/// plus a memmove of the tail, count() a binary search; in exchange the
/// set is always in the form SnapshotSink::on_tombstone takes, so
/// publishing it copies and sorts nothing.
class SortedNodeSet {
 public:
  /// Returns false when `node` was already present.
  bool insert(NodeId node) {
    const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
    if (it != nodes_.end() && *it == node) return false;
    nodes_.insert(it, node);
    return true;
  }
  /// Returns the number of ids removed (0 or 1).
  std::size_t erase(NodeId node) {
    const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
    if (it == nodes_.end() || *it != node) return 0;
    nodes_.erase(it);
    return 1;
  }
  [[nodiscard]] std::size_t count(NodeId node) const {
    return std::binary_search(nodes_.begin(), nodes_.end(), node) ? 1 : 0;
  }

  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] auto begin() const noexcept { return nodes_.cbegin(); }
  [[nodiscard]] auto end() const noexcept { return nodes_.cend(); }
  [[nodiscard]] std::span<const NodeId> span() const noexcept {
    return nodes_;
  }

 private:
  std::vector<NodeId> nodes_;
};

class SparseRowDelta {
 public:
  SparseRowDelta(std::size_t num_rows, std::size_t dims)
      : dims_(dims), slot_of_(num_rows, kNoSlot) {}

  /// Accumulation row for `node`; zero-initialized on first touch per
  /// epoch (i.e., since the last clear()/apply_to()).
  [[nodiscard]] std::span<float> row(NodeId node) {
    std::int32_t slot = slot_of_[node];
    if (slot == kNoSlot) {
      slot = static_cast<std::int32_t>(dirty_.size());
      slot_of_[node] = slot;
      dirty_.push_back(node);
      if (pool_.size() < dirty_.size() * dims_) {
        pool_.resize(dirty_.size() * dims_, 0.0f);
      } else {
        std::fill_n(pool_.begin() + slot * static_cast<std::ptrdiff_t>(dims_),
                    dims_, 0.0f);
      }
    }
    return {pool_.data() + static_cast<std::size_t>(slot) * dims_, dims_};
  }

  [[nodiscard]] const std::vector<NodeId>& dirty() const noexcept {
    return dirty_;
  }
  [[nodiscard]] std::size_t dims() const noexcept { return dims_; }

  /// target.row(node) += delta.row(node) for every dirty node, then
  /// reset to empty.
  void apply_to(MatrixF& target) {
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
      const NodeId node = dirty_[i];
      auto dst = target.row(node);
      const float* src = pool_.data() + i * dims_;
      for (std::size_t d = 0; d < dims_; ++d) dst[d] += src[d];
    }
    clear();
  }

  void clear() noexcept {
    for (NodeId node : dirty_) slot_of_[node] = kNoSlot;
    dirty_.clear();
  }

 private:
  static constexpr std::int32_t kNoSlot = -1;
  std::size_t dims_;
  std::vector<std::int32_t> slot_of_;
  std::vector<NodeId> dirty_;
  std::vector<float> pool_;
};

}  // namespace seqge
