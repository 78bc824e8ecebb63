#pragma once
// Sparse per-row accumulation buffer for the dataflow algorithm's
// delta-beta: within one random walk only O(l + ns) of the n embedding
// rows are touched, so the deferred update keeps a dirty list plus a
// compact pool of rows instead of a dense n x dims matrix. The node ->
// slot index is persistent across walks (O(1) clears via the dirty
// list), so repeated train_walk calls cost O(touched), not O(n).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/matrix.hpp"

namespace seqge {

/// Set of embedding rows touched since the last clear() — the
/// bookkeeping half of copy-on-write delta publishing. The trainers
/// mark every node a trained batch could have updated (walk nodes plus
/// pre-sampled negatives); at snapshot cadence the ascending dirty list
/// is handed to SnapshotSink::on_delta so a store can republish
/// O(touched) rows instead of O(n). Members are one bit per row, so
/// mark() is O(1) and the ascending list falls out of a word scan with
/// count-trailing-zeros — O(n/64 + dirty), no sort; clear() is
/// O(n/64).
class DirtyRowSet {
 public:
  explicit DirtyRowSet(std::size_t num_rows)
      : words_((num_rows + 63) / 64, 0) {}

  void mark(NodeId node) {
    std::uint64_t& word = words_[node >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (node & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++size_;
    }
  }
  void mark_all(std::span<const NodeId> nodes) {
    for (NodeId v : nodes) mark(v);
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Dirty rows in ascending order, valid until the next mark() or
  /// clear().
  [[nodiscard]] std::span<const NodeId> sorted() {
    sorted_.clear();
    append_sorted_if(sorted_, [](NodeId) { return true; });
    return sorted_;
  }

  /// Appends the dirty rows for which keep(row) holds to `out`, in
  /// ascending order: the word scan and a filter in one pass.
  template <typename Keep>
  void append_sorted_if(std::vector<NodeId>& out, Keep keep) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const auto row = static_cast<NodeId>(w * 64 + std::countr_zero(bits));
        if (keep(row)) out.push_back(row);
      }
    }
  }

  void clear() noexcept {
    std::fill(words_.begin(), words_.end(), 0);
    size_ = 0;
    sorted_.clear();
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  std::vector<NodeId> sorted_;
};

/// Set of node ids as one member bit per node plus a count — the
/// StreamTrainer's tombstone set. insert, erase, count and size are
/// O(1); there is no ordered view (what changed since a flush is kept
/// by a DirtyRowSet beside it).
class NodeFlagSet {
 public:
  explicit NodeFlagSet(std::size_t num_nodes)
      : words_((num_nodes + 63) / 64, 0), num_nodes_(num_nodes) {}

  /// Returns false when `node` was already present.
  bool insert(NodeId node) {
    std::uint64_t& word = words_[node >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (node & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++size_;
    return true;
  }
  /// Returns the number of ids removed (0 or 1).
  std::size_t erase(NodeId node) {
    std::uint64_t& word = words_[node >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (node & 63);
    if ((word & bit) == 0) return 0;
    word &= ~bit;
    --size_;
    return 1;
  }
  [[nodiscard]] std::size_t count(NodeId node) const noexcept {
    return (words_[node >> 6] >> (node & 63)) & 1;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Ids the set can hold: [0, num_nodes()).
  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t num_nodes_;
  std::size_t size_ = 0;
};

/// T is the element type: float on the CPU, fixed::CoreFixed on the
/// PL core (where adding a zero delta is exact, so a sparse commit
/// writes the same words a dense one would).
template <typename T = float>
class SparseRowDelta {
 public:
  SparseRowDelta(std::size_t num_rows, std::size_t dims)
      : dims_(dims), slot_of_(num_rows, kNoSlot) {}

  /// Accumulation row for `node`; zero-initialized on first touch per
  /// epoch (i.e., since the last clear()/apply_to()).
  [[nodiscard]] std::span<T> row(NodeId node) {
    std::int32_t slot = slot_of_[node];
    if (slot == kNoSlot) {
      slot = static_cast<std::int32_t>(dirty_.size());
      slot_of_[node] = slot;
      dirty_.push_back(node);
      if (pool_.size() < dirty_.size() * dims_) {
        pool_.resize(dirty_.size() * dims_, T{});
      } else {
        std::fill_n(pool_.begin() + slot * static_cast<std::ptrdiff_t>(dims_),
                    dims_, T{});
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
  void apply_to(Matrix<T>& target) {
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
      const NodeId node = dirty_[i];
      auto dst = target.row(node);
      const T* src = pool_.data() + i * dims_;
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
  std::vector<T> pool_;
};

}  // namespace seqge
