#pragma once
// Sliding-window temporal graph: a DynamicGraph whose edges carry
// insertion timestamps and expire once they fall outside a configurable
// horizon — the IoT-stream workload (ROADMAP "Scenario diversity"):
// device links come and go, and stale structure must decay out of both
// the walkable graph and, via the trainer's unlearning path, the
// embedding.
//
// Two horizons, both optional and composable:
//  * max_age    — an edge inserted at stamp t is evicted once
//                 expire(now) sees now - t > max_age;
//  * max_edges  — a capacity bound evicting oldest-first (FIFO) when
//                 the live edge count exceeds it.
//
// Every mutation is incremental: insertion and removal are O(deg) in
// the adjacency lists and O(1) amortized in the window ring and degree
// table; nothing is rebuilt per deletion. The one O(n) structure — the
// negative-sampling alias table over the degree distribution — is
// rebuilt lazily, amortized over `sampler_rebuild_interval` mutations;
// every rebuild counts in seqge_train_sampler_rebuilds_total.
//
// Edges are identified by a monotonically increasing token assigned at
// insertion. Tokens are what the StreamTrainer keys its recorded
// training batches by, so an eviction can find and unlearn exactly the
// walks the edge once trained.

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "sampling/negative_sampler.hpp"

namespace seqge {

/// One edge evicted from the window (by age, capacity, or explicit
/// remove_edge) — everything a consumer needs to unlearn it.
struct ExpiredEdge {
  NodeId src = 0;
  NodeId dst = 0;
  float weight = 1.0f;
  std::uint64_t stamp = 0;  ///< caller-clock insertion time
  std::uint64_t token = 0;  ///< handle assigned by add_edge
};

class SlidingWindowGraph {
 public:
  struct Options {
    /// Evict edges older than this (caller-clock units) on expire();
    /// 0 = no age horizon.
    std::uint64_t max_age = 0;
    /// Keep at most this many live edges, evicting oldest-first;
    /// 0 = unbounded.
    std::size_t max_edges = 0;
    /// Rebuild the O(n) alias table after this many mutations (the
    /// degree table itself is always exact). refresh_sampler() forces
    /// an immediate rebuild.
    std::size_t sampler_rebuild_interval = 256;
  };

  static constexpr std::uint64_t kInvalidToken = ~std::uint64_t{0};

  // Two overloads instead of a defaulted Options argument: a default
  // argument may not use a nested class's member initializers inside
  // the enclosing class definition, but a delegating-constructor body
  // (complete-class context) may.
  explicit SlidingWindowGraph(std::size_t num_nodes)
      : SlidingWindowGraph(num_nodes, Options()) {}
  SlidingWindowGraph(std::size_t num_nodes, Options opts);

  // --- GraphT concept (walk/node2vec_walker.hpp) ---------------------------
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return dyn_.num_nodes();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return dyn_.num_edges();
  }
  [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
    return dyn_.degree(u);
  }
  /// Ascending neighbor ids (the walker merges these lists).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return dyn_.neighbors(u);
  }
  [[nodiscard]] std::span<const float> weights(NodeId u) const noexcept {
    return dyn_.weights(u);
  }
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept {
    return dyn_.has_edge(u, v);
  }
  [[nodiscard]] float edge_weight(NodeId u, NodeId v) const noexcept {
    return dyn_.edge_weight(u, v);
  }
  [[nodiscard]] double weighted_degree(NodeId u) const noexcept {
    return dyn_.weighted_degree(u);
  }

  // --- mutations -----------------------------------------------------------
  /// Insert (u, v) at `stamp`. Returns the edge's token, or
  /// kInvalidToken when the edge already exists, u == v, or either
  /// endpoint is out of range. Stamps must be non-decreasing across
  /// calls (the window ring is FIFO by insertion order).
  std::uint64_t add_edge(NodeId u, NodeId v, float weight,
                         std::uint64_t stamp);

  /// Explicitly remove a live edge now, independent of the horizon.
  /// Returns its eviction record, or nullopt when absent.
  std::optional<ExpiredEdge> remove_edge(NodeId u, NodeId v);

  /// Evict every edge outside the horizon as of `now` (age first, then
  /// the capacity bound), appending eviction records oldest-first to
  /// `out`. Returns the number evicted.
  std::size_t expire(std::uint64_t now, std::vector<ExpiredEdge>& out);

  // --- sampling ------------------------------------------------------------
  /// Exact per-node degree counts, maintained incrementally — the
  /// frequency surrogate the unigram^0.75 negative distribution is
  /// built from (walk-frequency counting is meaningless once walks can
  /// refer to departed structure).
  [[nodiscard]] const std::vector<std::uint64_t>& degree_counts()
      const noexcept {
    return counts_;
  }
  /// Alias sampler over degree_counts(), rebuilt lazily once
  /// sampler_rebuild_interval mutations have accumulated.
  const NegativeSampler& sampler();
  /// Force an immediate rebuild (checkpoints, tests).
  const NegativeSampler& refresh_sampler();
  [[nodiscard]] std::size_t sampler_rebuilds() const noexcept {
    return sampler_rebuilds_;
  }

  // --- views ---------------------------------------------------------------
  [[nodiscard]] const DynamicGraph& graph() const noexcept { return dyn_; }
  [[nodiscard]] Graph to_graph() const { return dyn_.to_graph(); }

 private:
  struct Entry {
    NodeId u, v;
    float weight;
    std::uint64_t stamp;
    bool alive;
  };

  static std::uint64_t edge_key(NodeId u, NodeId v) noexcept {
    const NodeId lo = u < v ? u : v;
    const NodeId hi = u < v ? v : u;
    return (std::uint64_t{lo} << 32) | hi;
  }
  void evict(Entry& e, std::uint64_t token, std::vector<ExpiredEdge>& out);
  void note_mutation() noexcept;

  Options opts_;
  DynamicGraph dyn_;
  // FIFO ring of every inserted edge, dead entries included until they
  // reach the front; entry for token t lives at ring_[t - base_token_].
  std::deque<Entry> ring_;
  std::uint64_t base_token_ = 0;  ///< token of ring_.front()
  std::unordered_map<std::uint64_t, std::uint64_t> token_of_;  // key -> token
  std::vector<std::uint64_t> counts_;  ///< per-node degree
  std::optional<NegativeSampler> sampler_;
  std::size_t mutations_since_rebuild_ = 0;
  std::size_t sampler_rebuilds_ = 0;
};

}  // namespace seqge
