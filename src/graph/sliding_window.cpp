#include "graph/sliding_window.hpp"

#include "obs/metrics.hpp"

namespace seqge {

SlidingWindowGraph::SlidingWindowGraph(std::size_t num_nodes, Options opts)
    : opts_(opts), dyn_(num_nodes), counts_(num_nodes, 0) {
  if (opts_.sampler_rebuild_interval == 0) {
    opts_.sampler_rebuild_interval = 1;
  }
}

void SlidingWindowGraph::note_mutation() noexcept {
  ++mutations_since_rebuild_;
}

std::uint64_t SlidingWindowGraph::add_edge(NodeId u, NodeId v, float weight,
                                           std::uint64_t stamp) {
  if (!dyn_.add_edge(u, v, weight)) return kInvalidToken;
  const std::uint64_t token = base_token_ + ring_.size();
  ring_.push_back({u, v, weight, stamp, true});
  token_of_.emplace(edge_key(u, v), token);
  ++counts_[u];
  ++counts_[v];
  note_mutation();
  return token;
}

void SlidingWindowGraph::evict(Entry& e, std::uint64_t token,
                               std::vector<ExpiredEdge>& out) {
  dyn_.remove_edge(e.u, e.v);
  --counts_[e.u];
  --counts_[e.v];
  token_of_.erase(edge_key(e.u, e.v));
  e.alive = false;
  out.push_back({e.u, e.v, e.weight, e.stamp, token});
  note_mutation();
}

std::optional<ExpiredEdge> SlidingWindowGraph::remove_edge(NodeId u,
                                                           NodeId v) {
  const auto it = token_of_.find(edge_key(u, v));
  if (it == token_of_.end()) return std::nullopt;
  const std::uint64_t token = it->second;
  Entry& e = ring_[static_cast<std::size_t>(token - base_token_)];
  std::vector<ExpiredEdge> one;
  evict(e, token, one);
  // Dead entries stay in the ring (tombstones of the FIFO) until they
  // reach the front; expire() pops them for free.
  return one.front();
}

std::size_t SlidingWindowGraph::expire(std::uint64_t now,
                                       std::vector<ExpiredEdge>& out) {
  const std::size_t before = out.size();
  auto pop_dead_front = [&] {
    while (!ring_.empty() && !ring_.front().alive) {
      ring_.pop_front();
      ++base_token_;
    }
  };
  pop_dead_front();
  // Age horizon: the ring is FIFO by stamp, so expired edges are a
  // prefix.
  if (opts_.max_age != 0 && now > opts_.max_age) {
    const std::uint64_t cutoff = now - opts_.max_age;
    while (!ring_.empty() && ring_.front().stamp < cutoff) {
      evict(ring_.front(), base_token_, out);
      pop_dead_front();
    }
  }
  // Capacity horizon: evict oldest-first until within bound.
  if (opts_.max_edges != 0) {
    while (dyn_.num_edges() > opts_.max_edges && !ring_.empty()) {
      evict(ring_.front(), base_token_, out);
      pop_dead_front();
    }
  }
  return out.size() - before;
}

const NegativeSampler& SlidingWindowGraph::sampler() {
  if (!sampler_.has_value() ||
      mutations_since_rebuild_ >= opts_.sampler_rebuild_interval) {
    return refresh_sampler();
  }
  return *sampler_;
}

const NegativeSampler& SlidingWindowGraph::refresh_sampler() {
  static obs::Counter* const rebuilds = obs::Registry::global().counter(
      "seqge_train_sampler_rebuilds_total", {}, "Negative-sampler rebuilds");
  sampler_.emplace(counts_);
  mutations_since_rebuild_ = 0;
  ++sampler_rebuilds_;
  rebuilds->add();
  return *sampler_;
}

}  // namespace seqge
