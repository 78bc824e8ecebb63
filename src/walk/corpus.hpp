#pragma once
// Walk corpus and context windowing. A single random walk RW of length l
// is partitioned into sliding windows of `window` consecutive nodes; the
// first node of each window is the center, the remaining window-1 nodes
// are its positive samples (Fig. 1's NS(u)). With l = 80 and w = 8 this
// yields l - w + 1 = 73 contexts per walk — exactly the paper's "73
// iterations of the outermost loop" (Sec. 4.2).

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walk/node2vec_walker.hpp"
#include "walk/walk_batch.hpp"

namespace seqge {

/// One training context: a center node and its positive samples.
struct WalkContext {
  NodeId center;
  std::span<const NodeId> positives;
};

/// Number of contexts a walk of `walk_len` nodes yields at window `w`.
[[nodiscard]] constexpr std::size_t num_contexts(std::size_t walk_len,
                                                 std::size_t w) noexcept {
  return walk_len >= w ? walk_len - w + 1 : 0;
}

/// Invoke `fn(context)` for every window of the walk. Walks shorter than
/// the window produce no contexts.
template <typename Fn>
void for_each_context(std::span<const NodeId> walk, std::size_t window,
                      Fn&& fn) {
  if (walk.size() < window) return;
  for (std::size_t i = 0; i + window <= walk.size(); ++i) {
    WalkContext ctx{walk[i], walk.subspan(i + 1, window - 1)};
    fn(ctx);
  }
}

/// A set of walks plus per-node appearance counts (the negative-sampling
/// frequency distribution of Sec. 3.1).
struct WalkCorpus {
  std::vector<std::vector<NodeId>> walks;
  std::vector<std::uint64_t> frequency;  // per node, over all walks

  [[nodiscard]] std::size_t total_contexts(std::size_t window) const {
    std::size_t total = 0;
    for (const auto& w : walks) total += num_contexts(w.size(), window);
    return total;
  }
};

/// Per-round shuffled start order derived from `base_seed` alone:
/// round r's permutation of the node ids, identical for any thread
/// count. Walk w of the corpus starts at order (w / n)'s entry w % n.
template <typename GraphT>
[[nodiscard]] std::vector<NodeId> pipelined_start_order(
    const GraphT& graph, std::size_t walks_per_node,
    std::uint64_t base_seed) {
  const std::size_t n = graph.num_nodes();
  std::vector<NodeId> starts(n * walks_per_node);
  for (std::size_t round = 0; round < walks_per_node; ++round) {
    const std::span<NodeId> order(starts.data() + round * n, n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);
    Rng rng(derive_seed(base_seed, kOrderSeedStream, round));
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.bounded(i)]);
    }
  }
  return starts;
}

/// Generate `walks_per_node` walks per node with one RNG stream per walk
/// derived from (base_seed, walk id), fanned out over `num_threads`
/// std::threads (0 = run inline on the calling thread). The corpus —
/// walk contents AND order — is bit-identical for every thread count;
/// this is the walk-generation stage of the pipelined trainer.
template <typename GraphT>
[[nodiscard]] WalkCorpus generate_corpus_pipelined(
    const GraphT& graph, const Node2VecParams& params,
    std::size_t walks_per_node, std::uint64_t base_seed,
    std::size_t num_threads) {
  const Node2VecWalker<GraphT> walker(graph, params);
  const std::size_t n = graph.num_nodes();
  const std::size_t total = n * walks_per_node;
  const std::vector<NodeId> starts =
      pipelined_start_order(graph, walks_per_node, base_seed);

  WalkCorpus corpus;
  corpus.frequency.assign(n, 0);
  corpus.walks.resize(total);

  auto generate_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t w = lo; w < hi; ++w) {
      Rng walk_rng(derive_seed(base_seed, kWalkSeedStream, w));
      walker.walk_into(walk_rng, starts[w], corpus.walks[w]);
    }
  };

  if (num_threads <= 1) {
    generate_range(0, total);
  } else {
    // Chunked work stealing: cheap, deterministic output (slot per walk).
    std::atomic<std::size_t> next{0};
    constexpr std::size_t kChunk = 32;
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t lo = next.fetch_add(kChunk);
          if (lo >= total) break;
          generate_range(lo, std::min(total, lo + kChunk));
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  for (const auto& walk : corpus.walks) {
    for (NodeId v : walk) ++corpus.frequency[v];
  }
  return corpus;
}

}  // namespace seqge
