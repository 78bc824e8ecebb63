#pragma once
// Read-side query engine over a ShardedEmbeddingStore — the one engine
// the serving layer (serve/embedding_server.hpp) answers through, at
// any shard count (N = 1 by default): one per-shard sub-engine
// (normalized rows + optional per-shard IVF index) and a shared top-k
// accumulator merging across shards.
//
// Exact path: shards are scanned in node order with the dense kernels
// of linalg/kernels.hpp (dot or cosine; cosine uses rows L2-normalized
// once at construction, so a query is a pure dot scan), so results —
// neighbors, scores, tie-breaks — are bit-identical at every shard
// count to a naive scan that scores every row the same way and sorts
// by score descending, node ascending (tests assert this).
//
// IVF path: each shard carries its own coarse spherical-k-means
// quantizer sized to the shard (nlist = 0 -> ~sqrt(shard rows)); a
// query scores the centroids, then probes `nprobe` cells *per shard*
// and all probed candidates merge through one accumulator. nprobe >= nlist
// degenerates to the exact scan; IVF search is cosine-ordered, so dot
// queries always take the exact path.
//
// Incremental maintenance: constructing an engine with `previous` set
// reuses the prior engine's per-shard state instead of re-clustering —
//  * a shard whose snapshot version is unchanged is shared outright
//    (zero work, zero memory);
//  * a changed shard whose base lineage still covers the previous
//    engine (snapshot.base_version <= previous shard version) is
//    refreshed from the previous shard state: the shard's normalized
//    rows and index arrays are memcpy'd (engines are immutable, so the
//    new engine gets its own copy — O(shard) in bytes but no dot
//    products), then only the rows whose ShardSnapshot::row_ptr differs
//    from the previous engine's snapshot are re-normalized (the
//    previous engine keeps its buffers alive, so a rewritten row always
//    has a new address), and a row re-runs the nearest-cell scan only
//    once its affinity to its assigned centroid has decayed more than
//    `reassign_threshold` below the assignment-time baseline (drift
//    accumulates across refreshes, so slow movers still re-assign).
//    What is skipped — k-means re-training and the full-shard
//    assignment pass — is the dominant rebuild cost;
//  * anything else (rebase/compaction since the previous engine) is
//    rebuilt from scratch.
// refresh_stats() reports which path each shard took.
//
// An engine is immutable after construction: every query method is
// const and safe from any number of threads, and the engine keeps the
// shard snapshots it was built from alive. Link-prediction scoring
// reuses the eval/ scorers (EdgeScore, score_edge), so a served score
// is bit-identical to the offline evaluation's.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "eval/link_prediction.hpp"
#include "linalg/matrix.hpp"
#include "serve/quantized_store.hpp"
#include "serve/sharded_store.hpp"
#include "util/thread_pool.hpp"

namespace seqge::serve {

struct Neighbor {
  NodeId node = 0;
  float score = 0.0f;
};

enum class Similarity { kCosine, kDot };

/// Fixed-capacity top-k accumulator: a min-heap on score keeps the k
/// best seen so far, so a full scan is O(n log k). offer() admission
/// depends only on scores (ties at the cutoff keep the earlier
/// arrival), so offering rows in ascending node order yields exactly
/// the k best by (score descending, node ascending) — that is what
/// makes the sharded fan-out bit-identical to a naive sorted scan.
class TopKAccumulator {
 public:
  explicit TopKAccumulator(std::size_t k) : k_(k) { heap_.reserve(k + 1); }

  void offer(NodeId node, float score) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back({node, score});
      std::push_heap(heap_.begin(), heap_.end(), worse);
    } else if (score > heap_.front().score) {
      std::pop_heap(heap_.begin(), heap_.end(), worse);
      heap_.back() = {node, score};
      std::push_heap(heap_.begin(), heap_.end(), worse);
    }
  }

  /// Best first; ties broken by node id for deterministic output.
  [[nodiscard]] std::vector<Neighbor> take();

 private:
  static bool worse(const Neighbor& a, const Neighbor& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  }
  std::size_t k_;
  std::vector<Neighbor> heap_;
};

/// L2-normalize every row in place (zero rows stay zero) — the shared
/// preprocessing of every cosine path; using exactly this function
/// everywhere keeps scores bit-identical across engines and references.
void l2_normalize_rows(MatrixF& m);
/// L2-normalize one vector in place.
void l2_normalize(std::span<float> v);

struct IndexConfig {
  enum class Kind { kBruteForce, kIvf };
  Kind kind = Kind::kBruteForce;
  /// Coarse cells per shard for the IVF index; 0 = ~sqrt(shard rows),
  /// clamped to [1, shard rows].
  std::size_t nlist = 0;
  /// Cells scanned per shard per query (clamped to nlist). Larger =
  /// higher recall, slower.
  std::size_t nprobe = 8;
  /// Lloyd iterations for the spherical k-means quantizer.
  std::size_t kmeans_iters = 6;
  /// Rows used to train the quantizer (assignment always uses all rows);
  /// 0 = min(shard rows, 64 * nlist).
  std::size_t kmeans_sample = 0;
  std::uint64_t seed = 1;
  /// Opt-in quantized scan (cosine queries only; dot always takes the
  /// float path): the exact/IVF scan scores int8-quantized rows (kInt8:
  /// float scales; kBfp: int16 shared exponents per block), then the
  /// best k * quant_rerank candidates are re-ranked with the float
  /// rows, holding recall@10 >= 0.95 vs. the float scan at a fraction
  /// of the scan bandwidth (serve/quantized_store.hpp).
  QuantMode quant = QuantMode::kNone;
  /// Dims per quantization scale group (0 = one scale per row).
  std::size_t quant_block = 0;
  /// Power-of-two scales (BFP shared exponent).
  bool quant_pow2 = false;
  /// Candidate multiplier for the float re-rank (clamped to >= 1).
  /// 8 is the measured knee at 50k-node scale: 4 plateaus near
  /// recall 0.9 (approximate-order misses fall outside the candidate
  /// set), 16 doubles the re-rank cost for < 0.04 more recall.
  std::size_t quant_rerank = 8;
};

/// Coarse spherical-k-means quantizer + CSR member lists over one
/// shard's L2-normalized rows. Built in full for a fresh shard; the
/// incremental refresh keeps the centroids and re-assigns only rows
/// that moved.
struct IvfIndex {
  MatrixF centroids;                      ///< nlist x dims, unit rows
  std::vector<std::uint32_t> cell;        ///< row -> cell
  /// dot(row, centroids[cell[row]]) at the time the row was (re-)
  /// assigned — the drift baseline for incremental maintenance: a
  /// refresh re-runs the nearest-centroid scan once a row's affinity
  /// to its assigned centroid has decayed past a threshold *since
  /// assignment*, so sub-threshold drift accumulates instead of being
  /// forgotten at each refresh.
  std::vector<float> cell_dot;
  std::vector<std::uint32_t> list_off;    ///< nlist + 1 CSR offsets
  std::vector<std::uint32_t> list_nodes;  ///< row ids in list order

  [[nodiscard]] std::size_t nlist() const noexcept {
    return centroids.rows();
  }
  [[nodiscard]] bool empty() const noexcept { return centroids.empty(); }

  /// Full build: train the quantizer on a sample of `normalized`, then
  /// assign every row and build the CSR lists.
  void build(const MatrixF& normalized, const IndexConfig& cfg);
  /// Index of the centroid nearest (max dot) to the unit row; the
  /// two-argument overload also reports that best dot.
  [[nodiscard]] std::size_t nearest(std::span<const float> row) const;
  [[nodiscard]] std::size_t nearest(std::span<const float> row,
                                    float& best_dot) const;
  /// Rebuild list_off/list_nodes from cell (after re-assignments).
  void rebuild_lists();
};

/// recall@k of `approx` against exact ground truth `exact`: fraction of
/// the exact set present in the approximate set. Used by the serving
/// bench and tests to validate IVF tuning.
[[nodiscard]] double recall_at_k(std::span<const Neighbor> exact,
                                 std::span<const Neighbor> approx);

struct ShardedIndexConfig {
  /// Per-shard index configuration (IndexConfig::nlist == 0 sizes each
  /// shard's quantizer to ~sqrt(its rows); nprobe applies per shard).
  IndexConfig index{};
  /// Affinity decay (drop of dot(row, assigned centroid) below the
  /// assignment-time baseline, unit vectors) past which an
  /// incrementally refreshed row re-runs the nearest-cell scan.
  /// Measured against the baseline, not the previous refresh, so
  /// cumulative sub-threshold drift still triggers. A row re-scans only
  /// when its affinity fell by more than this: at 0 a row whose
  /// affinity held or rose keeps its cell unscanned; a negative value
  /// re-scans every changed row.
  float reassign_threshold = 0.05f;
  /// Threads applied to each query's per-shard fan-out (the calling
  /// thread counts, so N uses N-1 pool workers). 0 or 1 scans shards
  /// sequentially inline. The exact path stays bit-identical either
  /// way: each shard accumulates its own top-k and the per-shard
  /// winners merge in shard order, which preserves the ascending-node
  /// arrival order score ties depend on.
  std::size_t scan_threads = 0;
};

/// How each shard was brought up to date by the last construction.
struct ShardedRefreshStats {
  std::size_t shards_reused = 0;     ///< shared from `previous` untouched
  std::size_t shards_refreshed = 0;  ///< incremental row updates only
  std::size_t shards_rebuilt = 0;    ///< full rebuild (incl. first build)
  std::size_t rows_updated = 0;      ///< changed rows re-normalized
  std::size_t rows_reassigned = 0;   ///< moved past threshold, new cell
};

class ShardedQueryEngine {
 public:
  /// Builds per-shard engines for the store's current shard heads.
  /// `previous` (optional) must be an engine over the same store built
  /// with the same config; its per-shard state is reused/refreshed as
  /// described above. Throws std::invalid_argument on an empty store.
  explicit ShardedQueryEngine(const ShardedEmbeddingStore& store,
                              ShardedIndexConfig cfg = {},
                              const ShardedQueryEngine* previous = nullptr);
  ~ShardedQueryEngine();

  /// Store version this engine was built for (response freshness tag).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return layout_.num_rows;
  }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const ShardedIndexConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] const ShardedRefreshStats& refresh_stats() const noexcept {
    return stats_;
  }

  /// Raw (un-normalized) embedding row of node u, backed by the shard
  /// snapshots this engine holds alive.
  [[nodiscard]] std::span<const float> embedding_row(NodeId u) const;

  /// Top-k most similar nodes to node u (u itself excluded), best
  /// first; ties broken by ascending node id. k is clamped to the
  /// number of candidates.
  [[nodiscard]] std::vector<Neighbor> topk(
      NodeId u, std::size_t k, Similarity sim = Similarity::kCosine,
      std::size_t nprobe_override = 0) const;

  /// Top-k against an arbitrary query vector; `exclude` removes one
  /// node id (out-of-range keeps all).
  [[nodiscard]] std::vector<Neighbor> topk(
      std::span<const float> query, std::size_t k,
      Similarity sim = Similarity::kCosine, NodeId exclude = ~NodeId{0},
      std::size_t nprobe_override = 0) const;

  /// Link-prediction score of candidate edge (u, v), bit-identical to
  /// eval/link_prediction.hpp's score_edge on the same embedding.
  [[nodiscard]] double score(NodeId u, NodeId v,
                             EdgeScore kind = EdgeScore::kCosine) const;

 private:
  class Shard;

  ShardedIndexConfig cfg_;
  std::uint64_t version_ = 0;
  std::size_t dims_ = 0;
  ShardLayout layout_;  ///< copied from the store: one mapping truth
  std::vector<std::shared_ptr<const Shard>> shards_;
  ShardedRefreshStats stats_;
  /// Fan-out pool (null when cfg_.scan_threads <= 1); shared with the
  /// previous engine across incremental rebuilds so worker threads
  /// survive engine swaps.
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace seqge::serve
