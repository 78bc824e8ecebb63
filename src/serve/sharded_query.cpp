#include "serve/sharded_query.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"

namespace seqge::serve {

namespace {

/// Per-shard scan latency across the fan-out.
obs::Histogram* shard_scan_us() {
  static obs::Histogram* const h = obs::Registry::global().histogram(
      "seqge_query_shard_scan_us", obs::default_latency_buckets_us(), {},
      "One shard's scan within a fan-out (microseconds)");
  return h;
}

}  // namespace

std::vector<Neighbor> TopKAccumulator::take() {
  std::sort(heap_.begin(), heap_.end(), [](const Neighbor& a,
                                           const Neighbor& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  });
  return std::move(heap_);
}

void l2_normalize(std::span<float> v) {
  const auto n = static_cast<float>(l2_norm<float>(v));
  if (n > 0.0f) scale(1.0f / n, v);
}

void l2_normalize_rows(MatrixF& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) l2_normalize(m.row(r));
}

// --- IvfIndex ---------------------------------------------------------------

void IvfIndex::build(const MatrixF& normalized, const IndexConfig& cfg) {
  const std::size_t n = normalized.rows();
  const std::size_t dims = normalized.cols();
  std::size_t nl = cfg.nlist != 0
                       ? cfg.nlist
                       : static_cast<std::size_t>(
                             std::sqrt(static_cast<double>(n)));
  nl = std::clamp<std::size_t>(nl, 1, n);

  Rng rng(cfg.seed);

  // Train the quantizer on a sample (assignment below always uses every
  // row); spherical k-means — centroids re-normalized each iteration so
  // "nearest centroid" is a plain dot product.
  const std::size_t sample = std::min(64 * nl, n);
  std::vector<std::uint32_t> train_rows(n);
  std::iota(train_rows.begin(), train_rows.end(), 0u);
  for (std::size_t i = 0; i < sample; ++i) {
    std::swap(train_rows[i], train_rows[i + rng.bounded(n - i)]);
  }
  train_rows.resize(sample);

  centroids = MatrixF(nl, dims);
  for (std::size_t c = 0; c < nl; ++c) {
    copy<float>(normalized.row(train_rows[c % sample]), centroids.row(c));
  }

  std::vector<std::uint32_t> assign(sample, 0);
  for (std::size_t iter = 0; iter < kKmeansIters; ++iter) {
    for (std::size_t i = 0; i < sample; ++i) {
      assign[i] =
          static_cast<std::uint32_t>(nearest(normalized.row(train_rows[i])));
    }
    centroids.fill(0.0f);
    std::vector<std::uint32_t> counts(nl, 0);
    for (std::size_t i = 0; i < sample; ++i) {
      axpy<float>(1.0f, normalized.row(train_rows[i]),
                  centroids.row(assign[i]));
      ++counts[assign[i]];
    }
    for (std::size_t c = 0; c < nl; ++c) {
      if (counts[c] == 0) {
        // Empty cell: reseed from a random training row.
        copy<float>(normalized.row(train_rows[rng.bounded(sample)]),
                    centroids.row(c));
      }
    }
    l2_normalize_rows(centroids);
  }

  // Full assignment pass over every row -> CSR member lists, recording
  // each row's assignment-time affinity as the drift baseline.
  cell.resize(n);
  cell_dot.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    float best_dot = -2.0f;
    cell[r] = static_cast<std::uint32_t>(nearest(normalized.row(r),
                                                 best_dot));
    cell_dot[r] = best_dot;
  }
  rebuild_lists();
}

std::size_t IvfIndex::nearest(std::span<const float> row) const {
  float best_dot = -2.0f;
  return nearest(row, best_dot);
}

std::size_t IvfIndex::nearest(std::span<const float> row,
                              float& best_dot) const {
  // One batched pass over the centroid block (scores bit-identical to
  // per-centroid dot()); the strict > keeps the lowest id on a tie.
  std::size_t best = 0;
  best_dot = -2.0f;
  simd::dot_topk_scan(centroids.data(), centroids.rows(), centroids.cols(),
                      row.data(), [&](std::size_t c, float d) {
                        if (d > best_dot) {
                          best_dot = d;
                          best = c;
                        }
                      });
  return best;
}

void IvfIndex::rebuild_lists() {
  const std::size_t n = cell.size();
  const std::size_t nl = nlist();
  list_off.assign(nl + 1, 0);
  for (std::size_t r = 0; r < n; ++r) ++list_off[cell[r] + 1];
  for (std::size_t c = 0; c < nl; ++c) list_off[c + 1] += list_off[c];
  list_nodes.resize(n);
  std::vector<std::uint32_t> cursor(list_off.begin(), list_off.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    list_nodes[cursor[cell[r]]++] = static_cast<std::uint32_t>(r);
  }
}

double recall_at_k(std::span<const Neighbor> exact,
                   std::span<const Neighbor> approx) {
  if (exact.empty()) return 1.0;
  std::size_t hits = 0;
  for (const Neighbor& e : exact) {
    for (const Neighbor& a : approx) {
      if (a.node == e.node) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(exact.size());
}

// --- ShardedQueryEngine ---------------------------------------------------

// One shard's query-side state: the shard snapshot (kept alive for raw
// row access), its rows L2-normalized into one contiguous matrix, and —
// when the config asks for IVF — a per-shard quantizer. With IVF the
// normalized rows are stored in list order, so a probed cell scans one
// contiguous stripe; pos_ maps a local row to its storage slot.
// Immutable once constructed; "incremental" construction copies the
// previous state and patches only the changed rows before freezing.
class ShardedQueryEngine::Shard {
 public:
  /// Fresh build: normalize every row, train the quantizer from
  /// scratch.
  Shard(std::shared_ptr<const ShardSnapshot> snap, const IndexConfig& cfg)
      : snap_(std::move(snap)) {
    MatrixF rows(snap_->num_rows(), snap_->dims);
    for (std::size_t r = 0; r < snap_->num_rows(); ++r) {
      auto src = snap_->row(r);
      std::copy(src.begin(), src.end(), rows.row(r).begin());
    }
    l2_normalize_rows(rows);
    if (cfg.kind == IndexConfig::Kind::kIvf && snap_->num_rows() > 0) {
      ivf_.build(rows, cfg);
      pack(rows);
    } else {
      normalized_ = std::move(rows);
    }
  }

  /// Incremental refresh: start from `prev`'s state and re-normalize
  /// only the rows whose pointer differs from `prev`'s snapshot (`prev`
  /// keeps its buffers and chunks alive, so a rewritten row or chunk
  /// always has a new address, an unchanged pointer is an unchanged row
  /// and an unchanged chunk holds eight of them). The
  /// quantizer's centroids are kept as-is (no re-clustering); a changed
  /// row re-runs the nearest-centroid scan only once its affinity to its
  /// assigned centroid has decayed more than `threshold` below the
  /// assignment-time baseline (IvfIndex::cell_dot) — measured against
  /// the baseline, not the previous refresh, so sub-threshold drift
  /// accumulates across refreshes instead of escaping re-assignment
  /// forever. A re-assignment re-packs the rows into the new list
  /// order.
  Shard(const Shard& prev, std::shared_ptr<const ShardSnapshot> snap,
        float threshold, ShardedRefreshStats& stats)
      : snap_(std::move(snap)),
        normalized_(prev.normalized_),
        pos_(prev.pos_),
        ivf_(prev.ivf_) {
    std::vector<float> fresh(snap_->dims);
    bool lists_dirty = false;
    constexpr std::size_t kChunkRows = ShardSnapshot::kChunkRows;
    for (std::size_t chunk = 0; chunk < snap_->chunks.size(); ++chunk) {
      // A chunk shared with `prev` holds no changed row.
      if (snap_->chunks[chunk] == prev.snap_->chunks[chunk]) continue;
      const std::size_t end =
          std::min(snap_->num_rows(), (chunk + 1) * kChunkRows);
      for (auto r = static_cast<std::uint32_t>(chunk * kChunkRows); r < end;
           ++r) {
        if (snap_->row_ptr(r) == prev.snap_->row_ptr(r)) continue;
        auto src = snap_->row(r);
        fresh.assign(src.begin(), src.end());
        l2_normalize(fresh);
        auto dst = normalized_.row(slot(r));
        std::copy(fresh.begin(), fresh.end(), dst.begin());
        ++stats.rows_updated;
        if (!ivf_.empty()) {
          const float affinity =
              dot<float>(ivf_.centroids.row(ivf_.cell[r]), dst);
          if (ivf_.cell_dot[r] - affinity > threshold) {
            float best_dot = -2.0f;
            const auto c =
                static_cast<std::uint32_t>(ivf_.nearest(dst, best_dot));
            ivf_.cell_dot[r] = best_dot;  // new assignment-time baseline
            if (c != ivf_.cell[r]) {
              ivf_.cell[r] = c;
              lists_dirty = true;
              ++stats.rows_reassigned;
            }
          }
        }
      }
    }
    if (lists_dirty) {
      ivf_.rebuild_lists();
      // Back to node order, then re-pack in the new list order.
      MatrixF rows(normalized_.rows(), normalized_.cols());
      for (std::size_t r = 0; r < rows.rows(); ++r) {
        copy<float>(normalized_.row(pos_[r]), rows.row(r));
      }
      pack(rows);
    }
  }

  [[nodiscard]] std::uint64_t version() const noexcept {
    return snap_->version;
  }
  [[nodiscard]] std::uint64_t base_version() const noexcept {
    return snap_->base_version;
  }
  [[nodiscard]] std::size_t num_rows() const noexcept {
    return snap_->num_rows();
  }
  [[nodiscard]] NodeId row_begin() const noexcept {
    return snap_->row_begin;
  }
  [[nodiscard]] std::span<const float> raw_row(std::size_t local) const {
    return snap_->row(local);
  }
  /// Exact scan of every row (local order == ascending global id),
  /// offering global node ids — the fan-out half of the exact path.
  /// Rows in node order go through the batched kernel, whose scores
  /// are bit-identical per row to dot().
  void scan_exact(std::span<const float> unit_q, NodeId exclude_global,
                  TopKAccumulator& top) const {
    const NodeId begin = snap_->row_begin;
    const auto offer = [&](std::size_t r, float score) {
      const NodeId node = begin + static_cast<NodeId>(r);
      if (node == exclude_global || snap_->tombstoned(r)) return;
      top.offer(node, score);
    };
    if (pos_.empty()) {
      simd::dot_topk_scan(normalized_.data(), num_rows(), snap_->dims,
                          unit_q.data(), offer);
      return;
    }
    for (std::size_t r = 0; r < num_rows(); ++r) {
      offer(r, dot<float>(normalized_.row(pos_[r]), unit_q));
    }
  }

  /// Probe the `nprobe` best cells of this shard's quantizer; each
  /// probed cell is a contiguous stripe of rows. Falls back to the
  /// exact scan when the shard has no index or nprobe covers every
  /// cell.
  void scan_ivf(std::span<const float> unit_q, std::size_t nprobe,
                NodeId exclude_global, TopKAccumulator& top) const {
    if (ivf_.empty() || nprobe >= ivf_.nlist()) {
      scan_exact(unit_q, exclude_global, top);
      return;
    }
    const NodeId begin = snap_->row_begin;
    for (const Neighbor& cell : probe(unit_q, nprobe)) {
      for (std::uint32_t i = ivf_.list_off[cell.node];
           i < ivf_.list_off[cell.node + 1]; ++i) {
        const std::uint32_t r = ivf_.list_nodes[i];
        const NodeId node = begin + static_cast<NodeId>(r);
        if (node == exclude_global || snap_->tombstoned(r)) continue;
        top.offer(node, dot<float>(normalized_.row(i), unit_q));
      }
    }
  }

 private:
  /// Storage slot of local row `r` (list order with IVF, else r).
  [[nodiscard]] std::size_t slot(std::size_t r) const {
    return pos_.empty() ? r : pos_[r];
  }

  /// Store `rows` (node order) in the index's list order.
  void pack(const MatrixF& rows) {
    normalized_ = MatrixF(rows.rows(), rows.cols());
    pos_.resize(rows.rows());
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      const std::uint32_t r = ivf_.list_nodes[i];
      pos_[r] = static_cast<std::uint32_t>(i);
      copy<float>(rows.row(r), normalized_.row(i));
    }
  }

  /// The `nprobe` cells whose centroids best match the unit query.
  [[nodiscard]] std::vector<Neighbor> probe(std::span<const float> unit_q,
                                            std::size_t nprobe) const {
    TopKAccumulator cell_top(nprobe);
    for (std::size_t c = 0; c < ivf_.nlist(); ++c) {
      cell_top.offer(static_cast<NodeId>(c),
                     dot<float>(ivf_.centroids.row(c), unit_q));
    }
    return cell_top.take();
  }

  std::shared_ptr<const ShardSnapshot> snap_;
  MatrixF normalized_;               ///< unit rows, in slot order
  std::vector<std::uint32_t> pos_;   ///< local row -> slot (IVF only)
  IvfIndex ivf_;
};

ShardedQueryEngine::ShardedQueryEngine(const ShardedEmbeddingStore& store,
                                       ShardedIndexConfig cfg,
                                       const ShardedQueryEngine* previous)
    : cfg_(cfg) {
  // Sample the version before the shard heads: heads read afterwards
  // are at least this fresh, so engine versions — and the response
  // versions the server reports — stay monotonic across rebuilds.
  version_ = store.version();
  const auto views = store.view();
  if (views.empty()) {
    throw std::invalid_argument("ShardedQueryEngine: store is empty");
  }
  // view() being non-empty establishes version() > 0, so the store's
  // layout is published and safe to copy.
  layout_ = store.layout();
  dims_ = views.front()->dims;

  shards_.reserve(views.size());
  for (std::size_t s = 0; s < views.size(); ++s) {
    const Shard* prev = previous != nullptr && s < previous->shards_.size()
                            ? previous->shards_[s].get()
                            : nullptr;
    const auto& snap = views[s];
    if (prev != nullptr && prev->version() == snap->version) {
      shards_.push_back(previous->shards_[s]);
      ++stats_.shards_reused;
    } else if (prev != nullptr && prev->num_rows() == snap->num_rows() &&
               snap->base_version <= prev->version()) {
      shards_.push_back(std::make_shared<const Shard>(
          *prev, snap, cfg_.reassign_threshold, stats_));
      ++stats_.shards_refreshed;
    } else {
      shards_.push_back(std::make_shared<const Shard>(snap, cfg_.index));
      ++stats_.shards_rebuilt;
    }
  }
}

ShardedQueryEngine::~ShardedQueryEngine() = default;

std::span<const float> ShardedQueryEngine::embedding_row(NodeId u) const {
  if (u >= layout_.num_rows) {
    throw std::invalid_argument(
        "ShardedQueryEngine::embedding_row: node out of range");
  }
  const std::size_t s = layout_.shard_of(u);
  return shards_[s]->raw_row(u - shards_[s]->row_begin());
}

std::vector<Neighbor> ShardedQueryEngine::topk(
    std::span<const float> query, std::size_t k, NodeId exclude,
    std::size_t nprobe_override) const {
  if (query.size() != dims_) {
    throw std::invalid_argument(
        "ShardedQueryEngine::topk: query dims mismatch");
  }
  static obs::Counter* const scans = obs::Registry::global().counter(
      "seqge_query_scans_total", {}, "Top-k scans executed");
  scans->add();
  std::vector<float> unit(query.begin(), query.end());
  l2_normalize(unit);

  const bool use_ivf = cfg_.index.kind == IndexConfig::Kind::kIvf;
  const std::size_t nprobe =
      nprobe_override != 0 ? nprobe_override : cfg_.index.nprobe;

  // k may come straight off the wire: clamp it to the candidate count
  // before the accumulator reserves k + 1 slots.
  TopKAccumulator merged(std::min(k, layout_.num_rows));
  {
    // Shards cover ascending node ranges and are scanned in order into
    // one accumulator, so equal-score rows arrive in ascending node
    // order — the naive sorted scan's tie-break.
    OBS_SPAN("scan_fanout");
    const bool timed = obs::enabled();
    for (const auto& shard : shards_) {
      const double t0 = timed ? obs::wall_us() : 0.0;
      if (use_ivf) {
        shard->scan_ivf(unit, nprobe, exclude, merged);
      } else {
        shard->scan_exact(unit, exclude, merged);
      }
      if (timed) shard_scan_us()->observe(obs::wall_us() - t0);
    }
  }
  return merged.take();
}

std::vector<Neighbor> ShardedQueryEngine::topk(
    NodeId u, std::size_t k, std::size_t nprobe_override) const {
  // Route through the raw row: the span overload re-normalizes it,
  // which is exactly what a reference scan does to row u.
  return topk(embedding_row(u), k, u, nprobe_override);
}

double ShardedQueryEngine::score(NodeId u, NodeId v, EdgeScore kind) const {
  return score_edge(embedding_row(u), embedding_row(v), kind);
}

}  // namespace seqge::serve
