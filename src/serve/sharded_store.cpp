#include "serve/sharded_store.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "embedding/checkpoint.hpp"
#include "embedding/model.hpp"
#include "obs/metrics.hpp"

namespace seqge::serve {

namespace {

/// Global mirrors of the per-instance counters, summed across every
/// store in the process so one metrics dump covers publishing cost.
struct StoreMetrics {
  obs::Counter* rows_copied;
  obs::Counter* compactions;
  obs::Counter* full_publishes;
  obs::Counter* delta_publishes;
  obs::Counter* shards_swapped;
  obs::Gauge* delta_chain_depth;
  obs::Gauge* tombstoned_rows;
};

StoreMetrics& store_metrics() {
  static StoreMetrics m{
      obs::Registry::global().counter("seqge_store_rows_copied_total", {},
                                      "Embedding rows copied on publish"),
      obs::Registry::global().counter("seqge_store_compactions_total", {},
                                      "Shard compactions (full repacks)"),
      obs::Registry::global().counter("seqge_store_full_publishes_total", {},
                                      "Full-snapshot publications"),
      obs::Registry::global().counter("seqge_store_delta_publishes_total", {},
                                      "Delta publications"),
      obs::Registry::global().counter("seqge_store_shards_swapped_total", {},
                                      "Shard head RCU swaps"),
      obs::Registry::global().gauge(
          "seqge_store_delta_chain_depth", {},
          "Delta-chain depth of the most recently swapped shard"),
      obs::Registry::global().gauge(
          "seqge_store_tombstoned_rows", {},
          "Rows currently tombstoned (hidden from scans)"),
  };
  return m;
}

/// Throws std::invalid_argument unless `ids` is strictly ascending and
/// below `num_rows`.
void check_ids(std::span<const NodeId> ids, std::size_t num_rows,
               const char* what) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= num_rows || (i > 0 && ids[i] <= ids[i - 1])) {
      throw std::invalid_argument(std::string("ShardedEmbeddingStore: ") +
                                  what +
                                  " must be strictly ascending and in range");
    }
  }
}

/// The ids of `ids` (ascending) below `end`, from `cursor` on, as local
/// rows of a shard starting at `begin`; advances the cursor past them.
void take_local(std::span<const NodeId> ids, std::size_t& cursor,
                NodeId begin, NodeId end, std::vector<std::uint32_t>& out) {
  out.clear();
  for (; cursor < ids.size() && ids[cursor] < end; ++cursor) {
    out.push_back(static_cast<std::uint32_t>(ids[cursor] - begin));
  }
}

}  // namespace

ShardedEmbeddingStore::ShardedEmbeddingStore(Config cfg) : cfg_(cfg) {
  if (cfg_.num_shards == 0) {
    throw std::invalid_argument("ShardedEmbeddingStore: num_shards == 0");
  }
  if (cfg_.max_delta_chain == 0) cfg_.max_delta_chain = 1;
  heads_ = std::make_unique<Head[]>(cfg_.num_shards);
}

std::uint64_t ShardedEmbeddingStore::rebase(MatrixF embedding,
                                            bool keep_dead,
                                            std::span<const NodeId> revive,
                                            std::span<const NodeId> kill,
                                            std::uint64_t walks_trained,
                                            std::string producer) {
  if (embedding.empty()) {
    throw std::invalid_argument(
        "ShardedEmbeddingStore::publish: empty embedding");
  }
  check_ids(revive, embedding.rows(), "touched rows");
  check_ids(kill, embedding.rows(), "tombstoned nodes");
  std::uint64_t assigned = 0;
  {
    std::lock_guard lock(publish_mutex_);
    if (layout_.num_rows == 0) {
      layout_.num_shards = cfg_.num_shards;
      layout_.num_rows = embedding.rows();
      layout_.rows_per_shard =
          (embedding.rows() + cfg_.num_shards - 1) / cfg_.num_shards;
      num_rows_.store(embedding.rows(), std::memory_order_release);
    } else if (embedding.rows() != layout_.num_rows) {
      throw std::invalid_argument(
          "ShardedEmbeddingStore::publish: row count changed after the "
          "first publish");
    }
    rows_copied_.fetch_add(embedding.rows(), std::memory_order_relaxed);
    full_publishes_.fetch_add(1, std::memory_order_relaxed);
    store_metrics().rows_copied->add(embedding.rows());
    store_metrics().full_publishes->add();
    assigned = version_.load(std::memory_order_relaxed) + 1;
    const auto base = std::make_shared<const MatrixF>(std::move(embedding));
    if (!keep_dead) {
      // Fresh snapshots carry no bitmap: every row is served again.
      tombstoned_rows_.store(0, std::memory_order_relaxed);
      store_metrics().tombstoned_rows->set(0);
    }
    std::size_t ri = 0, ki = 0;
    std::vector<std::uint32_t> local_revive, local_kill;
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      auto snap = std::make_shared<ShardSnapshot>();
      snap->version = assigned;
      snap->base_version = assigned;
      snap->row_begin = static_cast<std::uint32_t>(layout_.begin(s));
      snap->dims = static_cast<std::uint32_t>(base->cols());
      const std::size_t rows = layout_.rows(s);
      snap->row_ptr.resize(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        snap->row_ptr[r] = base->row(snap->row_begin + r).data();
      }
      snap->buffers = {base};
      if (keep_dead) {
        if (const auto old_snap = heads_[s].load(std::memory_order_relaxed)) {
          snap->dead = old_snap->dead;
        }
        const auto begin = static_cast<NodeId>(snap->row_begin);
        const auto end = static_cast<NodeId>(begin + rows);
        take_local(revive, ri, begin, end, local_revive);
        take_local(kill, ki, begin, end, local_kill);
        update_dead(*snap, local_revive, local_kill);
      }
      heads_[s].store(std::move(snap), std::memory_order_release);
      shards_swapped_.fetch_add(1, std::memory_order_relaxed);
      store_metrics().shards_swapped->add();
    }
    store_metrics().delta_chain_depth->set(0);
    walks_trained_.store(walks_trained, std::memory_order_release);
    producer_ = std::move(producer);
    version_.store(assigned, std::memory_order_release);
  }
  version_cv_.notify_all();
  return assigned;
}

std::uint64_t ShardedEmbeddingStore::publish(MatrixF embedding,
                                             std::uint64_t walks_trained,
                                             std::string producer) {
  return rebase(std::move(embedding), /*keep_dead=*/false, {}, {},
                walks_trained, std::move(producer));
}

std::shared_ptr<ShardSnapshot> ShardedEmbeddingStore::compact_shard(
    const ShardSnapshot& old_snap, std::uint64_t version,
    std::span<const std::uint32_t> local_touched, const MatrixF& rows,
    std::size_t rows_offset) {
  // Re-pack the whole shard into one contiguous buffer: current value
  // for untouched rows, the incoming delta for touched ones.
  const std::size_t n = old_snap.num_rows();
  const std::size_t dims = old_snap.dims;
  auto packed = std::make_shared<MatrixF>(n, dims);
  for (std::size_t r = 0; r < n; ++r) {
    auto src = old_snap.row(r);
    std::copy(src.begin(), src.end(), packed->row(r).begin());
  }
  for (std::size_t i = 0; i < local_touched.size(); ++i) {
    auto src = rows.row(rows_offset + i);
    std::copy(src.begin(), src.end(),
              packed->row(local_touched[i]).begin());
  }
  rows_copied_.fetch_add(n, std::memory_order_relaxed);
  compactions_.fetch_add(1, std::memory_order_relaxed);
  store_metrics().rows_copied->add(n);
  store_metrics().compactions->add();

  auto snap = std::make_shared<ShardSnapshot>();
  snap->version = version;
  snap->base_version = version;
  snap->row_begin = old_snap.row_begin;
  snap->dims = old_snap.dims;
  snap->row_ptr.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    snap->row_ptr[r] = packed->row(r).data();
  }
  snap->buffers = {std::move(packed)};
  snap->dead = old_snap.dead;  // compaction repacks rows, not visibility
  return snap;
}

void ShardedEmbeddingStore::update_dead(
    ShardSnapshot& snap, std::span<const std::uint32_t> revive,
    std::span<const std::uint32_t> kill) {
  std::int64_t net = 0;
  bool revived = false;
  if (!snap.dead.empty()) {
    for (std::uint32_t l : revive) {
      if (snap.dead[l] != 0) {
        snap.dead[l] = 0;
        --net;
        revived = true;
      }
    }
  }
  if (!kill.empty() && snap.dead.empty()) snap.dead.assign(snap.num_rows(), 0);
  for (std::uint32_t l : kill) {
    if (snap.dead[l] == 0) {
      snap.dead[l] = 1;
      ++net;
    }
  }
  if (revived && std::all_of(snap.dead.begin(), snap.dead.end(),
                             [](std::uint8_t b) { return b == 0; })) {
    snap.dead.clear();  // back to the cheap "no tombstones" shape
  }
  if (net != 0) {
    const auto now =
        tombstoned_rows_.fetch_add(static_cast<std::uint64_t>(net),
                                   std::memory_order_relaxed) +
        static_cast<std::uint64_t>(net);
    store_metrics().tombstoned_rows->set(static_cast<std::int64_t>(now));
  }
}

std::uint64_t ShardedEmbeddingStore::publish_delta(
    std::span<const NodeId> touched, MatrixF rows,
    std::uint64_t walks_trained, std::string producer,
    std::span<const NodeId> tombstoned) {
  std::uint64_t assigned = 0;
  {
    std::lock_guard lock(publish_mutex_);
    if (layout_.num_rows == 0) {
      throw std::logic_error(
          "ShardedEmbeddingStore::publish_delta: no base published yet");
    }
    if (rows.rows() != touched.size()) {
      throw std::invalid_argument(
          "ShardedEmbeddingStore::publish_delta: touched/rows size "
          "mismatch");
    }
    check_ids(touched, layout_.num_rows, "touched rows");
    check_ids(tombstoned, layout_.num_rows, "tombstoned nodes");
    if (!touched.empty() &&
        rows.cols() != heads_[0].load(std::memory_order_relaxed)->dims) {
      throw std::invalid_argument(
          "ShardedEmbeddingStore::publish_delta: dims mismatch");
    }
    assigned = version_.load(std::memory_order_relaxed) + 1;
    delta_publishes_.fetch_add(1, std::memory_order_relaxed);
    store_metrics().delta_publishes->add();
    rows_copied_.fetch_add(touched.size(), std::memory_order_relaxed);
    store_metrics().rows_copied->add(touched.size());
    // One shared buffer for the whole delta; every affected shard's
    // snapshot co-owns it and repoints its touched entries into it.
    const auto delta = std::make_shared<const MatrixF>(std::move(rows));

    // Both lists are ascending, so each shard's entries form one
    // contiguous run; a shard with neither keeps its head.
    std::size_t i = 0, k = 0;
    std::vector<std::uint32_t> local, killed;
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      const auto begin = static_cast<NodeId>(layout_.begin(s));
      const auto end = static_cast<NodeId>(begin + layout_.rows(s));
      const std::size_t rows_offset = i;
      take_local(touched, i, begin, end, local);
      take_local(tombstoned, k, begin, end, killed);
      if (local.empty() && killed.empty()) continue;
      const auto old_snap = heads_[s].load(std::memory_order_relaxed);

      std::shared_ptr<ShardSnapshot> snap;
      if (local.empty()) {
        // Visibility only: zero rows copied, base_version kept, so
        // incremental index refresh sees no row changes.
        snap = std::make_shared<ShardSnapshot>(*old_snap);
        snap->version = assigned;
      } else {
        // Merge this publish's local rows into the cumulative
        // changed-since-base overlay (both ascending).
        std::vector<std::uint32_t> merged;
        merged.reserve(old_snap->changed_since_base.size() + local.size());
        std::set_union(old_snap->changed_since_base.begin(),
                       old_snap->changed_since_base.end(), local.begin(),
                       local.end(), std::back_inserter(merged));

        // Cost-scheduled compaction: repack only once the appended
        // delta volume amortizes the O(shard) copy; the overlay and
        // chain tests are backstops (index-refresh cost and memory).
        const std::uint64_t appended =
            old_snap->delta_rows_since_base + local.size();
        const bool cost_amortized =
            cfg_.compact_cost_factor > 0.0 &&
            static_cast<double>(appended) >=
                cfg_.compact_cost_factor *
                    static_cast<double>(old_snap->num_rows());
        const bool overflow =
            cost_amortized ||
            old_snap->delta_chain() + 1 > cfg_.max_delta_chain ||
            static_cast<double>(merged.size()) >
                cfg_.max_overlay_fraction *
                    static_cast<double>(old_snap->num_rows());
        if (overflow) {
          snap = compact_shard(*old_snap, assigned, local, *delta,
                               rows_offset);
        } else {
          snap = std::make_shared<ShardSnapshot>();
          snap->version = assigned;
          snap->base_version = old_snap->base_version;
          snap->row_begin = old_snap->row_begin;
          snap->dims = old_snap->dims;
          snap->row_ptr = old_snap->row_ptr;  // cheap pointer-table clone
          for (std::size_t t = 0; t < local.size(); ++t) {
            snap->row_ptr[local[t]] = delta->row(rows_offset + t).data();
          }
          snap->buffers = old_snap->buffers;
          snap->buffers.push_back(delta);
          snap->changed_since_base = std::move(merged);
          snap->delta_rows_since_base = appended;
          snap->dead = old_snap->dead;
        }
      }
      update_dead(*snap, local, killed);
      const std::int64_t chain_depth =
          static_cast<std::int64_t>(snap->delta_chain());
      heads_[s].store(std::move(snap), std::memory_order_release);
      shards_swapped_.fetch_add(1, std::memory_order_relaxed);
      store_metrics().shards_swapped->add();
      store_metrics().delta_chain_depth->set(chain_depth);
    }
    walks_trained_.store(walks_trained, std::memory_order_release);
    producer_ = std::move(producer);
    version_.store(assigned, std::memory_order_release);
  }
  version_cv_.notify_all();
  return assigned;
}

std::string ShardedEmbeddingStore::producer() const {
  std::lock_guard lock(publish_mutex_);
  return producer_;
}

void ShardedEmbeddingStore::on_snapshot(const EmbeddingModel& model,
                                        const TrainStats& stats) {
  publish(model.extract_embedding(), stats.num_walks, model.name());
}

void ShardedEmbeddingStore::on_delta(const EmbeddingModel& model,
                                     const TrainStats& stats,
                                     std::span<const NodeId> touched_rows,
                                     std::span<const NodeId> tombstoned) {
  // A near-full delta costs more than a full rebase (per-shard overlay
  // merges + compaction churn on top of the row copies), so past half
  // the rows just republish everything — which also resets every
  // shard's overlay and delta chain. Either way the tombstone edits
  // land in the same version, and the rebase keeps the dead bits of
  // rows outside the delta.
  if (version() == 0 || touched_rows.size() * 2 >= model.num_nodes()) {
    rebase(model.extract_embedding(), /*keep_dead=*/true, touched_rows,
           tombstoned, stats.num_walks, model.name());
    return;
  }
  MatrixF rows(touched_rows.size(), model.dims());
  model.extract_rows(touched_rows, rows);
  publish_delta(touched_rows, std::move(rows), stats.num_walks,
                model.name(), tombstoned);
}

std::vector<std::shared_ptr<const ShardSnapshot>>
ShardedEmbeddingStore::view() const {
  std::vector<std::shared_ptr<const ShardSnapshot>> out;
  if (version() == 0) return out;
  out.reserve(cfg_.num_shards);
  for (std::size_t s = 0; s < cfg_.num_shards; ++s) out.push_back(shard(s));
  return out;
}

bool ShardedEmbeddingStore::wait_for_version(
    std::uint64_t v, std::chrono::milliseconds timeout) const {
  std::unique_lock lock(publish_mutex_);
  return version_cv_.wait_for(lock, timeout, [&] {
    return version_.load(std::memory_order_acquire) >= v;
  });
}

MatrixF ShardedEmbeddingStore::materialize() const {
  const auto shards = view();
  if (shards.empty()) {
    throw std::runtime_error(
        "ShardedEmbeddingStore::materialize: nothing published");
  }
  const std::size_t dims = shards.front()->dims;
  MatrixF out(num_rows(), dims);
  for (const auto& snap : shards) {
    for (std::size_t r = 0; r < snap->num_rows(); ++r) {
      auto src = snap->row(r);
      std::copy(src.begin(), src.end(),
                out.row(snap->row_begin + r).begin());
    }
  }
  return out;
}

void ShardedEmbeddingStore::save(std::ostream& os) const {
  write_checkpoint(os, materialize(), nullptr);
}

void ShardedEmbeddingStore::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("ShardedEmbeddingStore::save: cannot open " +
                             path);
  }
  save(os);
}

std::uint64_t ShardedEmbeddingStore::load(std::istream& is,
                                          std::string producer) {
  const CheckpointHeader h = read_checkpoint_header(is);
  MatrixF beta;
  MatrixF covariance;  // read-and-discard keeps the stream consumable
  read_checkpoint_payload(is, h, beta,
                          h.has_covariance ? &covariance : nullptr);
  return publish(std::move(beta), 0, std::move(producer));
}

std::uint64_t ShardedEmbeddingStore::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("ShardedEmbeddingStore::load: cannot open " +
                             path);
  }
  return load(is, path);
}

}  // namespace seqge::serve
