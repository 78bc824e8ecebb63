#include "serve/sharded_store.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <new>
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

/// Whether `p` points into `m`'s data (std::less orders pointers into
/// different allocations too).
bool points_into(const MatrixF& m, const float* p) {
  const std::less<const float*> lt;
  return !lt(p, m.data()) && lt(p, m.data() + m.size());
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

/// Allocator for std::allocate_shared that makes the one block holding
/// the control block and the object `tail_bytes` longer, and reports
/// where that tail starts (cache-line aligned).
template <typename T>
struct TailAllocator {
  static constexpr std::size_t kLine = 64;
  using value_type = T;
  std::size_t tail_bytes;
  std::byte** tail;

  TailAllocator(std::size_t bytes, std::byte** out) noexcept
      : tail_bytes(bytes), tail(out) {}
  template <typename U>
  TailAllocator(const TailAllocator<U>& o) noexcept
      : tail_bytes(o.tail_bytes), tail(o.tail) {}

  T* allocate(std::size_t n) {
    auto* block = static_cast<std::byte*>(
        ::operator new(n * sizeof(T) + kLine - 1 + tail_bytes));
    const auto end = reinterpret_cast<std::uintptr_t>(block + n * sizeof(T));
    *tail = block + ((end + kLine - 1) / kLine * kLine -
                     reinterpret_cast<std::uintptr_t>(block));
    return reinterpret_cast<T*>(block);
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p); }
  template <typename U>
  bool operator==(const TailAllocator<U>&) const noexcept {
    return true;
  }
};

/// std::make_shared<T>() with `tail_bytes` more in the same allocation;
/// returns the object and where the tail starts.
template <typename T>
std::pair<std::shared_ptr<T>, std::byte*> make_shared_with_tail(
    std::size_t tail_bytes) {
  std::byte* tail = nullptr;
  auto obj = std::allocate_shared<T>(TailAllocator<T>(tail_bytes, &tail));
  return {std::move(obj), tail};
}

using Chunk = ShardSnapshot::Chunk;
constexpr std::size_t kChunkRows = ShardSnapshot::kChunkRows;

std::size_t chunks_for(std::size_t rows) {
  return (rows + kChunkRows - 1) / kChunkRows;
}

/// A link owning `rows` and `count` chunks, which stay writable
/// through `chunks` until it is published.
struct FreshLink {
  std::shared_ptr<ShardSnapshot::BufferLink> link;
  Chunk* chunks;
};

FreshLink new_link(std::shared_ptr<const MatrixF> rows, std::size_t count) {
  auto [link, tail] =
      make_shared_with_tail<ShardSnapshot::BufferLink>(count * sizeof(Chunk));
  auto* chunks = reinterpret_cast<Chunk*>(tail);
  link->rows = std::move(rows);
  link->chunks = {chunks, count};
  return {std::move(link), chunks};
}

/// Fill chunks_for(rows) chunks with the pointers of `m`'s rows
/// [first, first + rows), null past the end.
void point_chunks(Chunk* chunks, const MatrixF& m, std::size_t first,
                  std::size_t rows) {
  for (std::size_t r = 0; r < chunks_for(rows) * kChunkRows; ++r) {
    chunks[r / kChunkRows][r % kChunkRows] =
        r < rows ? m.row(first + r).data() : nullptr;
  }
}

/// A snapshot of `rows` rows in one allocation with its chunk directory
/// and dead bits, which stay writable through `chunks` and `dead` until
/// it is published. The directory is uninitialized; the dead bits are
/// copied from `like` (same row count), or clear without it.
struct FreshSnapshot {
  std::shared_ptr<ShardSnapshot> snap;
  const Chunk** chunks;
  std::uint64_t* dead;
};

FreshSnapshot new_snapshot(std::size_t rows, const ShardSnapshot* like) {
  const std::size_t num_chunks = chunks_for(rows);
  const std::size_t words = (rows + 63) / 64;
  auto [snap, tail] = make_shared_with_tail<ShardSnapshot>(
      num_chunks * sizeof(const Chunk*) + words * sizeof(std::uint64_t));
  auto* chunks = reinterpret_cast<const Chunk**>(tail);
  auto* dead = reinterpret_cast<std::uint64_t*>(chunks + num_chunks);
  if (like != nullptr) {
    std::copy(like->dead.begin(), like->dead.end(), dead);
    snap->dead_rows = like->dead_rows;
  } else {
    std::fill_n(dead, words, std::uint64_t{0});
  }
  snap->row_count = rows;
  snap->chunks = {chunks, num_chunks};
  snap->dead = {dead, words};
  return {std::move(snap), chunks, dead};
}

/// The successor of `old` at `version`: every row, link, bit and
/// compaction counter carried over, the directory ready to be
/// repointed.
FreshSnapshot successor(const ShardSnapshot& old, std::uint64_t version) {
  FreshSnapshot fresh = new_snapshot(old.num_rows(), &old);
  ShardSnapshot& snap = *fresh.snap;
  std::copy(old.chunks.begin(), old.chunks.end(), fresh.chunks);
  snap.version = version;
  snap.base_version = old.base_version;
  snap.row_begin = old.row_begin;
  snap.dims = old.dims;
  snap.buffers = old.buffers;
  snap.base = old.base;
  snap.chain_length = old.chain_length;
  snap.delta_rows_since_base = old.delta_rows_since_base;
  snap.overlay_rows = old.overlay_rows;
  return fresh;
}

}  // namespace

ShardSnapshot::BufferLink::~BufferLink() {
  // Whoever drops the last reference to a link frees it, so a link this
  // one owns alone is unlinked before it goes: each iteration frees one
  // link whose `prev` is already empty.
  std::shared_ptr<const BufferLink> next = std::move(prev);
  while (next && next.use_count() == 1) next = std::move(next->prev);
}

ShardedEmbeddingStore::ShardedEmbeddingStore(Config cfg) : cfg_(cfg) {
  if (cfg_.num_shards == 0) {
    throw std::invalid_argument("ShardedEmbeddingStore: num_shards == 0");
  }
  if (cfg_.max_delta_chain == 0) cfg_.max_delta_chain = 1;
  heads_ = std::make_unique<Head[]>(cfg_.num_shards);
}

void ShardedEmbeddingStore::swap_head(
    std::size_t s, std::shared_ptr<const ShardSnapshot> snap) {
  store_metrics().delta_chain_depth->set(
      static_cast<std::int64_t>(snap->delta_chain()));
  heads_[s].store(snap, std::memory_order_release);
  current_[s] = std::move(snap);
  shards_swapped_.fetch_add(1, std::memory_order_relaxed);
  store_metrics().shards_swapped->add();
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
      current_.resize(cfg_.num_shards);
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
    // One link holds the new base and the chunks of every shard.
    std::size_t num_chunks = 0;
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      num_chunks += chunks_for(layout_.rows(s));
    }
    const FreshLink link = new_link(
        std::make_shared<const MatrixF>(std::move(embedding)), num_chunks);
    const MatrixF* base = link.link->rows.get();
    Chunk* next_chunk = link.chunks;
    if (!keep_dead) {
      // Fresh snapshots carry no dead bits: every row is served again.
      tombstoned_rows_.store(0, std::memory_order_relaxed);
      store_metrics().tombstoned_rows->set(0);
    }
    std::size_t ri = 0, ki = 0;
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      const std::size_t rows = layout_.rows(s);
      FreshSnapshot fresh =
          new_snapshot(rows, keep_dead ? current_[s].get() : nullptr);
      ShardSnapshot& snap = *fresh.snap;
      snap.version = assigned;
      snap.base_version = assigned;
      snap.row_begin = static_cast<std::uint32_t>(layout_.begin(s));
      snap.dims = static_cast<std::uint32_t>(base->cols());
      point_chunks(next_chunk, *base, snap.row_begin, rows);
      for (std::size_t c = 0; c < snap.chunks.size(); ++c) {
        fresh.chunks[c] = next_chunk++;
      }
      snap.buffers = link.link;
      snap.base = base;
      if (keep_dead) {
        const auto begin = static_cast<NodeId>(snap.row_begin);
        const auto end = static_cast<NodeId>(begin + rows);
        take_local(revive, ri, begin, end, local_scratch_);
        take_local(kill, ki, begin, end, kill_scratch_);
        update_dead(snap, fresh.dead, local_scratch_, kill_scratch_);
      }
      swap_head(s, std::move(fresh.snap));
    }
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

void ShardedEmbeddingStore::update_dead(
    ShardSnapshot& snap, std::uint64_t* dead,
    std::span<const std::uint32_t> revive,
    std::span<const std::uint32_t> kill) {
  std::int64_t net = 0;
  if (snap.dead_rows != 0) {
    for (std::uint32_t l : revive) {
      const std::uint64_t bit = std::uint64_t{1} << (l & 63);
      if ((dead[l >> 6] & bit) != 0) {
        dead[l >> 6] &= ~bit;
        --net;
      }
    }
  }
  for (std::uint32_t l : kill) {
    const std::uint64_t bit = std::uint64_t{1} << (l & 63);
    if ((dead[l >> 6] & bit) == 0) {
      dead[l >> 6] |= bit;
      ++net;
    }
  }
  if (net != 0) {
    snap.dead_rows = static_cast<std::size_t>(
        static_cast<std::int64_t>(snap.dead_rows) + net);
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
    if (!touched.empty() && rows.cols() != current_[0]->dims) {
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
    auto& local = local_scratch_;
    auto& killed = kill_scratch_;
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      const auto begin = static_cast<NodeId>(layout_.begin(s));
      const auto end = static_cast<NodeId>(begin + layout_.rows(s));
      const std::size_t rows_offset = i;
      take_local(touched, i, begin, end, local);
      take_local(tombstoned, k, begin, end, killed);
      if (local.empty() && killed.empty()) continue;
      const ShardSnapshot& old = *current_[s];
      const std::size_t n = old.num_rows();

      // A touched row still pointing into the base buffer joins the
      // changed-since-base overlay; one already outside it is counted.
      std::size_t overlay = old.overlay_rows;
      std::size_t touched_chunks = 0;
      for (std::size_t t = 0; t < local.size(); ++t) {
        overlay += points_into(*old.base, old.row_ptr(local[t]));
        touched_chunks += t == 0 || local[t] / kChunkRows !=
                                        local[t - 1] / kChunkRows;
      }
      // Cost-scheduled compaction: repack only once the appended delta
      // volume amortizes the O(shard) copy; the overlay and chain tests
      // are backstops (index-refresh cost and memory). A visibility-only
      // edit (no touched row) never compacts.
      const std::uint64_t appended = old.delta_rows_since_base + local.size();
      const bool compact =
          !local.empty() &&
          ((cfg_.compact_cost_factor > 0.0 &&
            static_cast<double>(appended) >=
                cfg_.compact_cost_factor * static_cast<double>(n)) ||
           old.delta_chain() + 1 > cfg_.max_delta_chain ||
           static_cast<double>(overlay) >
               cfg_.max_overlay_fraction * static_cast<double>(n));

      FreshSnapshot fresh = successor(old, assigned);
      ShardSnapshot& snap = *fresh.snap;
      if (compact) {
        // Re-pack the whole shard into one contiguous buffer: current
        // value for untouched rows, the incoming delta for touched ones.
        auto packed = std::make_shared<MatrixF>(n, old.dims);
        for (std::size_t r = 0; r < n; ++r) {
          auto src = old.row(r);
          std::copy(src.begin(), src.end(), packed->row(r).begin());
        }
        for (std::size_t t = 0; t < local.size(); ++t) {
          auto src = delta->row(rows_offset + t);
          std::copy(src.begin(), src.end(), packed->row(local[t]).begin());
        }
        rows_copied_.fetch_add(n, std::memory_order_relaxed);
        compactions_.fetch_add(1, std::memory_order_relaxed);
        store_metrics().rows_copied->add(n);
        store_metrics().compactions->add();
        snap.base = packed.get();
        const FreshLink link = new_link(std::move(packed), snap.chunks.size());
        point_chunks(link.chunks, *snap.base, 0, n);
        for (std::size_t c = 0; c < snap.chunks.size(); ++c) {
          fresh.chunks[c] = &link.chunks[c];
        }
        snap.buffers = link.link;  // drops the old chain
        snap.base_version = assigned;
        snap.chain_length = 0;
        snap.delta_rows_since_base = 0;
        snap.overlay_rows = 0;
      } else if (!local.empty()) {
        // Copy each chunk holding a touched row into the new link and
        // repoint the touched entries there.
        const FreshLink link = new_link(delta, touched_chunks);
        Chunk* chunk = nullptr;
        std::size_t used = 0;
        for (std::size_t t = 0; t < local.size(); ++t) {
          const std::size_t c = local[t] / kChunkRows;
          if (t == 0 || c != local[t - 1] / kChunkRows) {
            chunk = &link.chunks[used++];
            *chunk = *old.chunks[c];
            fresh.chunks[c] = chunk;
          }
          (*chunk)[local[t] % kChunkRows] = delta->row(rows_offset + t).data();
        }
        link.link->prev = std::move(snap.buffers);
        snap.buffers = link.link;
        ++snap.chain_length;
        snap.delta_rows_since_base = appended;
        snap.overlay_rows = overlay;
      }
      // Without touched rows this is visibility only: zero rows copied,
      // base_version kept, so incremental index refresh sees no change.
      update_dead(snap, fresh.dead, local, killed);
      swap_head(s, std::move(fresh.snap));
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
  // A near-full delta costs more than a full rebase (compaction churn
  // on top of the row copies), so past half the rows just republish
  // everything — which also resets every shard's overlay and delta
  // chain. Either way the tombstone edits land in the same version,
  // and the rebase keeps the dead bits of rows outside the delta.
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
  write_file_atomically(path, [&](std::ostream& os) { save(os); });
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
