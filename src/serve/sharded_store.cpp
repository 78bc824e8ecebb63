#include "serve/sharded_store.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
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

/// Appends the ids of `ids` (ascending) below `end`, from `cursor` on,
/// to `out` as local rows of a shard starting at `begin`; advances the
/// cursor past them.
void take_local(std::span<const NodeId> ids, std::size_t& cursor,
                NodeId begin, NodeId end, std::vector<std::uint32_t>& out) {
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

/// `bytes` rounded up to whole cache lines.
std::size_t whole_lines(std::size_t bytes) {
  constexpr std::size_t kLine = 64;
  return (bytes + kLine - 1) / kLine * kLine;
}

/// Bytes of a delta page for a shard of `rows` rows of `row_bytes`:
/// about half the shard's rows and chunks, so a page takes many small
/// publishes and its unused end never exceeds half a shard.
std::size_t page_bytes(std::size_t rows, std::size_t row_bytes) {
  return whole_lines(rows * (row_bytes + sizeof(const float*)) / 2);
}

/// A link co-owning `rows` (may be null) with `bytes` bytes of
/// cache-line-aligned storage, writable through `storage` until it is
/// published.
struct FreshLink {
  std::shared_ptr<ShardSnapshot::BufferLink> link;
  std::byte* storage;
};

FreshLink new_link(std::shared_ptr<const MatrixF> rows, std::size_t bytes) {
  auto [link, tail] = make_shared_with_tail<ShardSnapshot::BufferLink>(bytes);
  link->rows = std::move(rows);
  link->storage = {tail, bytes};
  return {std::move(link), tail};
}

/// Fill chunks_for(rows) chunks with the pointers of `rows` rows of
/// `dims` floats laid out contiguously from `first`, null past the end.
void point_chunks(Chunk* chunks, const float* first, std::size_t dims,
                  std::size_t rows) {
  for (std::size_t r = 0; r < chunks_for(rows) * kChunkRows; ++r) {
    chunks[r / kChunkRows][r % kChunkRows] =
        r < rows ? first + r * dims : nullptr;
  }
}

/// One allocation holding the snapshots one publish creates — one per
/// shard it changes — and behind them each one's chunk directory and
/// dead bits. Every head the publish swaps in aliases the block, so a
/// reader holding any one of its snapshots keeps all of them, and every
/// chain they reference, alive.
struct SnapshotBlock {
  std::span<ShardSnapshot> snaps;
  ~SnapshotBlock() { std::destroy(snaps.begin(), snaps.end()); }
};

/// `count` snapshots in one SnapshotBlock, snapshot i of rows_of(i)
/// rows. Directories and dead bits are uninitialized.
template <typename RowsOf>
std::shared_ptr<SnapshotBlock> new_snapshots(std::size_t count,
                                             RowsOf rows_of) {
  std::size_t bytes = count * sizeof(ShardSnapshot);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t rows = rows_of(i);
    bytes += chunks_for(rows) * sizeof(const Chunk*) +
             (rows + 63) / 64 * sizeof(std::uint64_t);
  }
  auto [block, tail] = make_shared_with_tail<SnapshotBlock>(bytes);
  auto* snaps = reinterpret_cast<ShardSnapshot*>(tail);
  std::byte* next = tail + count * sizeof(ShardSnapshot);
  for (std::size_t i = 0; i < count; ++i) {
    ShardSnapshot& snap = *new (snaps + i) ShardSnapshot;
    const std::size_t rows = rows_of(i);
    const std::size_t num_chunks = chunks_for(rows);
    const std::size_t words = (rows + 63) / 64;
    auto* chunks = reinterpret_cast<const Chunk**>(next);
    auto* dead = reinterpret_cast<std::uint64_t*>(chunks + num_chunks);
    next = reinterpret_cast<std::byte*>(dead + words);
    snap.row_count = rows;
    snap.chunks = {chunks, num_chunks};
    snap.dead = {dead, words};
  }
  block->snaps = {snaps, count};
  return block;
}

/// A snapshot of a block not yet published, with its directory and dead
/// bits writable.
struct FreshSnapshot {
  ShardSnapshot& snap;
  const Chunk** chunks;
  std::uint64_t* dead;

  explicit FreshSnapshot(ShardSnapshot& s)
      : snap(s),
        chunks(const_cast<const Chunk**>(s.chunks.data())),
        dead(const_cast<std::uint64_t*>(s.dead.data())) {}

  /// Copy the dead bits of `like` (same row count), or clear them
  /// without it.
  void init_dead(const ShardSnapshot* like) const {
    if (like != nullptr) {
      std::copy(like->dead.begin(), like->dead.end(), dead);
      snap.dead_rows = like->dead_rows;
    } else {
      std::fill(dead, dead + snap.dead.size(), std::uint64_t{0});
    }
  }

  /// Make this the successor of `old` at `version`: every row, link,
  /// bit and compaction counter carried over, the directory ready to be
  /// repointed.
  void succeed(const ShardSnapshot& old, std::uint64_t version) const {
    init_dead(&old);
    std::copy(old.chunks.begin(), old.chunks.end(), chunks);
    snap.version = version;
    snap.base_version = old.base_version;
    snap.row_begin = old.row_begin;
    snap.dims = old.dims;
    snap.buffers = old.buffers;
    snap.chain_length = old.chain_length;
    snap.delta_rows_since_base = old.delta_rows_since_base;
  }
};

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
    const FreshLink link =
        new_link(std::make_shared<const MatrixF>(std::move(embedding)),
                 num_chunks * sizeof(Chunk));
    const MatrixF& base = *link.link->rows;
    auto* next_chunk = reinterpret_cast<Chunk*>(link.storage);
    // The shared base takes no deltas: each shard's first delta starts
    // a page of its own.
    tails_.assign(cfg_.num_shards, FreeTail{});
    if (!keep_dead) {
      // Fresh snapshots carry no dead bits: every row is served again.
      tombstoned_rows_.store(0, std::memory_order_relaxed);
      store_metrics().tombstoned_rows->set(0);
    }
    const auto block = new_snapshots(
        cfg_.num_shards, [&](std::size_t s) { return layout_.rows(s); });
    std::size_t ri = 0, ki = 0;
    std::int64_t dead_net = 0;
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      const std::size_t rows = layout_.rows(s);
      const FreshSnapshot fresh(block->snaps[s]);
      ShardSnapshot& snap = fresh.snap;
      fresh.init_dead(keep_dead ? current_[s].get() : nullptr);
      snap.version = assigned;
      snap.base_version = assigned;
      snap.row_begin = static_cast<std::uint32_t>(layout_.begin(s));
      snap.dims = static_cast<std::uint32_t>(base.cols());
      point_chunks(next_chunk, base.row(snap.row_begin).data(), snap.dims,
                   rows);
      for (std::size_t c = 0; c < snap.chunks.size(); ++c) {
        fresh.chunks[c] = next_chunk++;
      }
      snap.buffers = link.link;
      if (keep_dead) {
        const auto begin = static_cast<NodeId>(snap.row_begin);
        const auto end = static_cast<NodeId>(begin + rows);
        local_scratch_.clear();
        kill_scratch_.clear();
        take_local(revive, ri, begin, end, local_scratch_);
        take_local(kill, ki, begin, end, kill_scratch_);
        dead_net += update_dead(fresh.snap, fresh.dead, local_scratch_,
                                kill_scratch_);
      }
    }
    add_tombstoned(dead_net);
    for (std::size_t s = 0; s < cfg_.num_shards; ++s) {
      swap_head(s, {block, &block->snaps[s]});
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

std::int64_t ShardedEmbeddingStore::update_dead(
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
  snap.dead_rows = static_cast<std::size_t>(
      static_cast<std::int64_t>(snap.dead_rows) + net);
  return net;
}

void ShardedEmbeddingStore::add_tombstoned(std::int64_t net) {
  if (net == 0) return;
  const auto now = tombstoned_rows_.fetch_add(static_cast<std::uint64_t>(net),
                                              std::memory_order_relaxed) +
                   static_cast<std::uint64_t>(net);
  store_metrics().tombstoned_rows->set(static_cast<std::int64_t>(now));
}

std::uint64_t ShardedEmbeddingStore::publish_delta(
    std::span<const NodeId> touched, const MatrixF& rows,
    std::uint64_t walks_trained, std::string producer,
    std::span<const NodeId> tombstoned) {
  if (rows.rows() != touched.size()) {
    throw std::invalid_argument(
        "ShardedEmbeddingStore::publish_delta: touched/rows size mismatch");
  }
  const std::size_t dims = rows.cols();
  auto copy_rows = [&](std::size_t first, std::size_t count, float* out) {
    const auto src = rows.flat().subspan(first * dims, count * dims);
    std::copy(src.begin(), src.end(), out);
  };
  std::uint64_t assigned = 0;
  {
    std::lock_guard lock(publish_mutex_);
    assigned = publish_delta_locked(touched, dims, copy_rows, walks_trained,
                                    std::move(producer), tombstoned);
  }
  version_cv_.notify_all();
  return assigned;
}

template <typename RowSource>
std::uint64_t ShardedEmbeddingStore::publish_delta_locked(
    std::span<const NodeId> touched, std::size_t dims, RowSource&& extract,
    std::uint64_t walks_trained, std::string producer,
    std::span<const NodeId> tombstoned) {
  if (layout_.num_rows == 0) {
    throw std::logic_error(
        "ShardedEmbeddingStore::publish_delta: no base published yet");
  }
  check_ids(touched, layout_.num_rows, "touched rows");
  check_ids(tombstoned, layout_.num_rows, "tombstoned nodes");
  if (!touched.empty() && dims != current_[0]->dims) {
    throw std::invalid_argument(
        "ShardedEmbeddingStore::publish_delta: dims mismatch");
  }
  const std::uint64_t assigned = version_.load(std::memory_order_relaxed) + 1;
  const std::size_t row_bytes = dims * sizeof(float);

  // Both lists are ascending, so each shard's entries form one
  // contiguous run (local_scratch_[t] is touched[t] as a local row).
  local_scratch_.clear();
  kill_scratch_.clear();
  edits_.clear();
  bool compacting = false;
  for (std::size_t s = 0, i = 0, k = 0; s < cfg_.num_shards; ++s) {
    const auto begin = static_cast<NodeId>(layout_.begin(s));
    const auto end = static_cast<NodeId>(begin + layout_.rows(s));
    ShardEdit& edit =
        edits_.emplace_back(ShardEdit{s, i, i, k, k, tails_[s]});
    take_local(touched, i, begin, end, local_scratch_);
    take_local(tombstoned, k, begin, end, kill_scratch_);
    edit.touched_end = i;
    edit.killed_end = k;
    // Cost-scheduled compaction: repack only once the appended delta
    // volume amortizes the O(shard) copy; the chain test is a backstop.
    // A visibility-only edit (no touched row) never compacts.
    const ShardSnapshot& old = *current_[s];
    const std::uint64_t appended =
        old.delta_rows_since_base + (i - edit.touched_begin);
    edit.compact =
        i != edit.touched_begin &&
        ((cfg_.compact_cost_factor > 0.0 &&
          static_cast<double>(appended) >=
              cfg_.compact_cost_factor *
                  static_cast<double>(old.num_rows())) ||
         old.delta_chain() + 1 > cfg_.max_delta_chain);
    compacting = compacting || edit.compact;
  }
  // A shard with neither keeps its head — unless a shard compacts. A
  // head keeps its whole block alive, the superseded snapshots of other
  // shards included; between compactions their chains are suffixes of
  // the current ones, which costs no row memory, but a compacted
  // shard's old chain must not live on in an idle shard's block. So a
  // compacting publish moves every head into its block, the idle ones
  // unchanged.
  if (!compacting) {
    std::erase_if(edits_, [](const ShardEdit& e) { return e.idle(); });
  }

  // Every new snapshot is built in one block before any head is
  // swapped, so a row source that throws publishes nothing.
  const auto block = new_snapshots(edits_.size(), [&](std::size_t e) {
    return layout_.rows(edits_[e].shard);
  });
  std::uint64_t repacked = 0, compactions = 0;
  std::int64_t dead_net = 0;
  for (std::size_t e = 0; e < edits_.size(); ++e) {
    ShardEdit& edit = edits_[e];
    const ShardSnapshot& old = *current_[edit.shard];
    const std::size_t n = old.num_rows();
    const std::span<const std::uint32_t> local(
        local_scratch_.data() + edit.touched_begin,
        edit.touched_end - edit.touched_begin);
    const std::span<const std::uint32_t> killed(
        kill_scratch_.data() + edit.killed_begin,
        edit.killed_end - edit.killed_begin);
    const FreshSnapshot fresh(block->snaps[e]);
    ShardSnapshot& snap = fresh.snap;
    fresh.succeed(old, assigned);
    // An idle shard moved into the block keeps its version.
    if (edit.idle()) snap.version = old.version;

    FreeTail& tail = edit.tail;
    if (edit.compact) {
      // Re-pack the whole shard into one link — its chunks, then every
      // row's current value (the incoming delta for touched ones) — and
      // leave a page free behind them for the deltas that follow.
      const std::size_t num_chunks = snap.chunks.size();
      const std::size_t packed =
          num_chunks * sizeof(Chunk) + whole_lines(n * row_bytes);
      const std::size_t page = page_bytes(n, row_bytes);
      const FreshLink link = new_link(nullptr, packed + page);
      auto* chunks = reinterpret_cast<Chunk*>(link.storage);
      auto* out =
          reinterpret_cast<float*>(link.storage + num_chunks * sizeof(Chunk));
      for (std::size_t r = 0; r < n; ++r) {
        const auto src = old.row(r);
        std::copy(src.begin(), src.end(), out + r * dims);
      }
      for (std::size_t t = 0; t < local.size(); ++t) {
        extract(edit.touched_begin + t, 1, out + local[t] * dims);
      }
      point_chunks(chunks, out, dims, n);
      for (std::size_t c = 0; c < num_chunks; ++c) fresh.chunks[c] = &chunks[c];
      repacked += n;
      ++compactions;
      snap.buffers = link.link;  // drops the old chain
      tail = {link.storage + packed, link.storage + packed + page};
      snap.base_version = assigned;
      snap.chain_length = 0;
      snap.delta_rows_since_base = 0;
    } else if (!local.empty()) {
      // Append copies of the chunks holding a touched row, then the
      // touched rows, written there by the row source, to the newest
      // link, repointing those entries at the rows; start a new page
      // when it is full.
      std::size_t touched_chunks = 0;
      for (std::size_t t = 0; t < local.size(); ++t) {
        touched_chunks += t == 0 || local[t] / kChunkRows !=
                                        local[t - 1] / kChunkRows;
      }
      const std::size_t need = touched_chunks * sizeof(Chunk) +
                               whole_lines(local.size() * row_bytes);
      if (static_cast<std::size_t>(tail.end - tail.next) < need) {
        const std::size_t bytes = std::max(need, page_bytes(n, row_bytes));
        FreshLink page = new_link(nullptr, bytes);
        page.link->prev = std::move(snap.buffers);
        snap.buffers = std::move(page.link);
        tail = {page.storage, page.storage + bytes};
      }
      auto* chunk_out = reinterpret_cast<Chunk*>(tail.next);
      auto* row_out =
          reinterpret_cast<float*>(tail.next + touched_chunks * sizeof(Chunk));
      tail.next += need;
      extract(edit.touched_begin, local.size(), row_out);
      Chunk* chunk = nullptr;
      for (std::size_t t = 0; t < local.size(); ++t) {
        const std::size_t c = local[t] / kChunkRows;
        if (t == 0 || c != local[t - 1] / kChunkRows) {
          chunk = chunk_out++;
          *chunk = *old.chunks[c];
          fresh.chunks[c] = chunk;
        }
        (*chunk)[local[t] % kChunkRows] = row_out + t * dims;
      }
      ++snap.chain_length;
      snap.delta_rows_since_base += local.size();
    }
    // Without touched rows this is visibility only: zero rows copied,
    // base_version kept, so incremental index refresh sees no change.
    dead_net += update_dead(snap, fresh.dead, local, killed);
  }

  for (std::size_t e = 0; e < edits_.size(); ++e) {
    tails_[edits_[e].shard] = edits_[e].tail;
    swap_head(edits_[e].shard, {block, &block->snaps[e]});
  }
  delta_publishes_.fetch_add(1, std::memory_order_relaxed);
  rows_copied_.fetch_add(touched.size() + repacked,
                         std::memory_order_relaxed);
  compactions_.fetch_add(compactions, std::memory_order_relaxed);
  store_metrics().delta_publishes->add();
  store_metrics().rows_copied->add(touched.size() + repacked);
  if (compactions != 0) store_metrics().compactions->add(compactions);
  add_tombstoned(dead_net);
  walks_trained_.store(walks_trained, std::memory_order_release);
  producer_ = std::move(producer);
  version_.store(assigned, std::memory_order_release);
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
  // everything — which also resets every shard's delta chain. Either
  // way the tombstone edits land in the same version, and the rebase
  // keeps the dead bits of rows outside the delta.
  if (version() == 0 || touched_rows.size() * 2 >= model.num_nodes()) {
    rebase(model.extract_embedding(), /*keep_dead=*/true, touched_rows,
           tombstoned, stats.num_walks, model.name());
    return;
  }
  // The rows are extracted straight into each shard's page.
  const std::size_t dims = model.dims();
  auto extract = [&](std::size_t first, std::size_t count, float* out) {
    model.extract_rows(touched_rows.subspan(first, count),
                       {out, count * dims});
  };
  {
    std::lock_guard lock(publish_mutex_);
    publish_delta_locked(touched_rows, dims, extract, stats.num_walks,
                         model.name(), tombstoned);
  }
  version_cv_.notify_all();
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
