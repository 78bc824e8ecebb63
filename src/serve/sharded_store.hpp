#pragma once
// Versioned, sharded, copy-on-write embedding store — the one store
// decoupling online training from query serving: the host-side half of
// the board split (the PL/trainer produces embedding versions, the
// PS/server answers queries against them). One shard (the default)
// serves small graphs; sequential OS-ELM training touches only
// O(walk + negatives) rows per insertion, so at scale more shards keep
// publish cost O(touched) instead of republishing the full n x dims
// matrix on every version.
//
// Design:
//  * The node range [0, n) is split into `num_shards` contiguous
//    ranges; each shard has its own RCU head —
//    std::atomic<std::shared_ptr<const ShardSnapshot>> — swapped
//    independently, so a publish only touches the shards whose rows
//    changed.
//  * A ShardSnapshot is immutable and row-granular copy-on-write: it
//    reaches each local row through a directory of chunks, each chunk
//    the `const float*` of 8 consecutive rows (one cache line), and
//    owns a linked chain of the buffers those pointers reference,
//    newest first, ending at the base. A delta publish builds the new
//    snapshot of every affected shard in one allocation (each with its
//    directory and dead bits behind it; every head it swaps in aliases
//    that block) and writes each shard's touched rows, plus a copy of
//    every chunk holding one (repointed at them), to the free end of
//    the shard's newest link — a page of about half a shard's bytes
//    that later publishes keep filling; only a full page starts a new
//    link. The rows are written there once, by the row source itself
//    (on_delta: EmbeddingModel::extract_rows), before the head that
//    points at them is swapped in, and never again. Every untouched row
//    and chunk is shared with the previous snapshot, so a publish
//    deep-copies the touched rows plus O(touched) chunks and a
//    directory of n/8 pointers per shard, instead of O(n x dims), and
//    allocates once.
//  * A head keeps its whole block alive, so an idle shard's head also
//    keeps the superseded snapshots that shared its publish. Between
//    compactions their chains are suffixes of the current ones (pages
//    only grow), which costs no row memory; a publish that compacts a
//    shard moves every head into its own block (idle shards keep their
//    snapshot versions), so a compacted chain is freed once its last
//    reader lets go.
//  * Compaction is scheduled by cost, off the common publish path: a
//    shard is re-packed into one contiguous link only once the delta
//    rows appended since its base reach Config::compact_cost_factor x
//    its rows, so the O(shard) repack is amortized across that much
//    delta volume, and a shard's chain holds at most about (1 + f) x
//    its rows of row data. Config::max_delta_chain, a count of delta
//    publishes since the base, is the backstop when the cost trigger
//    is off. A compaction also makes query engines rebuild the shard
//    from scratch (IVF re-clusters), so it should be rare.
//
// Consistency contract:
//  * Readers acquire a shard head with one atomic load and never block
//    publishers. A ShardSnapshot is internally consistent: every row
//    reflects a state the shard actually passed through at
//    `ShardSnapshot::version`, and no row is ever torn.
//  * Store versions are strictly monotonic; a shard's head version only
//    moves forward. A multi-shard view() taken while a publisher runs
//    may mix shard versions (shard A at v, shard B at v+1) — each shard
//    is still internally consistent, and per-shard versions never go
//    backwards. Queries that fan out across shards therefore serve
//    bounded-staleness reads, which is the intended serving semantic.
//
// Implements SnapshotSink: on_delta(touched, tombstoned) republishes
// O(touched) rows via EmbeddingModel::extract_rows and flips the
// tombstoned nodes' dead bits, in the same per-shard snapshots and one
// store version; on_snapshot (and the first publication into an empty
// store) publishes the full matrix.
// Snapshots also round-trip through the binary checkpoint format
// (embedding/checkpoint.hpp), so a store can be warmed from a file
// written by any backend — including the FPGA accelerator, whose Q8.24
// weights dequantize on save.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "embedding/trainer.hpp"
#include "linalg/matrix.hpp"

namespace seqge::serve {

/// How the node range maps onto shards: shard s owns the contiguous
/// local rows [begin(s), begin(s) + rows(s)). Fixed by the first
/// publish; later publishes must keep the same shape.
struct ShardLayout {
  std::size_t num_shards = 1;
  std::size_t num_rows = 0;
  std::size_t rows_per_shard = 0;  ///< ceil(num_rows / num_shards)

  [[nodiscard]] std::size_t shard_of(NodeId row) const noexcept {
    return static_cast<std::size_t>(row) / rows_per_shard;
  }
  [[nodiscard]] std::size_t begin(std::size_t s) const noexcept {
    return std::min(num_rows, s * rows_per_shard);
  }
  [[nodiscard]] std::size_t rows(std::size_t s) const noexcept {
    return std::min(num_rows, (s + 1) * rows_per_shard) - begin(s);
  }
};

/// One immutable published version of one shard. Rows are exposed
/// through a two-level pointer table, so a delta publish shares every
/// untouched row with its predecessor and copies only the directory and
/// the chunks of kChunkRows row pointers that hold a touched row; the
/// `buffers` chain keeps every referenced buffer and chunk alive for as
/// long as any reader holds the snapshot. The directory and the dead
/// bits live in the allocation of the publish that made the snapshot
/// (beside the other shards' snapshots of that publish), so a snapshot
/// is built by the store only and cannot be copied.
struct ShardSnapshot {
  static constexpr std::size_t kChunkRows = 8;
  /// Row pointers of kChunkRows consecutive local rows (one cache line).
  /// Immutable once published; entries past num_rows() are null.
  using Chunk = std::array<const float*, kChunkRows>;

  /// One link of a shard's chain, holding the older links: a page of
  /// the rows and chunks that delta publishes appended, or, at the end
  /// of the chain, the base and all of its chunks. A link is shared by
  /// every later snapshot of its shard until a compaction starts a new
  /// chain; freeing a chain is a loop, not one nested destructor call
  /// per link.
  struct BufferLink {
    /// The base matrix of a full publish (shared by every shard), held
    /// by the chain's last link only; null otherwise.
    std::shared_ptr<const MatrixF> rows;
    /// Mutable only so the destructor can unlink the older links it
    /// owns alone.
    mutable std::shared_ptr<const BufferLink> prev;
    /// The link's own allocation, holding chunks and rows. The store
    /// appends to its unpublished end; a reader only ever reaches bytes
    /// written before the head that points there was swapped in.
    std::span<const std::byte> storage;
    ~BufferLink();
  };

  std::uint64_t version = 0;       ///< store version of this shard's last change
  std::uint64_t base_version = 0;  ///< store version of the last rebase
                                   ///< (full publish or compaction)
  std::uint32_t row_begin = 0;     ///< global id of local row 0
  std::uint32_t dims = 0;
  std::size_t row_count = 0;

  /// Chunk c holds the pointers of local rows [c * kChunkRows, ...). Every
  /// chunk, and every row it points to, lies in a link of `buffers`.
  /// Which rows changed between two snapshots of one lineage is a
  /// pointer comparison, chunk first: stored chunks and rows are never
  /// rewritten, and while the older snapshot is alive none it references
  /// is freed, so a rewritten row or chunk always has a new address
  /// (ShardedQueryEngine's incremental refresh relies on this).
  std::span<const Chunk* const> chunks;
  /// Newest link first; the last one holds the base.
  std::shared_ptr<const BufferLink> buffers;
  std::size_t chain_length = 0;  ///< delta publishes stacked on the base

  /// Delta rows appended onto this shard since `base_version`, counted
  /// with multiplicity (a row re-published twice counts twice) — the
  /// cost-model input for compaction scheduling: once this reaches
  /// compact_cost_factor x shard rows, the O(shard) repack is amortized
  /// by the delta volume it absorbs.
  std::uint64_t delta_rows_since_base = 0;

  /// Tombstone bits, one per local row: a set bit marks a row whose
  /// node was deleted from the graph — query engines must skip it. Row
  /// data stays in place (and in checkpoints): only visibility changes,
  /// so a later revive is again a bit flip.
  std::span<const std::uint64_t> dead;
  std::size_t dead_rows = 0;  ///< set bits in `dead`

  ShardSnapshot() = default;
  ShardSnapshot(const ShardSnapshot&) = delete;
  ShardSnapshot& operator=(const ShardSnapshot&) = delete;

  [[nodiscard]] std::size_t num_rows() const noexcept { return row_count; }
  /// Where local row `local`'s data lies.
  [[nodiscard]] const float* row_ptr(std::size_t local) const noexcept {
    return (*chunks[local / kChunkRows])[local % kChunkRows];
  }
  [[nodiscard]] std::span<const float> row(std::size_t local) const noexcept {
    return {row_ptr(local), dims};
  }
  [[nodiscard]] bool tombstoned(std::size_t local) const noexcept {
    return dead_rows != 0 && ((dead[local >> 6] >> (local & 63)) & 1) != 0;
  }
  /// Delta publishes stacked on the base (compaction backstop input).
  [[nodiscard]] std::size_t delta_chain() const noexcept {
    return chain_length;
  }
};

class ShardedEmbeddingStore final : public SnapshotSink {
 public:
  struct Config {
    std::size_t num_shards = 1;
    /// Backstop: compact a shard once it has taken this many delta
    /// publishes since its base, whatever their size. High by default —
    /// the cost trigger below is meant to fire long before this does.
    std::size_t max_delta_chain = 512;
    /// Cost trigger: compact once the delta rows appended since the
    /// shard's base reach this multiple f of the shard's rows — the
    /// O(shard) repack is then amortized across at least that much
    /// published delta volume, and a shard holds at most (1 + f) x its
    /// rows of row buffers. Each compaction also makes the next query
    /// engine rebuild the shard from scratch; at the 250 us publish
    /// deadline on the edge-to-answer benchmark (perfbench/, 4 shards
    /// of 500 rows), 4 gives 0.022 compactions per publish on the 6400
    /// edges/s stream (0.067 at 1 ms: about one per 100 edges either
    /// way) and 0.011 on the 640 edges/s ones. <= 0 disables the cost
    /// trigger (the chain backstop still applies).
    double compact_cost_factor = 4.0;
  };

  explicit ShardedEmbeddingStore(Config cfg);
  explicit ShardedEmbeddingStore(std::size_t num_shards = 1)
      : ShardedEmbeddingStore(Config{num_shards}) {}
  ShardedEmbeddingStore(const ShardedEmbeddingStore&) = delete;
  ShardedEmbeddingStore& operator=(const ShardedEmbeddingStore&) = delete;

  // --- publishing ---------------------------------------------------------
  /// Full publish: takes ownership of the matrix, rebases every shard
  /// onto it (one shared buffer, no further copying). The first publish
  /// fixes the layout; later publishes must match it. Publishers are
  /// serialized; readers never block. Returns the assigned version.
  std::uint64_t publish(MatrixF embedding, std::uint64_t walks_trained = 0,
                        std::string producer = {});

  /// Delta publish: row `touched[i]` takes the value rows.row(i) and is
  /// served again if it was tombstoned; every node in `tombstoned` is
  /// hidden from scans; every other row is carried over by reference,
  /// its dead bit included. `touched` and `tombstoned` must be strictly
  /// ascending and in range (a node in both ends up dead), with
  /// rows.rows() == touched.size() and rows.cols() == dims. Only shards
  /// containing touched rows or tombstoned nodes get a new snapshot
  /// (other shard heads are not even swapped, unless the publish
  /// compacts a shard: see the design notes above), and the whole call
  /// is one store version. Cost — and rows_copied() growth — is
  /// O(touched x dims) plus any amortized compaction; a tombstone copies
  /// no row, so an empty `touched` with an empty `rows` is a bitmap-only
  /// publish. Throws std::logic_error before the first full publish.
  std::uint64_t publish_delta(std::span<const NodeId> touched,
                              const MatrixF& rows,
                              std::uint64_t walks_trained = 0,
                              std::string producer = {},
                              std::span<const NodeId> tombstoned = {});

  // --- SnapshotSink -------------------------------------------------------
  /// Full republish via model.extract_embedding().
  void on_snapshot(const EmbeddingModel& model,
                   const TrainStats& stats) override;
  /// publish_delta(touched, model.extract_rows(touched), tombstoned) —
  /// O(touched + tombstoned), one version, each shard's rows extracted
  /// straight into its page (no staging copy). Falls back to a full
  /// publish when the store is empty (no base yet) or the delta covers
  /// half the rows or more (at that size a full rebase is cheaper and
  /// resets every shard's delta chain); the fallback keeps the dead
  /// bits of rows outside `touched_rows` and applies `tombstoned` in
  /// the same version.
  void on_delta(const EmbeddingModel& model, const TrainStats& stats,
                std::span<const NodeId> touched_rows,
                std::span<const NodeId> tombstoned) override;

  // --- reads (lock-free) --------------------------------------------------
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return cfg_.num_shards;
  }
  /// Rows across all shards (0 before the first publish).
  [[nodiscard]] std::size_t num_rows() const noexcept {
    return num_rows_.load(std::memory_order_acquire);
  }
  /// The node-range partitioning — the single source of truth for
  /// node -> shard mapping (ShardedQueryEngine routes through it).
  /// Call only after observing version() > 0 (the acquire there pairs
  /// with the first publish's release, making layout_ visible); fixed
  /// for the store's lifetime after the first publish.
  [[nodiscard]] ShardLayout layout() const noexcept {
    const std::size_t rows = num_rows();  // acquire first
    ShardLayout copy = layout_;
    copy.num_rows = rows;
    return copy;
  }
  /// Head snapshot of one shard (nullptr before the first publish). One
  /// atomic load; the caller's reference keeps it alive.
  [[nodiscard]] std::shared_ptr<const ShardSnapshot> shard(
      std::size_t s) const noexcept {
    return heads_[s].load(std::memory_order_acquire);
  }
  /// All shard heads (empty before the first publish). Taken shard by
  /// shard, so versions may skew across shards under concurrent
  /// publishing — see the consistency contract above.
  [[nodiscard]] std::vector<std::shared_ptr<const ShardSnapshot>> view()
      const;

  /// Latest assigned store version (strictly monotonic, 0 = empty).
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }
  /// Producer progress reported with the latest publish.
  [[nodiscard]] std::uint64_t walks_trained() const noexcept {
    return walks_trained_.load(std::memory_order_acquire);
  }
  /// Producer name reported with the latest publish (for observability).
  [[nodiscard]] std::string producer() const;
  /// Block until version() >= v; false on timeout.
  bool wait_for_version(std::uint64_t v,
                        std::chrono::milliseconds timeout) const;

  // --- instrumentation (cumulative, relaxed reads) ------------------------
  /// Embedding rows deep-copied by publishes: the full matrix per
  /// publish()/on_snapshot, the touched rows per delta, plus shard rows
  /// re-packed by compactions. The publish-cost metric the delta
  /// regression test and bench_serving gate on.
  [[nodiscard]] std::uint64_t rows_copied() const noexcept {
    return rows_copied_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t shards_swapped() const noexcept {
    return shards_swapped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t full_publishes() const noexcept {
    return full_publishes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t delta_publishes() const noexcept {
    return delta_publishes_.load(std::memory_order_relaxed);
  }
  /// Rows currently tombstoned across all shards (after the latest
  /// delta or full publish).
  [[nodiscard]] std::uint64_t tombstoned_rows() const noexcept {
    return tombstoned_rows_.load(std::memory_order_relaxed);
  }

  // --- checkpoint persistence ---------------------------------------------
  /// Contiguous copy of the current per-shard heads. Intended for
  /// checkpointing a quiescent store; under concurrent publishing the
  /// copy may mix shard versions (each shard internally consistent).
  [[nodiscard]] MatrixF materialize() const;
  /// Write materialize() in the binary checkpoint format
  /// (embedding/checkpoint.hpp) — loadable by any store (whatever its
  /// shard count), the CPU models, and the FPGA accelerator alike.
  /// Throws if empty.
  void save(std::ostream& os) const;
  /// Crash-safe: written through write_file_atomically, so a failed
  /// save (an empty store included) leaves an existing file untouched.
  void save(const std::string& path) const;
  /// Read a checkpoint and publish it as the next (full) version.
  std::uint64_t load(std::istream& is, std::string producer = "checkpoint");
  std::uint64_t load(const std::string& path);

 private:
  using Head = std::atomic<std::shared_ptr<const ShardSnapshot>>;

  /// Full publish behind publish() and the on_delta fallback: rebases
  /// every shard onto `embedding`. Without keep_dead every dead bit is
  /// cleared; with it, each shard keeps its bits, then `revive` clears
  /// and `kill` sets theirs.
  std::uint64_t rebase(MatrixF embedding, bool keep_dead,
                       std::span<const NodeId> revive,
                       std::span<const NodeId> kill,
                       std::uint64_t walks_trained, std::string producer);
  /// Clear the dead bits of `revive` (a republished row is live), then
  /// set those of `kill` (local rows, ascending), in `snap` and its
  /// writable `dead` words. Returns the change in `snap`'s dead rows,
  /// for add_tombstoned once the publish is built.
  static std::int64_t update_dead(ShardSnapshot& snap, std::uint64_t* dead,
                                  std::span<const std::uint32_t> revive,
                                  std::span<const std::uint32_t> kill);
  /// Move the global tombstone count by `net`.
  void add_tombstoned(std::int64_t net);
  /// The delta publish behind publish_delta and on_delta, with
  /// publish_mutex_ held. extract(first, count, out) writes the rows of
  /// touched[first, first + count), `dims` floats each, contiguously
  /// from `out`, which lies in the page the rows are served from: each
  /// row lands once.
  template <typename RowSource>
  std::uint64_t publish_delta_locked(std::span<const NodeId> touched,
                                     std::size_t dims, RowSource&& extract,
                                     std::uint64_t walks_trained,
                                     std::string producer,
                                     std::span<const NodeId> tombstoned);
  /// Make `snap` shard s's head, for readers and for the next publish.
  void swap_head(std::size_t s, std::shared_ptr<const ShardSnapshot> snap);

  /// The unwritten end of a shard's newest link, where its next delta
  /// is appended; empty when that link takes no more (a full publish's
  /// shared base). Written by the publisher only.
  struct FreeTail {
    std::byte* next = nullptr;
    std::byte* end = nullptr;
  };

  /// One shard a delta publish gives a new snapshot: its runs of the
  /// publish's touched ids and tombstoned nodes (both empty for an idle
  /// shard moved along by a compacting publish), its free tail after
  /// the publish appended to it, and whether it compacts.
  struct ShardEdit {
    std::size_t shard = 0;
    std::size_t touched_begin = 0, touched_end = 0;
    std::size_t killed_begin = 0, killed_end = 0;
    FreeTail tail;
    bool compact = false;
    [[nodiscard]] bool idle() const noexcept {
      return touched_begin == touched_end && killed_begin == killed_end;
    }
  };

  Config cfg_;
  ShardLayout layout_;  // written once under publish_mutex_ (first publish)
  std::unique_ptr<Head[]> heads_;
  // The publisher's own copy of the heads, guarded by publish_mutex_:
  // reading an atomic shared_ptr takes its lock bit, reading these does
  // not. Empty before the first publish.
  std::vector<std::shared_ptr<const ShardSnapshot>> current_;
  std::vector<FreeTail> tails_;  // guarded by publish_mutex_
  // A publish's id lists as local rows, and the shards it changes,
  // reused.
  std::vector<std::uint32_t> local_scratch_, kill_scratch_;
  std::vector<ShardEdit> edits_;
  // Read by every request (version()) and engine build (num_rows()):
  // a cache line of their own, so the publisher's other fields do not
  // bounce with it.
  alignas(64) std::atomic<std::size_t> num_rows_{0};
  std::atomic<std::uint64_t> version_{0};
  alignas(64) std::atomic<std::uint64_t> walks_trained_{0};
  std::string producer_;  // guarded by publish_mutex_

  std::atomic<std::uint64_t> rows_copied_{0};
  std::atomic<std::uint64_t> shards_swapped_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> full_publishes_{0};
  std::atomic<std::uint64_t> delta_publishes_{0};
  std::atomic<std::uint64_t> tombstoned_rows_{0};

  // Serializes publishers and backs wait_for_version; readers never
  // take this mutex.
  mutable std::mutex publish_mutex_;
  mutable std::condition_variable version_cv_;
};

}  // namespace seqge::serve
