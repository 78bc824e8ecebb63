#pragma once
// Training orchestration for the paper's two scenarios (Sec. 4.3.2),
// as a batched engine:
//
//  * "all" — the entire graph exists from the beginning: generate r
//    walks per node, build the negative-sampling distribution from walk
//    frequencies, and train every walk (train_all). Walk generation —
//    the PS side of Fig. 4 — runs on N walker threads; the calling
//    thread then packs WalkBatches (negative pre-sampling included) and
//    streams them through EmbeddingModel::train_batch in batch order, so
//    any thread count produces bit-identical embeddings.
//
//  * "seq" — start from a spanning forest with the same connected
//    components, then add the removed edges back one at a time; each
//    insertion triggers a random walk from *both* endpoints of the new
//    edge plus a sequential training step (train_sequential). It is
//    train_all on the forest followed by a StreamTrainer that inserts
//    the removed edges: one insertion loop serves both this scenario
//    and the sliding-window stream. The two endpoint walks share one
//    batch, which lets the FPGA backend burst their overlapping beta
//    rows.
//
// Determinism contract: every stochastic choice in the batched path is
// keyed by (seed derived from the caller's Rng, stream, walk id) — see
// walk/walk_batch.hpp — so runs differing only in walker_threads are
// bit-identical. Runs differing in batch_walks train the same updates in
// the same order but may report different FPGA batch timings.

#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "embedding/config.hpp"
#include "embedding/model.hpp"
#include "embedding/sparse_delta.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/sliding_window.hpp"
#include "graph/spanning_forest.hpp"
#include "util/timer.hpp"
#include "walk/node2vec_walker.hpp"
#include "walk/walk_batch.hpp"

namespace seqge {

struct TrainStats {
  double walk_seconds = 0.0;   ///< time spent generating random walks
  double train_seconds = 0.0;  ///< time spent in model updates
  std::size_t num_walks = 0;
  std::size_t num_contexts = 0;
  std::size_t num_batches = 0;          ///< train_batch calls issued
  std::size_t snapshots_published = 0;  ///< SnapshotSink invocations
  double last_loss = 0.0;
};

/// Receives embedding snapshots from a running training loop. The
/// trainers invoke on_snapshot / on_delta on the *training* thread at
/// the cadence configured in PipelineConfig / SequentialConfig /
/// StreamConfig, always at a batch boundary (never mid-update), so
/// implementations may read the model freely — typically
/// model.extract_embedding() or model.extract_rows() — and hand the
/// copy to concurrent readers. serve::ShardedEmbeddingStore (full
/// snapshots and copy-on-write deltas, at any shard count, one store
/// version per call) is the canonical implementation; anything else
/// (metrics exporters, eval probes) can plug in the same way.
///
/// Threading and re-entrancy contract:
///  * Calls are serialized: a trainer never invokes the sink from two
///    threads at once, and never re-enters it — each call returns
///    before training resumes, so a sink needs no internal locking
///    against the trainer (only against its own readers).
///  * The `model` reference is valid only for the duration of the call;
///    copy what you need (extract_embedding / extract_rows), do not
///    retain it.
///  * A sink must not call back into the training API from inside a
///    callback (the model is mid-run on the calling thread).
struct SnapshotSink {
  virtual ~SnapshotSink() = default;
  virtual void on_snapshot(const EmbeddingModel& model,
                           const TrainStats& stats) = 0;

  /// Delta variant, carrying everything that changed since the previous
  /// sink invocation of this training run:
  ///  * `touched_rows` (ascending, unique) is a superset of every live
  ///    embedding row the model may have changed — rows outside it are
  ///    bit-identical to what the sink last saw. Every touched row is
  ///    live: a row the sink holds as tombstoned is served again.
  ///  * `tombstoned` (ascending, unique, disjoint from touched_rows)
  ///    lists the nodes deleted from the graph since then — serving
  ///    layers must stop returning them. Only deletion workloads (the
  ///    StreamTrainer) fill it; a node that was deleted and re-inserted
  ///    in between is live again and appears in touched_rows instead.
  /// Both lists are O(changed): a sink tracking tombstones applies them
  /// as edits to what it last saw, never as a replacement set.
  /// The trainers emit deltas only when they can bound the touched set
  /// (NegativeMode::kPerWalk with pre-packed negatives, i.e. the
  /// standard batched path); otherwise they fall back to on_snapshot.
  /// The default forwards to on_snapshot, so full-snapshot sinks keep
  /// working unchanged.
  virtual void on_delta(const EmbeddingModel& model, const TrainStats& stats,
                        std::span<const NodeId> touched_rows,
                        std::span<const NodeId> tombstoned) {
    (void)touched_rows;
    (void)tombstoned;
    on_snapshot(model, stats);
  }
};

/// How the training pipeline is staffed and shaped. The default
/// generates walks on the calling thread — bit-identical to any
/// walker_threads with the same batch_walks.
struct PipelineConfig {
  /// Threads generating the walk corpus. 0 = on the calling thread (no
  /// threads spawned). Batches are always packed and trained on the
  /// calling thread.
  std::size_t walker_threads = 0;
  /// Walks packed per WalkBatch. Larger batches amortize the FPGA's
  /// burst DMA further but delay the pipeline's first result.
  std::size_t batch_walks = 64;
  /// Early stop: train at most this many walks (0 = no cap); the batch
  /// that reaches the cap is truncated.
  std::size_t max_walks = 0;
  /// Publish an embedding snapshot to `snapshot_sink` every this many
  /// trained batches (0 = only the final snapshot). Ignored when
  /// snapshot_sink is null.
  std::size_t snapshot_every = 0;
  /// Non-owning; must outlive the training call. When set, the trainers
  /// publish at the configured cadence plus once after the last update,
  /// so the sink always ends holding the final state. Publications go
  /// through on_delta with the touched-row set whenever the trainer can
  /// bound it (kPerWalk pre-packed negatives — the standard batched
  /// path), and through on_snapshot otherwise.
  SnapshotSink* snapshot_sink = nullptr;

  void validate() const {
    if (batch_walks == 0) {
      throw std::invalid_argument("PipelineConfig: batch_walks == 0");
    }
  }
};

/// Batch ("all") training of `model` on a static graph. `rng` seeds the
/// run (one draw); pipe.walker_threads parallelizes walk generation
/// without changing the result.
TrainStats train_all(EmbeddingModel& model, const Graph& graph,
                     const TrainConfig& cfg, Rng& rng,
                     const PipelineConfig& pipe = {});

/// The "seq" scenario. The forest phase is train_all; the insertion
/// phase is a StreamTrainer, so it follows the stream trainer's
/// policy: negatives are packed per walk (regardless of
/// train.negative_mode) from the live degree distribution, whose alias
/// table the window graph rebuilds every
/// SlidingWindowGraph::Options::sampler_rebuild_interval mutations.
struct SequentialConfig {
  TrainConfig train;
  /// Walks per node for the initial (forest) training phase. 0 = use
  /// train.walks_per_node.
  std::size_t initial_walks_per_node = 0;
  /// Cap on the number of edge insertions (for scaled-down benches);
  /// SIZE_MAX = insert every removed edge.
  std::size_t max_insertions = static_cast<std::size_t>(-1);
  /// Pipeline staffing for the forest phase (the insertion stream is
  /// inherently sequential). Its snapshot_sink (if any) is shared by
  /// both phases: the forest phase publishes at its own cadence and
  /// once at its end, the insertion phase as below, with TrainStats
  /// counting both phases.
  PipelineConfig pipeline{};
  /// Publish to pipeline.snapshot_sink every this many edge insertions
  /// during the insertion phase (0 = only the final publication).
  std::size_t snapshot_every_insertions = 0;
};

struct SequentialResult {
  TrainStats stats;
  std::size_t insertions = 0;
  std::size_t forest_edges = 0;
  std::size_t removed_edges = 0;
};

/// Dynamic ("seq") training, as three calls: split_spanning_forest,
/// train_all on the forest, then a StreamTrainer over a horizon-less
/// SlidingWindowGraph seeded with the forest that inserts each removed
/// edge, flushing every snapshot_every_insertions insertions (a count
/// only: no wall-clock deadline) and once at the end. The model keeps
/// all state across insertions — this is what exposes catastrophic
/// forgetting in the SGD baseline. `rng` is drawn by the split, once by
/// train_all and once to seed the stream trainer. stats.walk_seconds
/// covers the forest corpus only; the insertion phase's wall time goes
/// into stats.train_seconds.
SequentialResult train_sequential(EmbeddingModel& model,
                                  const Graph& full_graph,
                                  const SequentialConfig& cfg, Rng& rng);

// ---------------------------------------------------------------------------
// Streaming trainer with deletions (the sliding-window IoT scenario).
// ---------------------------------------------------------------------------

struct StreamConfig {
  TrainConfig train;
  /// Non-owning; must outlive the trainer. Receives one on_delta per
  /// flush(): the touched live rows plus the nodes isolated (degree 0
  /// after a deletion) since the previous flush.
  SnapshotSink* sink = nullptr;
  /// Auto-flush after this many graph mutations (insert/delete/expiry
  /// events), or sooner: at the first mutation that finds the previous
  /// flush at least StreamTrainer::kMaxPublishDelay old, so a slow
  /// stream publishes each mutation with itself and a fast one about
  /// once per that delay (the check runs at mutations, so the last
  /// mutations before a lull wait for the next one or flush()). 0 =
  /// flush only when flush() is called.
  std::size_t publish_every = 0;
  /// When an eviction cannot be unlearned exactly (the model returned
  /// false from untrain_batch — SGD always, OS-ELM when its conditioning
  /// guard fires), re-train this many fresh walks from each surviving
  /// endpoint instead. This is the documented *approximate* deletion
  /// path: stale structure is diluted, not subtracted.
  std::size_t retrain_walks_per_endpoint = 1;
  /// Also re-train the surviving endpoints after a *successful*
  /// downdate ("downdate + retrain"). The downdate subtracts the
  /// deleted walks' contribution against the CURRENT weights; unless
  /// the deletion is last-in-first-out, the residual it removes differs
  /// from the one training added by however much the touched rows have
  /// drifted since. The refresh walks re-anchor the neighborhood to
  /// surviving structure (see bench_dynamic's recall gate). Disable
  /// for strict LIFO streams, where the downdate alone is exact.
  bool refresh_after_unlearn = true;
  /// Downdate staleness horizon, in stream mutations (inserts +
  /// deletions) between an edge's training and its deletion. The
  /// reversal's error is proportional to how far the touched rows have
  /// drifted since training — near-zero for a recent ("flapping") edge,
  /// embedding-wrecking for one trained half a stream ago (measured in
  /// bench_dynamic: applying the downdate to uniformly stale deletions
  /// caps neighbor recall at less than half the fresh baseline's).
  /// Deletions older than this skip the downdate and take the fallback
  /// re-train path. It also bounds the trainer's memory for unlearning:
  /// only records of edges trained within the horizon are kept, at most
  /// unlearn_staleness_limit + 1 of them.
  std::size_t unlearn_staleness_limit = 256;
};

struct StreamStats {
  std::size_t edges_inserted = 0;
  std::size_t edges_deleted = 0;   ///< explicit removals + horizon expiries
  std::size_t walks_trained = 0;   ///< insert walks + fallback re-trains
  std::size_t walks_unlearned = 0; ///< walks reversed exactly via untrain
  std::size_t fallback_retrains = 0;  ///< deletions that took the approximate path
  std::size_t nodes_tombstoned = 0;   ///< nodes that became isolated (cumulative)
  std::size_t publishes = 0;          ///< flush() calls that reached the sink
};

/// Drives an EmbeddingModel from a live edge stream over a
/// SlidingWindowGraph: insertions train (two endpoint walks, exactly the
/// "seq" scenario's update), deletions and horizon expiries *unlearn* —
/// exactly via EmbeddingModel::untrain_batch when the model supports it
/// (the recorded insertion batch, with its packed negatives, is replayed
/// in reverse), approximately via surviving-neighborhood re-training
/// otherwise. Nodes left with degree 0 are tombstoned: flush() hands
/// SnapshotSink::on_delta the surviving touched rows and the nodes
/// tombstoned since the previous flush, so serving layers stop
/// returning them. The trainer's side of a flush is O(changed rows and
/// nodes), never O(n) or O(dead).
///
/// Negatives are always packed per walk (NegativeMode::kPerWalk,
/// regardless of cfg.train.negative_mode) — that is what makes the
/// recorded batches reversible without replaying model-internal RNG.
///
/// Single-threaded; determinism is keyed off one draw from the caller's
/// Rng at construction.
class StreamTrainer {
 public:
  /// `model` and `graph` are borrowed; both must outlive the trainer.
  /// The graph may be pre-populated (its existing edges are treated as
  /// already trained by the caller).
  StreamTrainer(EmbeddingModel& model, SlidingWindowGraph& graph,
                const StreamConfig& cfg, Rng& rng);

  /// Insert (u, v) at `stamp`, walk from both endpoints, train, and
  /// record the batch under the edge's token for later unlearning.
  /// Returns the token, or SlidingWindowGraph::kInvalidToken when the
  /// graph rejected the edge (duplicate / self-loop / out of range).
  std::uint64_t insert(NodeId u, NodeId v, float weight = 1.0f,
                       std::uint64_t stamp = 0);

  /// Explicitly delete a live edge and unlearn it. Returns false when
  /// the edge does not exist.
  bool remove(NodeId u, NodeId v);

  /// Advance the stream clock: evict every edge outside the window's
  /// horizon as of `now` and unlearn each. Returns the eviction count.
  std::size_t advance(std::uint64_t now);

  /// Auto-flush deadline: with publish_every != 0, the first mutation
  /// that finds the previous flush (or, before the first, the first
  /// mutation) at least this old flushes, after it is applied. Sized by
  /// measured stage cost on the edge-to-answer benchmark (perfbench/:
  /// 2000 nodes, 4 shards, a shared 4-vCPU Xeon), against 2 ms, as the
  /// median of paired changes in trainer time per edge, which may rise
  /// by at most 10% on every workload. A bare 1 ms cost +11.9% on the
  /// 6400 edges/s oselm workload (3 pairs of 8 s runs). With one store
  /// allocation per changed shard per flush and compaction at 4x a
  /// shard's rows of deltas, 1 ms (10 alternating pairs of 30 s runs)
  /// brings an edge to a wire answer in 0.35 ms on dataflow_ivf (2 ms:
  /// 1.80 ms), 0.35 ms on sgd (1.79 ms) and 0.80 ms on oselm (1.31 ms),
  /// for -3.6%, -2.2% and +2.9% trainer time per edge.
  static constexpr std::chrono::milliseconds kMaxPublishDelay{1};

  /// Publish pending changes to cfg.sink in one on_delta call: the
  /// touched live rows (dirty minus tombstoned — dead rows are never
  /// copied) and the nodes tombstoned since the previous flush that are
  /// still dead. No-op without a sink (the dirty set keeps
  /// accumulating).
  void flush();

  [[nodiscard]] const StreamStats& stats() const noexcept { return stats_; }
  /// Training counters (walks, contexts, batches, publications, last
  /// loss) of every batch this trainer trained.
  [[nodiscard]] const TrainStats& train_stats() const noexcept {
    return train_stats_;
  }
  /// Nodes currently tombstoned (isolated by deletions).
  [[nodiscard]] const NodeFlagSet& dead_nodes() const noexcept {
    return dead_;
  }

  /// Memory held for exact unlearning.
  struct RecordMemory {
    std::size_t held = 0;  ///< records held (<= unlearn_staleness_limit + 1)
    /// Bytes of the record slots and their batch buffers. Slots and
    /// buffers are reused and never shrink, so this is also the peak.
    std::size_t bytes = 0;
    std::size_t largest_record_bytes = 0;  ///< one slot + its largest batch
  };
  [[nodiscard]] RecordMemory record_memory() const noexcept;

 private:
  /// Training record of one edge trained within the staleness horizon:
  /// the exact batch to reverse, and when it trained.
  struct Recorded {
    WalkBatch batch;
    std::uint64_t token = 0;
    std::uint64_t trained_at = 0;  ///< mutation_seq_ at train time
  };

  void unlearn_edge(const ExpiredEdge& e);
  void retrain_endpoints(const ExpiredEdge& e);
  void train_packed(const WalkBatch& batch);
  void note_dirty(const WalkBatch& batch);
  void note_mutation();
  Recorded& record_at(std::size_t i);  ///< i-th oldest held record
  Recorded& push_record(std::uint64_t token);
  Recorded* find_record(std::uint64_t token);
  void evict_aged_records();

  EmbeddingModel& model_;
  SlidingWindowGraph& graph_;
  StreamConfig cfg_;
  Rng rng_;
  Node2VecWalker<SlidingWindowGraph> walker_;
  DirtyRowSet dirty_;
  /// Token-ordered FIFO ring of records, oldest first: record i lives at
  /// records_[(records_head_ + i) % records_.size()], i < records_held_.
  /// A record is evicted once it ages past the staleness horizon, and
  /// the next insert packs its batch into the freed slot, reusing the
  /// buffers, so steady-state inserts allocate nothing.
  std::vector<Recorded> records_;
  std::size_t records_head_ = 0;
  std::size_t records_held_ = 0;
  std::uint64_t mutation_seq_ = 0;
  NodeFlagSet dead_;
  /// Nodes tombstoned since the last flush (some may be live again).
  DirtyRowSet died_;
  StreamStats stats_;
  TrainStats train_stats_;
  WalkBatch retrain_batch_;
  std::vector<NodeId> walk_scratch_, neg_scratch_, touched_scratch_,
      tombstoned_scratch_;
  std::vector<ExpiredEdge> expired_scratch_;
  std::size_t since_publish_ = 0;  ///< mutations since the last flush
  std::chrono::steady_clock::time_point oldest_pending_{};
  /// Start of the last flush (before the first: the first mutation).
  std::chrono::steady_clock::time_point last_publish_{};
};

}  // namespace seqge
