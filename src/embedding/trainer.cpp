#include "embedding/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "embedding/sparse_delta.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/bounded_queue.hpp"
#include "walk/corpus.hpp"
#include "walk/node2vec_walker.hpp"
#include "walk/walk_batch.hpp"

namespace seqge {

namespace {

/// Registry mirrors of the TrainStats fields, so one metrics dump
/// covers training alongside the serving-side counters. TrainStats
/// stays the per-run return value; these accumulate process-wide.
struct TrainMetrics {
  obs::Counter* walks;
  obs::Counter* batches;
  obs::Counter* contexts;
  obs::Counter* snapshots_published;
};

TrainMetrics& train_metrics() {
  static TrainMetrics m{
      obs::Registry::global().counter("seqge_train_walks_total", {},
                                      "Walks trained"),
      obs::Registry::global().counter("seqge_train_batches_total", {},
                                      "Walk batches trained"),
      obs::Registry::global().counter("seqge_train_contexts_total", {},
                                      "Context pairs trained"),
      obs::Registry::global().counter("seqge_train_snapshots_published_total",
                                      {}, "Full/delta publications to the sink"),
  };
  return m;
}

/// Count one trained batch in `stats` and in the registry mirrors.
/// Every training site goes through this, so the two always agree.
void account_batch(TrainStats& stats, const WalkBatch& batch,
                   std::size_t window) {
  const std::size_t contexts = batch.total_contexts(window);
  stats.num_walks += batch.num_walks();
  stats.num_contexts += contexts;
  ++stats.num_batches;
  TrainMetrics& tm = train_metrics();
  tm.walks->add(batch.num_walks());
  tm.contexts->add(contexts);
  tm.batches->add();
}

/// Registry mirrors of the StreamStats deletion-side fields, plus the
/// number of unlearning records held.
struct DeletionMetrics {
  obs::Counter* edges;
  obs::Counter* unlearn_walks;
  obs::Counter* fallback_retrains;
  obs::Counter* tombstones;
  obs::Gauge* records;
};

DeletionMetrics& deletion_metrics() {
  static DeletionMetrics m{
      obs::Registry::global().counter("seqge_deletions_edges_total", {},
                                      "Edges deleted or expired"),
      obs::Registry::global().counter(
          "seqge_deletions_unlearn_walks_total", {},
          "Walks reversed exactly via covariance downdating"),
      obs::Registry::global().counter(
          "seqge_deletions_fallback_retrains_total", {},
          "Deletions that fell back to approximate re-training"),
      obs::Registry::global().counter(
          "seqge_tombstones_total", {},
          "Nodes tombstoned (isolated by deletions)"),
      obs::Registry::global().gauge(
          "seqge_stream_unlearn_records", {},
          "Insertion records held for exact unlearning"),
  };
  return m;
}

/// Routes cadence publications to the configured SnapshotSink, tracking
/// the rows training may have touched since the last publication so the
/// sink can be handed a delta (on_delta) instead of being forced to
/// copy the full embedding. The touched set is a sound superset for
/// every built-in backend: a trained walk only writes embedding rows of
/// its own nodes and its negative samples, so when the negatives are
/// pre-packed (kPerWalk pipeline packing) the union of walk nodes and
/// packed negatives bounds every write. When a walk's negatives are
/// drawn inside the model (kPerContext, or kPerWalk without packing)
/// the set is unknowable here and the dispatcher falls back to a full
/// on_snapshot for that publication.
class SnapshotDispatcher {
 public:
  SnapshotDispatcher(SnapshotSink* sink, std::size_t num_rows,
                     std::size_t ns)
      : sink_(sink), ns_(ns), dirty_(sink != nullptr ? num_rows : 0) {}

  [[nodiscard]] bool active() const noexcept { return sink_ != nullptr; }

  /// Record walk i of `batch` (call after truncation, for walks that
  /// actually trained).
  void note_walk(const WalkBatch& batch, std::size_t i) {
    if (sink_ == nullptr) return;
    const auto walk = batch.walk(i);
    if (walk.empty()) return;
    dirty_.mark_all(walk);
    if (batch.has_negatives(i)) {
      dirty_.mark_all(batch.negatives(i));
    } else if (ns_ > 0) {
      // The model draws its own negatives; their rows are unknown here.
      full_required_ = true;
    }
  }

  /// Publish to the sink (cadence or final). Delta when the touched set
  /// is bounded, full snapshot otherwise; resets the tracking either
  /// way.
  void publish(const EmbeddingModel& model, const TrainStats& stats) {
    if (sink_ == nullptr) return;
    OBS_SPAN("publish");
    train_metrics().snapshots_published->add();
    if (full_required_) {
      sink_->on_snapshot(model, stats);
    } else {
      sink_->on_delta(model, stats, dirty_.sorted());
    }
    dirty_.clear();
    full_required_ = false;
  }

 private:
  SnapshotSink* sink_;
  std::size_t ns_;
  DirtyRowSet dirty_;
  bool full_required_ = false;
};

/// Append one walk to a batch: pre-sample the shared negative set from
/// the walk's own seed stream when the mode calls for it (the PS side's
/// pre-sampling in Fig. 4), otherwise let the model draw from
/// Rng(train_seed) itself. Every packing site must go through this so
/// the pipeline's determinism contract lives in exactly one place.
void pack_walk(WalkBatch& batch, std::span<const NodeId> walk,
               std::uint64_t train_seed, NegativeMode mode, std::size_t ns,
               const NegativeSampler& sampler,
               std::vector<NodeId>& neg_scratch) {
  if (mode == NegativeMode::kPerWalk && !walk.empty()) {
    Rng nrng(train_seed);
    sampler.sample_batch(nrng, ns, walk[0], neg_scratch);
    batch.add_walk(walk, neg_scratch, train_seed);
  } else {
    batch.add_walk(walk, {}, train_seed);
  }
}

/// Deterministic batch factory over a generated corpus: batch `b` of
/// epoch `e` packs walks [b*B, b*B+B) with training seeds derived from
/// (base_seed, epoch, walk id). build() is const w.r.t. shared state,
/// so any number of producer threads can build disjoint batches
/// concurrently.
struct BatchSource {
  const WalkCorpus& corpus;
  const NegativeSampler& sampler;
  std::size_t window;
  std::size_t ns;
  NegativeMode mode;
  std::uint64_t base_seed;
  std::size_t batch_walks;
  std::size_t batches_per_epoch;

  void build(std::size_t global_index, WalkBatch& batch,
             std::vector<NodeId>& neg_scratch) const {
    const std::size_t epoch = global_index / batches_per_epoch;
    const std::size_t b = global_index % batches_per_epoch;
    batch.clear();
    batch.index = global_index;
    const std::size_t lo = b * batch_walks;
    const std::size_t hi = std::min(corpus.walks.size(), lo + batch_walks);
    for (std::size_t w = lo; w < hi; ++w) {
      const std::uint64_t tseed =
          derive_seed(base_seed, kTrainSeedStream + epoch, w);
      pack_walk(batch, corpus.walks[w], tseed, mode, ns, sampler,
                neg_scratch);
    }
  }
};

/// Run `total_batches` batches from `src` through the model. With
/// pipe.walker_threads == 0 everything happens inline on the calling
/// thread; otherwise producers build batches into a bounded queue and
/// the calling thread consumes them strictly in index order (a small
/// reorder buffer absorbs out-of-order arrival), which is what makes
/// the two paths bit-identical. Honors pipe.max_walks as an early-stop
/// budget: the final batch is truncated, the queue closed, and all
/// producers joined before returning.
void run_batched(EmbeddingModel& model, const BatchSource& src,
                 std::size_t total_batches, const PipelineConfig& pipe,
                 TrainStats& stats, SnapshotDispatcher& snapshots) {
  const std::size_t budget = pipe.max_walks;

  // Train one batch; returns false once the walk budget is exhausted.
  auto train_one = [&](WalkBatch& batch) -> bool {
    if (budget != 0) {
      if (stats.num_walks >= budget) return false;
      batch.truncate(budget - stats.num_walks);
    }
    if (!batch.empty()) {
      {
        OBS_SPAN("train_batch");
        stats.last_loss = model.train_batch(batch, src.window, src.sampler,
                                            src.ns, src.mode);
      }
      for (std::size_t i = 0; i < batch.num_walks(); ++i) {
        snapshots.note_walk(batch, i);
      }
      account_batch(stats, batch, src.window);
      // Publish cadence: on the consumer thread, at a batch boundary,
      // so the sink sees a fully committed model state.
      if (pipe.snapshot_sink != nullptr && pipe.snapshot_every != 0 &&
          stats.num_batches % pipe.snapshot_every == 0) {
        snapshots.publish(model, stats);
        ++stats.snapshots_published;
      }
    }
    return budget == 0 || stats.num_walks < budget;
  };

  if (pipe.walker_threads == 0) {
    WalkBatch batch;
    std::vector<NodeId> neg_scratch;
    for (std::size_t b = 0; b < total_batches; ++b) {
      src.build(b, batch, neg_scratch);
      if (!train_one(batch)) break;
    }
    return;
  }

  BoundedQueue<WalkBatch> queue(pipe.queue_capacity);
  std::atomic<std::size_t> next_index{0};
  std::vector<std::thread> producers;
  producers.reserve(pipe.walker_threads);

  // Production lookahead window. The queue alone cannot bound memory:
  // the consumer pops out-of-order arrivals into its reorder buffer
  // (freeing queue slots), so if the producer holding the next-needed
  // index stalls, the others could otherwise run arbitrarily far
  // ahead. Producers therefore wait before *claiming* an index more
  // than `lookahead` batches past the last trained one, which bounds
  // queue + reorder buffer + in-build batches combined.
  const std::size_t lookahead =
      pipe.queue_capacity + pipe.walker_threads;
  std::mutex window_mutex;
  std::condition_variable window_cv;
  std::size_t trained = 0;  // guarded by window_mutex
  bool stopping = false;    // guarded by window_mutex

  // Stop + close + drain + join on every exit path — including an
  // exception thrown by a backend's train_batch — so producers never
  // outlive the queue and the std::threads are always joined before
  // unwinding.
  struct PipelineGuard {
    BoundedQueue<WalkBatch>& queue;
    std::vector<std::thread>& producers;
    std::mutex& window_mutex;
    std::condition_variable& window_cv;
    bool& stopping;
    ~PipelineGuard() {
      {
        std::lock_guard lock(window_mutex);
        stopping = true;
      }
      window_cv.notify_all();
      queue.close();
      while (queue.pop().has_value()) {}  // drain in-flight batches
      for (auto& th : producers) {
        if (th.joinable()) th.join();
      }
    }
  } guard{queue, producers, window_mutex, window_cv, stopping};

  for (std::size_t t = 0; t < pipe.walker_threads; ++t) {
    producers.emplace_back([&] {
      std::vector<NodeId> neg_scratch;
      for (;;) {
        const std::size_t b = next_index.fetch_add(1);
        if (b >= total_batches) break;
        {
          std::unique_lock lock(window_mutex);
          window_cv.wait(lock, [&] {
            return stopping || b <= trained + lookahead;
          });
          if (stopping) break;
        }
        WalkBatch batch;
        src.build(b, batch, neg_scratch);
        if (!queue.push(std::move(batch))) break;  // closed: early stop
      }
    });
  }

  // Consumer: train in batch-index order; a small reorder buffer
  // absorbs out-of-order arrivals (bounded by the lookahead window).
  std::map<std::size_t, WalkBatch> pending;
  std::size_t next_to_train = 0;
  bool keep_going = true;
  while (keep_going && next_to_train < total_batches) {
    std::optional<WalkBatch> item;
    {
      // Consumer-side stall: how long training waits for producers.
      OBS_SPAN("queue_wait");
      item = queue.pop();
    }
    if (!item) break;
    pending.emplace(item->index, std::move(*item));
    for (auto it = pending.find(next_to_train); it != pending.end();
         it = pending.find(next_to_train)) {
      keep_going = train_one(it->second);
      pending.erase(it);
      ++next_to_train;
      {
        std::lock_guard lock(window_mutex);
        trained = next_to_train;
      }
      window_cv.notify_all();
      if (!keep_going) break;
    }
  }
}

/// `run` continued by a StreamTrainer's counters: the stats one trainer
/// would report had it trained both.
TrainStats continued(TrainStats run, const TrainStats& stream) {
  run.num_walks += stream.num_walks;
  run.num_contexts += stream.num_contexts;
  run.num_batches += stream.num_batches;
  run.snapshots_published += stream.snapshots_published;
  if (stream.num_batches != 0) run.last_loss = stream.last_loss;
  return run;
}

/// Hands the insertion phase's publications to the caller's sink with
/// run-cumulative stats, so progress reported through a sink shared by
/// both phases of train_sequential keeps growing across the boundary.
class ContinuedSink final : public SnapshotSink {
 public:
  ContinuedSink(SnapshotSink& sink, const TrainStats& forest)
      : sink_(sink), forest_(forest) {}
  void on_snapshot(const EmbeddingModel& model,
                   const TrainStats& stats) override {
    sink_.on_snapshot(model, continued(forest_, stats));
  }
  void on_delta(const EmbeddingModel& model, const TrainStats& stats,
                std::span<const NodeId> touched_rows) override {
    sink_.on_delta(model, continued(forest_, stats), touched_rows);
  }
  void on_tombstone(std::span<const NodeId> nodes) override {
    sink_.on_tombstone(nodes);
  }

 private:
  SnapshotSink& sink_;
  const TrainStats& forest_;
};

}  // namespace

TrainStats train_all(EmbeddingModel& model, const Graph& graph,
                     const TrainConfig& cfg, Rng& rng,
                     const PipelineConfig& pipe) {
  cfg.validate();
  pipe.validate();
  TrainStats stats;
  const std::uint64_t base_seed = rng.next();

  // Stage 1 (PS): walk generation, fanned out over the walker threads.
  WallTimer timer;
  WalkCorpus corpus = [&] {
    OBS_SPAN("walk_gen");
    return generate_corpus_pipelined(graph, cfg.walk, cfg.walks_per_node,
                                     base_seed, pipe.walker_threads);
  }();
  stats.walk_seconds = timer.seconds();

  NegativeSampler sampler(corpus.frequency);

  // Stage 2 (PS -> PL): producers pack batches + pre-sample negatives
  // while the consumer streams them through train_batch.
  timer.reset();
  const std::size_t batches_per_epoch =
      (corpus.walks.size() + pipe.batch_walks - 1) / pipe.batch_walks;
  const BatchSource src{corpus,
                        sampler,
                        cfg.walk.window,
                        cfg.negative_samples,
                        cfg.negative_mode,
                        base_seed,
                        pipe.batch_walks,
                        batches_per_epoch};
  SnapshotDispatcher snapshots(pipe.snapshot_sink, model.num_nodes(),
                               cfg.negative_samples);
  run_batched(model, src, cfg.epochs * batches_per_epoch, pipe, stats,
              snapshots);
  stats.train_seconds = timer.seconds();
  if (snapshots.active()) {
    snapshots.publish(model, stats);
    ++stats.snapshots_published;
  }
  return stats;
}

SequentialResult train_sequential(EmbeddingModel& model,
                                  const Graph& full_graph,
                                  const SequentialConfig& cfg, Rng& rng) {
  cfg.train.validate();
  cfg.pipeline.validate();
  SequentialResult result;
  const ForestSplit split = split_spanning_forest(full_graph, rng);
  result.forest_edges = split.forest_edges.size();
  result.removed_edges = split.removed_edges.size();

  TrainConfig forest_cfg = cfg.train;
  if (cfg.initial_walks_per_node != 0) {
    forest_cfg.walks_per_node = cfg.initial_walks_per_node;
  }
  forest_cfg.epochs = 1;
  const TrainStats forest = train_all(
      model, Graph::from_edges(full_graph.num_nodes(), split.forest_edges),
      forest_cfg, rng, cfg.pipeline);

  // Stream the removed edges back in over a window that never expires.
  WallTimer timer;
  SlidingWindowGraph window(full_graph.num_nodes());
  for (const Edge& e : split.forest_edges) {
    window.add_edge(e.src, e.dst, e.weight, 0);
  }
  std::optional<ContinuedSink> sink;
  if (cfg.pipeline.snapshot_sink != nullptr) {
    sink.emplace(*cfg.pipeline.snapshot_sink, forest);
  }
  StreamConfig scfg;
  scfg.train = cfg.train;
  scfg.sink = sink ? &*sink : nullptr;
  scfg.publish_every = cfg.snapshot_every_insertions;
  StreamTrainer stream(model, window, scfg, rng);
  const std::size_t limit =
      std::min(cfg.max_insertions, split.removed_edges.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const Edge& e = split.removed_edges[i];
    stream.insert(e.src, e.dst, e.weight);
  }
  stream.flush();

  result.stats = continued(forest, stream.train_stats());
  result.stats.train_seconds += timer.seconds();
  result.insertions = stream.stats().edges_inserted;
  return result;
}

// ---------------------------------------------------------------------------
// StreamTrainer
// ---------------------------------------------------------------------------

StreamTrainer::StreamTrainer(EmbeddingModel& model, SlidingWindowGraph& graph,
                             const StreamConfig& cfg, Rng& rng)
    : model_(model),
      graph_(graph),
      cfg_(cfg),
      rng_(rng.next()),
      walker_(graph, cfg.train.walk),
      dirty_(model.num_nodes()) {
  cfg_.train.validate();
  if (cfg_.retrain_walks_per_endpoint == 0) {
    cfg_.retrain_walks_per_endpoint = 1;
  }
}

std::uint64_t StreamTrainer::insert(NodeId u, NodeId v, float weight,
                                    std::uint64_t stamp) {
  const std::uint64_t token = graph_.add_edge(u, v, weight, stamp);
  if (token == SlidingWindowGraph::kInvalidToken) return token;
  ++stats_.edges_inserted;
  // A re-inserted node is live again; its rows get republished by the
  // training walks below (walk[0] is the endpoint itself).
  dead_.erase(u);
  dead_.erase(v);

  const NegativeSampler& sampler = graph_.sampler();
  // Pack straight into the record slot: the batch trained is the batch
  // kept for unlearning.
  Recorded& record = push_record(token);
  WalkBatch& batch = record.batch;
  batch.clear();
  {
    OBS_SPAN("walk_gen");
    for (NodeId endpoint : {u, v}) {
      walker_.walk_into(rng_, endpoint, walk_scratch_);
      // Always pack kPerWalk negatives: the recorded batch must carry
      // its full sample stream to be reversible on eviction.
      pack_walk(batch, walk_scratch_, rng_.next(), NegativeMode::kPerWalk,
                cfg_.train.negative_samples, sampler, neg_scratch_);
    }
  }
  train_packed(batch);
  record.trained_at = ++mutation_seq_;
  evict_aged_records();
  note_mutation();
  return token;
}

bool StreamTrainer::remove(NodeId u, NodeId v) {
  auto evicted = graph_.remove_edge(u, v);
  if (!evicted) return false;
  unlearn_edge(*evicted);
  note_mutation();
  return true;
}

std::size_t StreamTrainer::advance(std::uint64_t now) {
  expired_scratch_.clear();
  graph_.expire(now, expired_scratch_);
  for (const ExpiredEdge& e : expired_scratch_) {
    unlearn_edge(e);
    note_mutation();
  }
  return expired_scratch_.size();
}

void StreamTrainer::unlearn_edge(const ExpiredEdge& e) {
  ++stats_.edges_deleted;
  deletion_metrics().edges->add();
  const std::size_t window = cfg_.train.walk.window;
  const std::size_t ns = cfg_.train.negative_samples;

  bool unlearned = false;
  ++mutation_seq_;
  // Every held record trained within the staleness horizon
  // (evict_aged_records), so a hit is always fresh enough to downdate.
  if (Recorded* record = find_record(e.token)) {
    const WalkBatch& batch = record->batch;
    // Every row the batch may touch needs republishing whether the
    // reversal is exact, partial (guard fired mid-batch), or skipped.
    note_dirty(batch);
    {
      OBS_SPAN("untrain_batch");
      unlearned = model_.untrain_batch(batch, window, graph_.sampler(), ns,
                                       NegativeMode::kPerWalk);
    }
    if (unlearned) {
      stats_.walks_unlearned += batch.num_walks();
      deletion_metrics().unlearn_walks->add(batch.num_walks());
    }
  }

  if (!unlearned) {
    // Approximate path: no record (a pre-existing edge, or one trained
    // outside the staleness horizon), the model cannot reverse (SGD),
    // or a conditioning guard fired — re-train fresh walks from the
    // surviving endpoints so the embedding reflects the post-deletion
    // structure.
    ++stats_.fallback_retrains;
    deletion_metrics().fallback_retrains->add();
    retrain_endpoints(e);
  } else if (cfg_.refresh_after_unlearn) {
    // Downdate + retrain: the reversal subtracted the deleted walks
    // against the current weights (exact only for LIFO deletions);
    // re-anchor the surviving neighborhoods so out-of-order deletion
    // drift does not accumulate (StreamConfig::refresh_after_unlearn).
    retrain_endpoints(e);
  }

  for (NodeId endpoint : {e.src, e.dst}) {
    if (graph_.degree(endpoint) == 0 && dead_.insert(endpoint)) {
      ++stats_.nodes_tombstoned;
      deletion_metrics().tombstones->add();
    }
  }
  evict_aged_records();
}

// Train cfg_.retrain_walks_per_endpoint fresh walks from each surviving
// endpoint of a deleted edge. Not recorded: these walks belong to no
// edge.
void StreamTrainer::retrain_endpoints(const ExpiredEdge& e) {
  const NegativeSampler& sampler = graph_.sampler();
  WalkBatch& batch = retrain_batch_;
  batch.clear();
  for (NodeId endpoint : {e.src, e.dst}) {
    if (graph_.degree(endpoint) == 0) continue;
    for (std::size_t r = 0; r < cfg_.retrain_walks_per_endpoint; ++r) {
      walker_.walk_into(rng_, endpoint, walk_scratch_);
      pack_walk(batch, walk_scratch_, rng_.next(), NegativeMode::kPerWalk,
                cfg_.train.negative_samples, sampler, neg_scratch_);
    }
  }
  if (!batch.empty()) train_packed(batch);
}

// Train a batch packed with kPerWalk negatives from graph_.sampler(),
// count it, and mark its rows for the next publish.
void StreamTrainer::train_packed(const WalkBatch& batch) {
  const std::size_t window = cfg_.train.walk.window;
  {
    OBS_SPAN("train_batch");
    train_stats_.last_loss =
        model_.train_batch(batch, window, graph_.sampler(),
                           cfg_.train.negative_samples, NegativeMode::kPerWalk);
  }
  account_batch(train_stats_, batch, window);
  stats_.walks_trained += batch.num_walks();
  note_dirty(batch);
}

StreamTrainer::Recorded& StreamTrainer::record_at(std::size_t i) {
  return records_[(records_head_ + i) % records_.size()];
}

StreamTrainer::Recorded& StreamTrainer::push_record(std::uint64_t token) {
  if (records_held_ == records_.size()) {
    // Grow the ring, oldest record first. At most limit + 1 records are
    // ever held (one per insert within the horizon, plus the newest
    // before evict_aged_records runs), so growth stops there.
    const std::size_t limit = cfg_.unlearn_staleness_limit;
    const std::size_t max_held =
        limit == static_cast<std::size_t>(-1) ? limit : limit + 1;
    std::vector<Recorded> grown(std::min(
        std::max<std::size_t>(1, 2 * records_.size()), max_held));
    for (std::size_t i = 0; i < records_held_; ++i) {
      grown[i] = std::move(record_at(i));
    }
    records_ = std::move(grown);
    records_head_ = 0;
  }
  Recorded& record = record_at(records_held_++);
  record.token = token;
  return record;
}

StreamTrainer::Recorded* StreamTrainer::find_record(std::uint64_t token) {
  // Tokens rise with insertion order, so the ring is sorted by token.
  // The graph evicts each token once, so a record is never looked up
  // again after its edge's deletion; it simply ages out.
  std::size_t lo = 0, hi = records_held_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (record_at(mid).token < token) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == records_held_) return nullptr;
  Recorded& r = record_at(lo);
  return r.token == token ? &r : nullptr;
}

// Staleness horizon: a downdate reverses the recorded residuals against
// the CURRENT weights, so its error grows with how far the touched rows
// drifted since training. Recent deletions (flapping links, immediate
// retractions) reverse near-exactly; one trained half a stream ago
// would inject more noise than it removes, so a deletion more than
// unlearn_staleness_limit mutations after training takes the re-train
// path instead. A record whose next possible deletion (mutation
// mutation_seq_ + 1) is past that point can never be used: evict it.
void StreamTrainer::evict_aged_records() {
  while (records_held_ != 0 && mutation_seq_ - record_at(0).trained_at >=
                                   cfg_.unlearn_staleness_limit) {
    records_head_ = (records_head_ + 1) % records_.size();
    --records_held_;
  }
  deletion_metrics().records->set(static_cast<std::int64_t>(records_held_));
}

StreamTrainer::RecordMemory StreamTrainer::record_memory() const noexcept {
  RecordMemory m;
  m.held = records_held_;
  for (const Recorded& r : records_) {
    const std::size_t bytes = sizeof(Recorded) + r.batch.heap_bytes();
    m.bytes += bytes;
    m.largest_record_bytes = std::max(m.largest_record_bytes, bytes);
  }
  return m;
}

void StreamTrainer::note_dirty(const WalkBatch& batch) {
  for (std::size_t i = 0; i < batch.num_walks(); ++i) {
    dirty_.mark_all(batch.walk(i));
    if (batch.has_negatives(i)) dirty_.mark_all(batch.negatives(i));
  }
}

void StreamTrainer::note_mutation() {
  if (cfg_.sink != nullptr && cfg_.publish_every != 0 &&
      ++since_publish_ >= cfg_.publish_every) {
    flush();
  }
}

void StreamTrainer::flush() {
  since_publish_ = 0;
  if (cfg_.sink == nullptr) return;
  OBS_SPAN("publish");

  // Publish only surviving rows: dirty minus tombstoned. Dead rows are
  // never copied — the deletion publish cost stays O(touched), and the
  // tombstone pass itself copies nothing (copy-on-write bitmap swap in
  // the sharded store). The dead set is kept sorted, so it is handed
  // over as it is.
  const auto touched = dirty_.sorted();
  touched_scratch_.clear();
  std::set_difference(touched.begin(), touched.end(), dead_.begin(),
                      dead_.end(), std::back_inserter(touched_scratch_));

  cfg_.sink->on_delta(model_, train_stats_, touched_scratch_);
  // Replace semantics: the complete current dead set, after the delta,
  // so a full-snapshot fallback inside on_delta (which clears the
  // store's bits) is immediately re-covered.
  cfg_.sink->on_tombstone(dead_.span());
  ++stats_.publishes;
  ++train_stats_.snapshots_published;
  train_metrics().snapshots_published->add();
  dirty_.clear();
}

}  // namespace seqge
