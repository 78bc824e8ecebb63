// Dynamic-graph deletion bench: quantifies the two claims of the
// unlearning path.
//
// Phase 1 — stream: replay a Barabasi-Albert edge stream through a
// SlidingWindowGraph + StreamTrainer (random-alpha OS-ELM — the form
// whose covariance downdate stays applicable on hub-heavy streams),
// then delete --delete-frac of the live edges. Every deletion unlearns
// the walks the edge trained (exact rank-1 downdate where the
// conditioning guard allows; windowed re-train otherwise), and flushes
// to a ShardedEmbeddingStore every --deletions-per-publish deletions.
//
// Phase 2 — fresh baseline: an identically configured model trained
// from scratch on only the surviving edges (the embedding a batch
// system would rebuild after the deletions).
//
// Phase 3 — evaluation and gates, against graph truth on the surviving
// graph (fraction of a node's true neighbors inside its embedding
// top-10, sampled nodes, the same metric for both models):
//   * recall@10(streamed) >= recall@10(fresh) - 0.02 — unlearning keeps
//     the embedding as good as a from-scratch rebuild;
//   * deletion publishes copy O(touched) rows amortized — bounded by
//     the walks a deletion batch can touch times the store's
//     compaction amortization factor, never O(n) (individual flushes
//     may spike when a shard's cost-scheduled repack comes due, but
//     every repack row was paid for by a prior delta row);
//   * the store hides exactly the trainer's dead nodes, and a
//     bitmap-only publish of them copies ZERO embedding rows;
//   * the trainer's unlearning records peak at no more than
//     (unlearn_staleness_limit + 1) records of the largest size — memory
//     bounded by the staleness horizon, not by the number of live edges.
// Exit code 1 when any gate fails.
//
// --json writes BENCH_dynamic.json; --metrics-out dumps the
// observability registry (seqge_deletions_*, seqge_tombstones,
// seqge_store_tombstoned_rows).
//
//   ./bench/bench_dynamic [--tiny] [--nodes 50000] [--dims 16]
//       [--delete-frac 0.2] [--deletions-per-publish 64] [--seed 7]
//       [--json BENCH_dynamic.json] [--metrics-out metrics.json]

#include <algorithm>
#include <cmath>

#include "bench/common.hpp"
#include "graph/generators.hpp"
#include "graph/sliding_window.hpp"
#include "serve/sharded_query.hpp"
#include "serve/sharded_store.hpp"

namespace seqge::bench {
namespace {

TrainConfig stream_train_config(std::size_t dims, std::uint64_t seed) {
  TrainConfig cfg;
  cfg.dims = dims;
  cfg.seed = seed;
  cfg.walk.walk_length = 12;
  cfg.walk.window = 3;
  cfg.negative_samples = 3;
  cfg.random_alpha = true;
  return cfg;
}

/// Graph-truth recall@k: fraction of u's surviving-graph neighbors
/// found in its embedding top-k, averaged over `queries` sampled nodes
/// with degree >= 1. Both models are scored by exactly this function.
double neighbor_recall(const MatrixF& embedding, const Graph& truth,
                       std::size_t k, std::size_t queries,
                       std::uint64_t seed) {
  serve::ShardedEmbeddingStore store;
  store.publish(MatrixF(embedding));
  const serve::ShardedQueryEngine engine(store);
  Rng rng(seed);
  double sum = 0.0;
  std::size_t counted = 0;
  std::size_t attempts = 0;
  while (counted < queries && attempts < queries * 20) {
    ++attempts;
    const auto u = static_cast<NodeId>(rng.bounded(truth.num_nodes()));
    const auto nbrs = truth.neighbors(u);
    if (nbrs.empty()) continue;
    const auto hits = engine.topk(u, k);
    std::size_t found = 0;
    for (const auto& h : hits) {
      if (std::find(nbrs.begin(), nbrs.end(), h.node) != nbrs.end()) {
        ++found;
      }
    }
    sum += static_cast<double>(found) /
           static_cast<double>(std::min(k, nbrs.size()));
    ++counted;
  }
  return counted ? sum / static_cast<double>(counted) : 0.0;
}

}  // namespace
}  // namespace seqge::bench

int main(int argc, char** argv) {
  using namespace seqge;
  using namespace seqge::bench;

  std::size_t nodes = 50000, dims = 16, per_publish = 64, queries = 512;
  double delete_frac = 0.2;
  std::int64_t seed = 7;
  bool tiny = false;
  std::string json_out, metrics_out;
  ArgParser args("bench_dynamic",
                 "edge-deletion stream: unlearning accuracy vs a "
                 "from-scratch rebuild, and O(touched) publish cost");
  args.add_size("nodes", &nodes, "graph size (BA, m = 3)");
  args.add_size("dims", &dims, "embedding dimensions");
  args.add_double("delete-frac", &delete_frac,
                  "fraction of edges to delete");
  args.add_size("deletions-per-publish", &per_publish,
                "deletions between serving flushes");
  std::size_t retrain_walks = 2;
  args.add_size("retrain-walks", &retrain_walks,
                "refresh walks per surviving endpoint per deletion");
  args.add_size("queries", &queries, "recall sample size");
  args.add_int("seed", &seed, "random seed");
  args.add_flag("tiny", &tiny, "CI smoke scale (overrides sizes)");
  args.add_string("json", &json_out, "write BENCH_dynamic.json here");
  add_metrics_flag(args, &metrics_out);
  if (!args.parse(argc, argv)) return 1;
  if (tiny) {
    nodes = 2000;
    queries = 128;
    // Small enough that a flush's touched set stays under half the
    // store (past half, on_delta rebases — a full O(n) copy — and the
    // O(touched) gate would measure the rebase, not the delta path).
    per_publish = 8;
  }

  const Graph base = make_barabasi_albert(nodes, 3, 17);
  const TrainConfig tcfg =
      stream_train_config(dims, static_cast<std::uint64_t>(seed));
  std::printf("stream: %zu nodes, %zu edges, deleting %.0f%%\n",
              base.num_nodes(), base.num_edges(), 100.0 * delete_frac);

  // --- phase 1: insert everything, then delete a random subset --------
  Rng rng(tcfg.seed);
  auto streamed = make_model(ModelKind::kOselm, nodes, tcfg, rng);
  SlidingWindowGraph window(nodes);
  const serve::ShardedEmbeddingStore::Config store_cfg{8};
  serve::ShardedEmbeddingStore store(store_cfg);
  StreamConfig scfg;
  scfg.train = tcfg;
  scfg.sink = &store;  // manual flush cadence; publish_every stays 0
  scfg.retrain_walks_per_endpoint = retrain_walks;
  StreamTrainer trainer(*streamed, window, scfg, rng);

  std::vector<Edge> edges;
  edges.reserve(base.num_edges());
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    for (NodeId v : base.neighbors(u)) {
      if (v > u) edges.push_back({u, v, base.edge_weight(u, v)});
    }
  }
  // Deletion mixture: half the budget "flaps" — an edge retracted a few
  // inserts after it appeared, inside the staleness horizon, so the
  // exact covariance downdate applies; the other half is deleted long
  // after training (stale) and takes the fallback re-train path.
  const auto to_delete =
      static_cast<std::size_t>(delete_frac *
                               static_cast<double>(edges.size()));
  const std::size_t flap_budget = to_delete / 2;
  const std::size_t flap_stride =
      flap_budget ? std::max<std::size_t>(2, edges.size() / flap_budget) : 0;

  Rng del_rng(tcfg.seed + 1);
  WallTimer insert_timer;
  std::uint64_t stamp = 0;
  std::size_t flapped = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    trainer.insert(e.src, e.dst, e.weight, ++stamp);
    if (flap_stride != 0 && i % flap_stride == flap_stride - 1 &&
        flapped < flap_budget && i >= 8) {
      const Edge& old = edges[i - 1 - del_rng.bounded(8)];
      if (trainer.remove(old.src, old.dst)) ++flapped;
    }
  }
  trainer.flush();  // one full publish; stale deletions flush as deltas
  const double insert_s = insert_timer.seconds();

  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[del_rng.bounded(i)]);
  }
  std::uint64_t publish_rows_max = 0, publish_rows_total = 0;
  std::size_t deletion_publishes = 0, stale_deleted = 0;
  WallTimer delete_timer;
  std::uint64_t copied_mark = store.rows_copied();
  for (std::size_t i = 0;
       i < edges.size() && stale_deleted + flapped < to_delete; ++i) {
    if (!trainer.remove(edges[i].src, edges[i].dst)) continue;
    ++stale_deleted;
    if (stale_deleted % per_publish == 0 ||
        stale_deleted + flapped == to_delete) {
      trainer.flush();
      const std::uint64_t copied = store.rows_copied() - copied_mark;
      copied_mark = store.rows_copied();
      publish_rows_total += copied;
      publish_rows_max = std::max(publish_rows_max, copied);
      ++deletion_publishes;
    }
  }
  const double delete_s = delete_timer.seconds();
  const StreamStats& st = trainer.stats();

  // Record slots and buffers never shrink, so the memory held now is
  // the stream's peak.
  const StreamTrainer::RecordMemory records = trainer.record_memory();

  // The flushed store hides exactly the trainer's dead nodes; a
  // bitmap-only publish of them (already hidden: an idempotent edit) is
  // a pure visibility snapshot, one version, zero row copies.
  trainer.flush();
  std::vector<NodeId> dead;
  for (NodeId v = 0; v < nodes; ++v) {
    if (trainer.dead_nodes().count(v) != 0) dead.push_back(v);
  }
  const bool dead_match = store.tombstoned_rows() == dead.size();
  const std::uint64_t copied_before_tomb = store.rows_copied();
  const std::uint64_t version_before_tomb = store.version();
  store.publish_delta({}, MatrixF{}, 0, {}, dead);
  const std::uint64_t tombstone_rows_copied =
      store.rows_copied() - copied_before_tomb;
  const bool tombstone_one_version =
      store.version() == version_before_tomb + 1 &&
      store.tombstoned_rows() == dead.size();

  std::printf(
      "streamed: %zu inserted (%.1fs), %zu deleted (%.1fs); %zu walks "
      "unlearned exactly, %zu fallback re-trains, %zu nodes "
      "tombstoned\n",
      st.edges_inserted, insert_s, st.edges_deleted, delete_s,
      st.walks_unlearned, st.fallback_retrains, st.nodes_tombstoned);

  // --- phase 2: from-scratch baseline on the surviving graph ----------
  const Graph survivors = window.to_graph();
  Rng fresh_rng(tcfg.seed);
  auto fresh = make_model(ModelKind::kOselm, nodes, tcfg, fresh_rng);
  SlidingWindowGraph fresh_window(nodes);
  StreamConfig fresh_cfg;
  fresh_cfg.train = tcfg;
  StreamTrainer fresh_trainer(*fresh, fresh_window, fresh_cfg, fresh_rng);
  WallTimer fresh_timer;
  stamp = 0;
  for (NodeId u = 0; u < survivors.num_nodes(); ++u) {
    for (NodeId v : survivors.neighbors(u)) {
      if (v > u) fresh_trainer.insert(u, v, 1.0f, ++stamp);
    }
  }
  const double fresh_s = fresh_timer.seconds();
  std::printf("fresh baseline: %zu surviving edges re-trained in %.1fs\n",
              survivors.num_edges(), fresh_s);

  // --- phase 3: evaluation and gates ----------------------------------
  const double recall_streamed =
      neighbor_recall(streamed->extract_embedding(), survivors, 10,
                      queries, tcfg.seed + 2);
  const double recall_fresh =
      neighbor_recall(fresh->extract_embedding(), survivors, 10, queries,
                      tcfg.seed + 2);
  const double avg_rows =
      deletion_publishes ? static_cast<double>(publish_rows_total) /
                               static_cast<double>(deletion_publishes)
                         : 0.0;
  // O(touched) bound: per deletion, an exact unlearn touches its two
  // recorded walks (walk nodes + shared negatives each), and the
  // refresh/fallback re-train adds retrain_walks per surviving
  // endpoint — (2 + 2 * retrain_walks) walks is the ceiling. The store
  // additionally compacts a shard only once the delta volume since its
  // base reaches compact_cost_factor (f) times the shard's rows, so
  // every f published delta rows pay for at most one repacked row:
  // amortized cost <= (1 + 1/f) x the touched rows, independent of n.
  const double touched_bound =
      static_cast<double>(per_publish) *
      static_cast<double>(2 + 2 * retrain_walks) *
      static_cast<double>(tcfg.walk.walk_length + tcfg.negative_samples);
  const double amortized_bound =
      (1.0 + 1.0 / store_cfg.compact_cost_factor) * touched_bound;

  const bool recall_ok = recall_streamed >= recall_fresh - 0.02;
  const bool publish_ok = avg_rows <= amortized_bound;
  const bool tombstone_ok =
      dead_match && tombstone_one_version && tombstone_rows_copied == 0;
  const std::size_t record_bound =
      (scfg.unlearn_staleness_limit + 1) * records.largest_record_bytes;
  const bool records_ok = records.bytes <= record_bound;

  Table table({"metric", "streamed", "fresh"});
  table.add_row({"neighbor recall@10", Table::fmt(recall_streamed, 3),
                 Table::fmt(recall_fresh, 3)});
  table.add_row({"train wall (s)", Table::fmt(insert_s + delete_s, 1),
                 Table::fmt(fresh_s, 1)});
  table.print();
  std::printf(
      "deletion publishes: %zu, avg %.0f rows copied (max %llu, "
      "amortized bound %.0f, n = %zu); store hides %llu rows for %zu dead "
      "nodes; tombstone publish copied %llu rows\n",
      deletion_publishes, avg_rows,
      static_cast<unsigned long long>(publish_rows_max), amortized_bound,
      nodes, static_cast<unsigned long long>(store.tombstoned_rows()),
      dead.size(), static_cast<unsigned long long>(tombstone_rows_copied));
  std::printf("gate recall@10 >= fresh - 0.02:   %s\n",
              recall_ok ? "PASS" : "FAIL");
  std::printf("gate publish rows <= O(touched):  %s\n",
              publish_ok ? "PASS" : "FAIL");
  std::printf("gate tombstones match, 0-copy:    %s\n",
              tombstone_ok ? "PASS" : "FAIL");
  std::printf(
      "unlearning records: %zu held, peak %zu bytes (bound %zu = (limit "
      "%zu + 1) x %zu-byte record)\n",
      records.held, records.bytes, record_bound,
      scfg.unlearn_staleness_limit, records.largest_record_bytes);
  std::printf("gate record memory <= horizon:    %s\n",
              records_ok ? "PASS" : "FAIL");

  if (!json_out.empty()) {
    Json root = Json::object();
    root.set("bench", Json::str("dynamic"));
    root.set("machine", machine_json());
    Json cfg = Json::object();
    cfg.set("nodes", Json::num(nodes));
    cfg.set("dims", Json::num(dims));
    cfg.set("delete_frac", Json::num(delete_frac));
    cfg.set("deletions_per_publish", Json::num(per_publish));
    cfg.set("retrain_walks_per_endpoint", Json::num(retrain_walks));
    cfg.set("tiny", Json::boolean(tiny));
    cfg.set("seed", Json::num(static_cast<std::int64_t>(seed)));
    root.set("config", cfg);
    Json stream = Json::object();
    stream.set("edges_inserted", Json::num(st.edges_inserted));
    stream.set("edges_deleted", Json::num(st.edges_deleted));
    stream.set("walks_trained", Json::num(st.walks_trained));
    stream.set("walks_unlearned", Json::num(st.walks_unlearned));
    stream.set("fallback_retrains", Json::num(st.fallback_retrains));
    stream.set("flap_deletions", Json::num(flapped));
    stream.set("stale_deletions", Json::num(stale_deleted));
    stream.set("nodes_tombstoned", Json::num(st.nodes_tombstoned));
    stream.set("peak_record_bytes", Json::num(records.bytes));
    stream.set("insert_seconds", Json::num(insert_s));
    stream.set("delete_seconds", Json::num(delete_s));
    stream.set("fresh_seconds", Json::num(fresh_s));
    root.set("stream", stream);
    Json eval = Json::object();
    eval.set("recall_at_10_streamed", Json::num(recall_streamed));
    eval.set("recall_at_10_fresh", Json::num(recall_fresh));
    eval.set("deletion_publishes", Json::num(deletion_publishes));
    eval.set("avg_rows_copied_per_publish", Json::num(avg_rows));
    eval.set("max_rows_copied_per_publish",
             Json::num(static_cast<std::size_t>(publish_rows_max)));
    eval.set("touched_bound_rows", Json::num(touched_bound));
    eval.set("amortized_bound_rows", Json::num(amortized_bound));
    eval.set("tombstone_publish_rows_copied",
             Json::num(static_cast<std::size_t>(tombstone_rows_copied)));
    root.set("eval", eval);
    Json gates = Json::object();
    gates.set("recall_within_0_02_of_fresh", Json::boolean(recall_ok));
    gates.set("publish_cost_o_touched", Json::boolean(publish_ok));
    gates.set("tombstone_publish_zero_copy", Json::boolean(tombstone_ok));
    root.set("gates", gates);
    if (!write_json_file(json_out, root)) return 1;
  }
  if (!dump_metrics(metrics_out)) return 1;
  return (recall_ok && publish_ok && tombstone_ok && records_ok) ? 0 : 1;
}
