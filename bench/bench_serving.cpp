// Serving bench: quantifies the two claims of the serving subsystem.
//
// Phase 1 — concurrent operation: train_all runs on its own thread
// (publishing snapshots into a one-shard store at a batch cadence)
// while client threads hammer the EmbeddingServer with top-k queries.
// Reports training throughput (walks/s) and serving QPS with
// p50/p95/p99 latency measured *during* training — the store's RCU swap
// is the only coupling between the two sides.
//
// Phase 2 — IVF vs exact brute force on the final snapshot (one
// shard): ground truth from the exact engine, then recall@k and
// per-query wall-clock
// for the IVF engine across a sweep of nprobe values. On a BA graph at
// the default 50k nodes the IVF engine beats brute force wall-clock at
// recall@10 >= 0.9.
//
// Phase 3 — sharded copy-on-write delta publishing vs full-snapshot
// publishing: replay a sequential-training touch pattern (a few hundred
// rows per publish) against (a) full-matrix publishes, which copy the
// whole matrix per publish, and (b) a --shards store taking row
// deltas. Reports ms/publish and rows copied for both and gates on the
// delta path being >= 5x cheaper — at equal answer quality: the
// sharded fan-out exact top-k must be *bit-identical* to a naive
// sorted scan of the same rows (with --scan-threads, the threaded
// fan-out), and the per-shard IVF must reach the same recall@10 bar
// (0.9) as the one-shard index. The delta replay also runs under the legacy
// chain-depth compaction policy vs the amortized-cost policy and gates
// on the cost policy copying fewer rows per publish.
//
// Phase 4 (--quant int8, the default; bfp for the block-floating-point
// layout) — float vs quantized scan on the final snapshot: the same
// IVF engine with and without the quantized candidate stage. Gates on
// the quantized engine holding recall@10 >= 0.95 against the float
// engine at the same nprobe, and (at full scale) on it being faster.
//
// Phase 5 — observability overhead: the exact-engine scan workload
// timed with the metrics registry enabled vs disabled (SEQGE_OBS
// runtime switch). Gates (at full scale) on the enabled run costing
// <= 2% over the disabled run, and (at every scale) on the disabled
// run recording nothing — the scan counter must not move.
//
// --json <path> writes every phase's metrics as BENCH_serving.json;
// --metrics-out <path> dumps the observability registry itself.
//
//   ./bench/bench_serving [--tiny] [--nodes 50000] [--model oselm]
//       [--serve-threads 4] [--queries 10000] [--top-k 10] [--shards 32]
//       [--quant int8|none] [--scan-threads N] [--json out.json]
//       [--metrics-out metrics.json]

#include <atomic>
#include <cmath>
#include <thread>

#include "bench/common.hpp"
#include "embedding/sparse_delta.hpp"
#include "obs/metrics.hpp"
#include "graph/generators.hpp"
#include "linalg/kernels.hpp"
#include "serve/embedding_server.hpp"
#include "serve/sharded_query.hpp"
#include "serve/sharded_store.hpp"
#include "util/stats.hpp"

using namespace seqge;
using namespace seqge::bench;

namespace {

/// Naive exact top-k reference over pre-normalized rows: every row
/// scored with the engine's kernel (dot<float>), then a full sort by
/// score descending, node ascending.
std::vector<serve::Neighbor> naive_topk(const MatrixF& unit, NodeId u,
                                        std::size_t k) {
  std::vector<serve::Neighbor> all;
  all.reserve(unit.rows());
  for (std::size_t r = 0; r < unit.rows(); ++r) {
    if (r == u) continue;
    all.push_back({static_cast<NodeId>(r),
                   dot<float>(unit.row(r), unit.row(u))});
  }
  std::sort(all.begin(), all.end(),
            [](const serve::Neighbor& a, const serve::Neighbor& b) {
              return a.score != b.score ? a.score > b.score : a.node < b.node;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t nodes = 50000, ba_edges = 5, dims = 32, seed = 42;
  std::size_t top_k = 10, serve_threads = 4, snapshot_every = 50;
  std::size_t query_target = 10000, max_walks = 0;
  std::size_t nlist = 128, eval_queries = 200;
  std::size_t shards = 32, delta_publishes = 100, touched_per_publish = 160;
  std::size_t scan_threads = 0;
  std::string quant = "int8", json_path;
  bool tiny = false;
  ArgParser args("bench_serving",
                 "concurrent train+serve throughput and IVF vs brute-force "
                 "k-NN on the final snapshot");
  args.add_int("nodes", &nodes, "BA graph nodes");
  args.add_int("ba-edges", &ba_edges, "BA attachment edges per node");
  args.add_int("dims", &dims, "embedding dimensions");
  args.add_size("top-k", &top_k, "neighbors per query");
  args.add_size("serve-threads", &serve_threads, "server worker threads");
  args.add_size("snapshot-every", &snapshot_every,
                "publish a snapshot every this many training batches");
  args.add_size("queries", &query_target,
                "serving queries to issue during training");
  args.add_size("max-walks", &max_walks,
                "training walk budget (0 = the full corpus)");
  args.add_size("nlist", &nlist, "IVF coarse cells");
  args.add_size("eval-queries", &eval_queries,
                "query nodes for the recall/latency sweep");
  args.add_size("shards", &shards, "sharded-store shard count (phase 3)");
  args.add_size("delta-publishes", &delta_publishes,
                "publish rounds for the delta-vs-full comparison");
  args.add_size("touched", &touched_per_publish,
                "rows touched per delta publish (sequential-training "
                "footprint)");
  args.add_size("scan-threads", &scan_threads,
                "sharded fan-out threads (0 = sequential scan)");
  args.add_choice("quant", &quant, {"int8", "bfp", "none"},
                  "quantized-scan phase mode: int8 (float scales), bfp "
                  "(shared int16 exponents), or none (skip)");
  args.add_string("json", &json_path,
                  "write results to this path (BENCH_serving.json)");
  std::string metrics_out;
  add_metrics_flag(args, &metrics_out);
  args.add_flag("tiny", &tiny, "CI smoke scale (overrides sizes)");
  args.add_int("seed", &seed, "random seed");
  if (!args.parse(argc, argv)) return 1;

  if (tiny) {
    nodes = 2000;
    query_target = 1000;
    nlist = 32;
    eval_queries = 50;
    serve_threads = 2;
    snapshot_every = 5;
    shards = 8;
    delta_publishes = 20;
    touched_per_publish = 40;
  }

  print_header("Serving",
               "versioned snapshot store + k-NN query engine under "
               "concurrent online training");

  const Graph graph =
      make_barabasi_albert(static_cast<std::size_t>(nodes),
                           static_cast<std::size_t>(ba_edges),
                           static_cast<std::uint64_t>(seed));
  std::printf("BA graph: %zu nodes, %zu edges; %u hardware threads\n\n",
              graph.num_nodes(), graph.num_edges(),
              std::thread::hardware_concurrency());

  TrainConfig cfg;
  cfg.dims = static_cast<std::size_t>(dims);
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.negative_mode = NegativeMode::kPerWalk;
  // One walk per node covers every node's embedding while keeping the
  // concurrent window to seconds rather than minutes.
  cfg.walks_per_node = 1;

  auto store = std::make_shared<serve::ShardedEmbeddingStore>();

  // ---------------------------------------------------- phase 1: concurrent
  std::atomic<bool> trainer_done{false};
  TrainStats train_stats;
  double train_seconds = 0.0;
  std::thread trainer([&] {
    Rng rng(cfg.seed);
    auto model = make_backend("oselm", graph.num_nodes(), cfg, rng);
    PipelineConfig pipe;
    pipe.walker_threads = 2;
    pipe.snapshot_every = snapshot_every;
    pipe.snapshot_sink = store.get();
    pipe.max_walks = max_walks;
    WallTimer t;
    train_stats = train_all(*model, graph, cfg, rng, pipe);
    train_seconds = t.seconds();
    trainer_done.store(true, std::memory_order_release);
  });

  if (!store->wait_for_version(1, std::chrono::minutes(10))) {
    std::fprintf(stderr, "trainer never published\n");
    trainer.join();
    return 1;
  }

  serve::ServerConfig srv_cfg;
  srv_cfg.threads = serve_threads;
  serve::EmbeddingServer server(store, srv_cfg);

  std::atomic<std::size_t> during_training{0};
  std::size_t issued = 0;
  std::uint64_t first_version = 0, last_version = 0;
  serve::LatencySummary lat{};
  double qps = 0.0, walks_per_s = 0.0;
  {
    Rng qrng(cfg.seed + 1);
    WallTimer qt;
    std::vector<std::future<serve::TopKResult>> inflight;
    inflight.reserve(64);
    while (issued < query_target ||
           !trainer_done.load(std::memory_order_acquire)) {
      // Submit in small bursts so the queue stays busy without
      // unbounded future accumulation.
      for (int b = 0; b < 32; ++b) {
        inflight.push_back(server.topk(
            static_cast<NodeId>(qrng.bounded(graph.num_nodes())), top_k));
        ++issued;
      }
      for (auto& f : inflight) {
        const serve::TopKResult res = f.get();
        if (first_version == 0) first_version = res.version;
        last_version = res.version;
        if (!trainer_done.load(std::memory_order_acquire)) {
          during_training.fetch_add(1, std::memory_order_relaxed);
        }
      }
      inflight.clear();
      // Training finished and the target met — stop issuing.
      if (issued >= query_target &&
          trainer_done.load(std::memory_order_acquire)) {
        break;
      }
    }
    trainer.join();
    const double query_seconds = qt.seconds();
    server.drain();

    lat = server.latency();
    qps = static_cast<double>(lat.count) / query_seconds;
    walks_per_s = static_cast<double>(train_stats.num_walks) / train_seconds;
    Table table({"metric", "value"});
    table.add_row({"training walks", std::to_string(train_stats.num_walks)});
    table.add_row({"training walks/s", Table::fmt(walks_per_s, 1)});
    table.add_row(
        {"snapshots published",
         std::to_string(static_cast<std::size_t>(store->version()))});
    table.add_row({"queries served", std::to_string(lat.count)});
    table.add_row({"queries during training",
                   std::to_string(during_training.load())});
    table.add_row({"snapshot versions seen",
                   std::to_string(first_version) + " -> " +
                       std::to_string(last_version)});
    table.add_row({"QPS", Table::fmt(qps, 1)});
    table.add_row({"p50 latency (us)", Table::fmt(lat.p50_us, 1)});
    table.add_row({"p95 latency (us)", Table::fmt(lat.p95_us, 1)});
    table.add_row({"p99 latency (us)", Table::fmt(lat.p99_us, 1)});
    table.print();

    const bool concurrent_ok =
        train_stats.num_walks > 0 && during_training.load() > 0;
    std::printf("\nconcurrent operation: %s (%zu walks trained, %zu queries "
                "answered while training ran)\n\n",
                concurrent_ok ? "yes" : "NO", train_stats.num_walks,
                during_training.load());
  }

  // ------------------------------------------- phase 2: IVF vs brute force
  std::printf("IVF vs exact brute force on the final snapshot "
              "(recall@%zu over %zu query nodes):\n",
              top_k, eval_queries);
  const serve::ShardedQueryEngine exact(*store);

  Rng qrng(cfg.seed + 2);
  std::vector<NodeId> query_nodes;
  query_nodes.reserve(eval_queries);
  for (std::size_t q = 0; q < eval_queries; ++q) {
    query_nodes.push_back(
        static_cast<NodeId>(qrng.bounded(graph.num_nodes())));
  }

  std::vector<std::vector<serve::Neighbor>> truth(eval_queries);
  const double exact_ms = time_ms([&] {
    for (std::size_t q = 0; q < eval_queries; ++q) {
      truth[q] = exact.topk(query_nodes[q], top_k);
    }
  }, 3);

  serve::IndexConfig ivf_cfg;
  ivf_cfg.kind = serve::IndexConfig::Kind::kIvf;
  ivf_cfg.nlist = nlist;
  ivf_cfg.seed = cfg.seed;
  WallTimer build_timer;
  const serve::ShardedQueryEngine ivf(*store, {ivf_cfg});
  const double build_ms = build_timer.millis();

  Table table({"engine", "nprobe", "recall@" + std::to_string(top_k),
               "us/query", "speedup"});
  const double exact_us = exact_ms * 1000.0 /
                          static_cast<double>(eval_queries);
  table.add_row({"brute force", "-", "1.000", Table::fmt(exact_us, 1),
                 "1.00x"});

  struct SweepRow {
    std::size_t nprobe;
    double recall;
    double us;
  };
  std::vector<SweepRow> ivf_sweep;
  bool recall_ok = false, perf_ok = false;
  for (std::size_t nprobe : {2, 4, 8, 16, 32}) {
    if (nprobe >= nlist) break;
    double recall_sum = 0.0;
    std::vector<std::vector<serve::Neighbor>> approx(eval_queries);
    const double ivf_ms = time_ms([&] {
      for (std::size_t q = 0; q < eval_queries; ++q) {
        approx[q] = ivf.topk(query_nodes[q], top_k,
                             serve::Similarity::kCosine, nprobe);
      }
    }, 3);
    for (std::size_t q = 0; q < eval_queries; ++q) {
      recall_sum += serve::recall_at_k(truth[q], approx[q]);
    }
    const double recall = recall_sum / static_cast<double>(eval_queries);
    const double ivf_us =
        ivf_ms * 1000.0 / static_cast<double>(eval_queries);
    ivf_sweep.push_back({nprobe, recall, ivf_us});
    table.add_row({"ivf", std::to_string(nprobe), Table::fmt(recall, 3),
                   Table::fmt(ivf_us, 1),
                   Table::fmt(exact_us / ivf_us, 2) + "x"});
    if (recall >= 0.9) {
      recall_ok = true;
      if (ivf_us < exact_us) perf_ok = true;
    }
  }
  table.print();
  std::printf("\nIVF build: %.1f ms for nlist=%zu over %zu nodes\n",
              build_ms, nlist, graph.num_nodes());
  std::printf("IVF beats brute force at recall@%zu >= 0.9: %s\n", top_k,
              perf_ok ? "yes" : "NO");

  // --------------------- phase 3: sharded delta vs full-snapshot publish
  std::printf("\nsharded delta publishing vs full-snapshot publishing "
              "(%zu publishes of %zu touched rows, %zu shards):\n",
              delta_publishes, touched_per_publish, shards);
  const MatrixF final_emb = store->materialize();
  const std::size_t n = final_emb.rows();
  const std::size_t d = final_emb.cols();

  // The touch pattern of sequential training: a few hundred scattered
  // rows per publish (walk nodes + negatives), identical for both
  // paths. Values are re-published unchanged so both stores end bit-
  // identical to `final_emb` and answer-quality comparisons are on
  // equal content.
  Rng trng(cfg.seed + 3);
  std::vector<std::vector<NodeId>> touch_sets(delta_publishes);
  for (auto& set : touch_sets) {
    DirtyRowSet dirty(n);
    for (std::size_t t = 0; t < touched_per_publish; ++t) {
      dirty.mark(static_cast<NodeId>(trng.bounded(n)));
    }
    const auto sorted = dirty.sorted();
    set.assign(sorted.begin(), sorted.end());
  }

  // Full-snapshot path: every publish copies the whole matrix.
  serve::ShardedEmbeddingStore full_store;
  full_store.publish(MatrixF(final_emb));
  const double full_ms = [&] {
    WallTimer t;
    for (std::size_t p = 0; p < delta_publishes; ++p) {
      full_store.publish(MatrixF(final_emb));
    }
    return t.millis() / static_cast<double>(delta_publishes);
  }();

  // Sharded delta path, replayed under both compaction policies: the
  // legacy chain-depth trigger (compact whenever any shard's chain hits
  // 32, whatever the repack costs) and the default amortized-cost
  // trigger (compact when appended delta rows have paid for the
  // O(shard) repack). Same touch sets, same end state.
  struct PolicyResult {
    std::shared_ptr<serve::ShardedEmbeddingStore> store;
    double ms_per_publish;
    double rows_per_publish;
    std::uint64_t compactions;
  };
  const auto run_policy =
      [&](const serve::ShardedEmbeddingStore::Config& pcfg) {
        auto st = std::make_shared<serve::ShardedEmbeddingStore>(pcfg);
        st->publish(MatrixF(final_emb));
        const std::uint64_t base_copied = st->rows_copied();
        WallTimer t;
        for (const auto& set : touch_sets) {
          MatrixF rows(set.size(), d);
          for (std::size_t i = 0; i < set.size(); ++i) {
            copy<float>(final_emb.row(set[i]), rows.row(i));
          }
          st->publish_delta(set, std::move(rows));
        }
        const double ms =
            t.millis() / static_cast<double>(delta_publishes);
        return PolicyResult{
            st, ms,
            static_cast<double>(st->rows_copied() - base_copied) /
                static_cast<double>(delta_publishes),
            st->compactions()};
      };
  // Legacy: chain cap 32, overlay backstop 0.5, cost trigger off.
  const PolicyResult legacy =
      run_policy(serve::ShardedEmbeddingStore::Config{shards, 32, 0.5, 0.0});
  // Current default: cost-scheduled compaction.
  const PolicyResult current =
      run_policy(serve::ShardedEmbeddingStore::Config{shards});
  const auto sharded_store = current.store;
  const double delta_ms = current.ms_per_publish;
  const double publish_speedup = full_ms / delta_ms;

  Table pub_table({"publish path", "ms/publish", "rows copied/publish",
                   "compactions"});
  pub_table.add_row({"full snapshot", Table::fmt(full_ms, 3),
                     std::to_string(n), "-"});
  pub_table.add_row({"delta (legacy chain-32)",
                     Table::fmt(legacy.ms_per_publish, 3),
                     Table::fmt(legacy.rows_per_publish, 1),
                     std::to_string(legacy.compactions)});
  pub_table.add_row({"delta (amortized cost)", Table::fmt(delta_ms, 3),
                     Table::fmt(current.rows_per_publish, 1),
                     std::to_string(current.compactions)});
  pub_table.print();
  // The cost policy must not copy more than the legacy policy; at full
  // scale (where the legacy chain trigger actually fires) it must copy
  // strictly less.
  const bool compaction_ok =
      tiny ? current.rows_per_publish <= legacy.rows_per_publish
           : current.rows_per_publish < legacy.rows_per_publish;
  std::printf("delta publish speedup vs full snapshot: %.1fx; "
              "cost-scheduled compaction copies %s rows than chain-depth: "
              "%s\n",
              publish_speedup, tiny ? "no more" : "fewer",
              compaction_ok ? "yes" : "NO");

  // Equal answer quality, part 1 — exact fan-out identity: the sharded
  // engine's exact top-k must match a naive sorted scan node for node,
  // score for score.
  MatrixF unit_rows = final_emb;
  serve::l2_normalize_rows(unit_rows);
  serve::ShardedIndexConfig exact_sharded_cfg;
  exact_sharded_cfg.scan_threads = scan_threads;
  const serve::ShardedQueryEngine exact_sharded(*sharded_store,
                                                exact_sharded_cfg);
  bool identical = true;
  for (std::size_t q = 0; q < eval_queries && identical; ++q) {
    const auto u = query_nodes[q % query_nodes.size()];
    const auto a = naive_topk(unit_rows, u, top_k);
    const auto b = exact_sharded.topk(u, top_k);
    if (a.size() != b.size()) identical = false;
    for (std::size_t i = 0; identical && i < a.size(); ++i) {
      identical = a[i].node == b[i].node && a[i].score == b[i].score;
    }
  }
  std::printf("sharded exact fan-out identical to a naive scan: %s\n",
              identical ? "yes" : "NO");

  // Equal answer quality, part 2 — the per-shard IVF must clear the
  // same recall@k bar as the one-shard index (0.9), at a sub-exact
  // scan cost. nprobe applies per shard, so the sweep starts at 1.
  serve::ShardedIndexConfig sharded_ivf_cfg;
  sharded_ivf_cfg.index.kind = serve::IndexConfig::Kind::kIvf;
  // nlist = 0: each shard sizes its quantizer to ~sqrt(its rows).
  sharded_ivf_cfg.index.seed = cfg.seed;
  sharded_ivf_cfg.scan_threads = scan_threads;
  const serve::ShardedQueryEngine sharded_ivf(*sharded_store,
                                              sharded_ivf_cfg);
  Table stable({"engine", "nprobe/shard", "recall@" + std::to_string(top_k),
                "us/query"});
  std::vector<SweepRow> sharded_sweep;
  bool sharded_recall_ok = false;
  const std::size_t shard_nlist = static_cast<std::size_t>(std::sqrt(
      static_cast<double>((n + shards - 1) / shards)));
  for (std::size_t nprobe : {1, 2, 4, 8}) {
    if (nprobe >= shard_nlist) break;
    double recall_sum = 0.0;
    std::vector<std::vector<serve::Neighbor>> approx(eval_queries);
    const double ms = time_ms([&] {
      for (std::size_t q = 0; q < eval_queries; ++q) {
        approx[q] = sharded_ivf.topk(query_nodes[q], top_k,
                                     serve::Similarity::kCosine, nprobe);
      }
    }, 3);
    for (std::size_t q = 0; q < eval_queries; ++q) {
      recall_sum += serve::recall_at_k(truth[q], approx[q]);
    }
    const double recall = recall_sum / static_cast<double>(eval_queries);
    const double us = ms * 1000.0 / static_cast<double>(eval_queries);
    sharded_sweep.push_back({nprobe, recall, us});
    stable.add_row({"sharded ivf", std::to_string(nprobe),
                    Table::fmt(recall, 3), Table::fmt(us, 1)});
    if (recall >= 0.9) sharded_recall_ok = true;
  }
  stable.print();

  const bool publish_ok = publish_speedup >= 5.0;
  if (tiny) {
    // The timing gate is meaningless at smoke scale (a 2000-row matrix
    // copy is noise), so report only what --tiny actually gates on.
    std::printf("\nsharded delta at equal recall@%zu: %s "
                "(publish speedup %.1fx — timing ungated at --tiny "
                "scale)\n",
                top_k, sharded_recall_ok ? "yes" : "NO", publish_speedup);
  } else {
    std::printf("\ndelta publish >= 5x cheaper at equal recall@%zu: %s\n",
                top_k, (publish_ok && sharded_recall_ok) ? "yes" : "NO");
  }

  // -------------------------- phase 4: float vs int8 quantized scan
  struct QuantRow {
    std::size_t nprobe;
    double recall;
    double float_us;
    double int8_us;
  };
  std::vector<QuantRow> quant_sweep;
  bool quant_recall_ok = true, quant_perf_ok = true;
  if (quant != "none") {
    std::printf("\nfloat vs %s quantized IVF scan on the final snapshot "
                "(recall of %s vs float at the same nprobe):\n",
                quant.c_str(), quant.c_str());
    serve::IndexConfig qcfg = ivf_cfg;
    qcfg.quant = quant == "bfp" ? serve::QuantMode::kBfp
                                : serve::QuantMode::kInt8;
    const serve::ShardedQueryEngine ivf_int8(*store, {qcfg});
    Table qtable({"nprobe", "recall@" + std::to_string(top_k),
                  "float us/q", quant + " us/q", "speedup"});
    quant_recall_ok = false;
    quant_perf_ok = false;
    for (std::size_t nprobe : {4, 8, 16, 32}) {
      if (nprobe >= nlist) break;
      std::vector<std::vector<serve::Neighbor>> fres(eval_queries);
      std::vector<std::vector<serve::Neighbor>> qres(eval_queries);
      const double f_ms = time_ms([&] {
        for (std::size_t q = 0; q < eval_queries; ++q) {
          fres[q] = ivf.topk(query_nodes[q], top_k,
                             serve::Similarity::kCosine, nprobe);
        }
      }, 3);
      const double q_ms = time_ms([&] {
        for (std::size_t q = 0; q < eval_queries; ++q) {
          qres[q] = ivf_int8.topk(query_nodes[q], top_k,
                                  serve::Similarity::kCosine, nprobe);
        }
      }, 3);
      double recall_sum = 0.0;
      for (std::size_t q = 0; q < eval_queries; ++q) {
        recall_sum += serve::recall_at_k(fres[q], qres[q]);
      }
      const double recall = recall_sum / static_cast<double>(eval_queries);
      const double f_us = f_ms * 1000.0 / static_cast<double>(eval_queries);
      const double q_us = q_ms * 1000.0 / static_cast<double>(eval_queries);
      quant_sweep.push_back({nprobe, recall, f_us, q_us});
      qtable.add_row({std::to_string(nprobe), Table::fmt(recall, 3),
                      Table::fmt(f_us, 1), Table::fmt(q_us, 1),
                      Table::fmt(f_us / q_us, 2) + "x"});
      if (recall >= 0.95) {
        quant_recall_ok = true;
        if (q_us < f_us) quant_perf_ok = true;
      }
    }
    qtable.print();
    if (tiny) {
      // Per-query times at 2000 nodes are sub-microsecond; only the
      // recall claim is meaningful at smoke scale.
      std::printf("%s holds recall@%zu >= 0.95 vs float: %s "
                  "(timing ungated at --tiny scale)\n",
                  quant.c_str(), top_k, quant_recall_ok ? "yes" : "NO");
      quant_perf_ok = true;
    } else {
      std::printf("%s faster than float at recall@%zu >= 0.95: %s\n",
                  quant.c_str(), top_k,
                  (quant_recall_ok && quant_perf_ok) ? "yes" : "NO");
    }
  }

  // -------------------------- phase 5: observability overhead on scans
  // The hot scan path pays one relaxed counter add per query; everything
  // heavier (span clocks, re-rank accounting) is behind the runtime
  // switch. Time the exact-engine workload with obs on and off to show
  // the cost, and check the off run records nothing at all.
  std::printf("\nobservability overhead on the exact scan path "
              "(%zu queries, median of 5):\n", eval_queries);
  const auto scan_workload = [&] {
    for (std::size_t q = 0; q < eval_queries; ++q) {
      (void)exact.topk(query_nodes[q], top_k);
    }
  };
  const double obs_on_ms = time_ms(scan_workload, 5);
  const obs::Counter* scans_total =
      obs::Registry::global().find_counter("seqge_query_scans_total");
  obs::set_enabled(false);
  const std::uint64_t scans_before =
      scans_total != nullptr ? scans_total->value() : 0;
  const double obs_off_ms = time_ms(scan_workload, 5);
  const std::uint64_t scans_after =
      scans_total != nullptr ? scans_total->value() : 0;
  obs::set_enabled(true);
  const double obs_overhead_pct =
      obs_off_ms > 0.0 ? (obs_on_ms / obs_off_ms - 1.0) * 100.0 : 0.0;
  // Disabled must mean silent: the counter the enabled run drives on
  // every query may not move while the switch is off.
  const bool obs_noop_ok =
      scans_total != nullptr && scans_after == scans_before;
  // Timing gate at full scale only — the --tiny workload finishes in
  // microseconds, where a 2% bound is pure scheduler noise.
  const bool obs_overhead_ok = tiny || obs_overhead_pct <= 2.0;
  Table otable({"registry", "ms/workload", "us/query"});
  otable.add_row({"enabled", Table::fmt(obs_on_ms, 3),
                  Table::fmt(obs_on_ms * 1000.0 /
                                 static_cast<double>(eval_queries), 2)});
  otable.add_row({"disabled", Table::fmt(obs_off_ms, 3),
                  Table::fmt(obs_off_ms * 1000.0 /
                                 static_cast<double>(eval_queries), 2)});
  otable.print();
  std::printf("obs overhead: %+.2f%% (%s <= 2%%: %s); disabled run "
              "recorded nothing: %s\n",
              obs_overhead_pct,
              tiny ? "ungated at --tiny scale, full-scale gate"
                   : "gated",
              obs_overhead_ok ? "yes" : "NO", obs_noop_ok ? "yes" : "NO");

  if (!json_path.empty()) {
    Json root = Json::object();
    root.set("bench", Json::str("serving"));
    root.set("machine", machine_json());
    Json jcfg = Json::object();
    jcfg.set("tiny", Json::boolean(tiny));
    jcfg.set("nodes", Json::num(static_cast<std::size_t>(nodes)));
    jcfg.set("dims", Json::num(static_cast<std::size_t>(dims)));
    jcfg.set("top_k", Json::num(top_k));
    jcfg.set("shards", Json::num(shards));
    jcfg.set("scan_threads", Json::num(scan_threads));
    jcfg.set("quant", Json::str(quant));
    root.set("config", std::move(jcfg));

    Json ph1 = Json::object();
    ph1.set("training_walks_per_s", Json::num(walks_per_s));
    ph1.set("qps", Json::num(qps));
    ph1.set("queries_during_training",
            Json::num(during_training.load()));
    ph1.set("p50_us", Json::num(lat.p50_us));
    ph1.set("p95_us", Json::num(lat.p95_us));
    ph1.set("p99_us", Json::num(lat.p99_us));
    root.set("concurrent", std::move(ph1));

    const auto sweep_json = [](const std::vector<SweepRow>& rows) {
      Json arr = Json::array();
      for (const auto& r : rows) {
        Json j = Json::object();
        j.set("nprobe", Json::num(r.nprobe));
        j.set("recall", Json::num(r.recall));
        j.set("us_per_query", Json::num(r.us));
        arr.push(std::move(j));
      }
      return arr;
    };
    Json ph2 = Json::object();
    ph2.set("exact_us_per_query", Json::num(exact_us));
    ph2.set("ivf_build_ms", Json::num(build_ms));
    ph2.set("ivf_sweep", sweep_json(ivf_sweep));
    root.set("index", std::move(ph2));

    Json ph3 = Json::object();
    ph3.set("full_snapshot_ms_per_publish", Json::num(full_ms));
    const auto policy_json = [](const PolicyResult& r) {
      Json j = Json::object();
      j.set("ms_per_publish", Json::num(r.ms_per_publish));
      j.set("rows_copied_per_publish", Json::num(r.rows_per_publish));
      j.set("compactions",
            Json::num(static_cast<std::int64_t>(r.compactions)));
      return j;
    };
    ph3.set("delta_legacy_chain", policy_json(legacy));
    ph3.set("delta_amortized_cost", policy_json(current));
    ph3.set("publish_speedup", Json::num(publish_speedup));
    ph3.set("fanout_identical", Json::boolean(identical));
    ph3.set("sharded_ivf_sweep", sweep_json(sharded_sweep));
    root.set("publishing", std::move(ph3));

    if (quant != "none") {
      Json qarr = Json::array();
      for (const auto& r : quant_sweep) {
        Json j = Json::object();
        j.set("nprobe", Json::num(r.nprobe));
        j.set("recall_vs_float", Json::num(r.recall));
        j.set("float_us_per_query", Json::num(r.float_us));
        j.set("quant_us_per_query", Json::num(r.int8_us));
        qarr.push(std::move(j));
      }
      root.set("quant_sweep", std::move(qarr));
    }

    Json obs_json = Json::object();
    obs_json.set("enabled_ms", Json::num(obs_on_ms));
    obs_json.set("disabled_ms", Json::num(obs_off_ms));
    obs_json.set("overhead_pct", Json::num(obs_overhead_pct));
    root.set("obs_overhead", std::move(obs_json));

    Json gates = Json::object();
    gates.set("ivf_recall", Json::boolean(recall_ok));
    gates.set("ivf_faster_than_exact", Json::boolean(perf_ok));
    gates.set("fanout_identical", Json::boolean(identical));
    gates.set("sharded_recall", Json::boolean(sharded_recall_ok));
    gates.set("publish_speedup_5x", Json::boolean(publish_ok));
    gates.set("compaction_fewer_rows", Json::boolean(compaction_ok));
    gates.set("quant_recall", Json::boolean(quant_recall_ok));
    gates.set("quant_faster", Json::boolean(quant_perf_ok));
    gates.set("obs_overhead_2pct", Json::boolean(obs_overhead_ok));
    gates.set("obs_disabled_noop", Json::boolean(obs_noop_ok));
    root.set("gates", std::move(gates));
    if (!write_json_file(json_path, root)) return 1;
  }

  if (!dump_metrics(metrics_out)) return 1;

  // --tiny is the CI smoke: at 2000 nodes the brute-force scan is so
  // cheap that every timing comparison is scheduler noise, so only the
  // recall/identity/accounting criteria gate there; full scale gates on
  // all.
  const bool ok = tiny
                      ? (recall_ok && identical && sharded_recall_ok &&
                         compaction_ok && quant_recall_ok && obs_noop_ok)
                      : (recall_ok && perf_ok && identical &&
                         sharded_recall_ok && publish_ok && compaction_ok &&
                         quant_recall_ok && quant_perf_ok &&
                         obs_overhead_ok && obs_noop_ok);
  return ok ? 0 : 1;
}
