// Pipeline throughput bench: wall-clock of the batched train_all with 0
// vs N walker threads on a generated Barabasi-Albert graph, for any
// registry backend. The walker threads generate the walk corpus; the
// calling thread packs and trains every batch on both runs. The two
// runs must produce bit-identical embeddings (the engine's determinism
// contract); the bench verifies that while reporting the speedup, so a
// reported win can never come from silently training something
// different.
//
// Both runs publish through a ShardedEmbeddingStore sink (identical
// observer cost on both sides, so the comparison is fair), and a short
// fan-out k-NN scan runs against the piped store afterwards — so a
// --metrics-out dump from this bench carries every pipeline-stage span
// (walk_gen, train_batch, publish, scan_fanout).
//
//   ./bench/bench_pipeline [--model oselm] [--threads 4] [--nodes 2000]
//       [--metrics-out metrics.json]

#include "bench/common.hpp"
#include "graph/generators.hpp"
#include "linalg/kernels.hpp"
#include "serve/sharded_query.hpp"
#include "serve/sharded_store.hpp"

#include <thread>

using namespace seqge;
using namespace seqge::bench;

int main(int argc, char** argv) {
  std::int64_t nodes = 2000, ba_edges = 5, dims = 32, walks = 10,
               threads = 4, seed = 42;
  std::string model = "oselm";
  ArgParser args("bench_pipeline",
                 "pipelined vs single-thread train_all wall-clock");
  args.add_choice("model", &model, backend_names(), "training backend");
  args.add_int("nodes", &nodes, "BA graph nodes");
  args.add_int("ba-edges", &ba_edges, "BA attachment edges per node");
  args.add_int("dims", &dims, "embedding dimensions");
  args.add_int("walks-per-node", &walks, "random walks per node (r)");
  args.add_int("threads", &threads, "walker threads for the pipelined run");
  args.add_int("seed", &seed, "random seed");
  std::string metrics_out;
  add_metrics_flag(args, &metrics_out);
  if (!args.parse(argc, argv)) return 1;

  print_header("Pipeline",
               "threaded walk generation vs the single-thread path "
               "(same updates, same order, bit-identical result)");

  const Graph graph =
      make_barabasi_albert(static_cast<std::size_t>(nodes),
                           static_cast<std::size_t>(ba_edges),
                           static_cast<std::uint64_t>(seed));
  std::printf("BA graph: %zu nodes, %zu edges; backend %s; %u hardware "
              "threads\n",
              graph.num_nodes(), graph.num_edges(), model.c_str(),
              std::thread::hardware_concurrency());

  TrainConfig cfg;
  cfg.dims = static_cast<std::size_t>(dims);
  cfg.walks_per_node = static_cast<std::size_t>(walks);
  cfg.seed = static_cast<std::uint64_t>(seed);
  // The paper's board always shares one negative set per walk.
  cfg.negative_mode = NegativeMode::kPerWalk;

  struct RunResult {
    TrainStats stats;
    double seconds;
    MatrixF embedding;
    std::shared_ptr<serve::ShardedEmbeddingStore> store;
  };
  auto run = [&](std::size_t walker_threads) {
    Rng rng(cfg.seed);
    auto m = make_backend(model, graph.num_nodes(), cfg, rng);
    RunResult r;
    // Publish through a sharded sink on both paths: identical observer
    // cost, and the metrics dump then carries the publish-stage span.
    r.store = std::make_shared<serve::ShardedEmbeddingStore>(4);
    PipelineConfig pipe;
    pipe.walker_threads = walker_threads;
    pipe.snapshot_sink = r.store.get();
    WallTimer timer;
    r.stats = train_all(*m, graph, cfg, rng, pipe);
    r.seconds = timer.seconds();
    r.embedding = m->extract_embedding();
    return r;
  };

  const RunResult single = run(0);
  const RunResult piped = run(static_cast<std::size_t>(threads));
  const double diff = max_abs_diff(single.embedding, piped.embedding);

  Table table({"path", "walk (s)", "train (s)", "total (s)"});
  table.add_row({"single-thread", Table::fmt(single.stats.walk_seconds, 3),
                 Table::fmt(single.stats.train_seconds, 3),
                 Table::fmt(single.seconds, 3)});
  table.add_row({"pipelined x" + std::to_string(threads),
                 Table::fmt(piped.stats.walk_seconds, 3),
                 Table::fmt(piped.stats.train_seconds, 3),
                 Table::fmt(piped.seconds, 3)});
  table.print();

  std::printf("\nspeedup (wall-clock): %.2fx over %zu walks / %zu batches\n",
              single.seconds / piped.seconds, piped.stats.num_walks,
              piped.stats.num_batches);
  std::printf("bit-identical embeddings: %s (max |delta| = %g)\n",
              diff == 0.0 ? "yes" : "NO", diff);

  // Short fan-out scan over the piped run's store: exercises the
  // serving-side scan_fanout span + per-shard latency histogram so the
  // metrics dump covers the full train->publish->serve chain.
  {
    const serve::ShardedQueryEngine engine(*piped.store);
    Rng qrng(static_cast<std::uint64_t>(seed) + 1);
    std::size_t hits = 0;
    for (int i = 0; i < 32; ++i) {
      hits += engine
                  .topk(static_cast<NodeId>(qrng.bounded(graph.num_nodes())),
                        10)
                  .size();
    }
    std::printf("fan-out scan: 32 queries, %zu neighbors returned\n", hits);
  }

  if (!dump_metrics(metrics_out)) return 1;
  return diff == 0.0 ? 0 : 1;
}
