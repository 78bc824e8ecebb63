// Online serving walkthrough: the FPGA-accelerated trainer grows a
// DynamicGraph edge by edge (the paper's "seq" scenario) and publishes
// embedding snapshots into a snapshot store at a configurable cadence,
// while a client thread queries an EmbeddingServer for nearest
// neighbors the whole time. The freshness table shows the snapshot
// version each query batch was answered from advancing as training
// proceeds — the embedding never goes offline to retrain.
//
// The store is a ShardedEmbeddingStore (one shard by default): the
// trainer's cadence publications arrive as copy-on-write row deltas
// (SnapshotSink::on_delta), so each publish copies only the rows the
// recent insertions touched, and with --shards N > 1 each query scans
// the per-shard snapshots in turn on its server worker thread.
//
// With --listen the process becomes a network server instead of
// running the in-process query loop: after the first snapshot it binds
// a seqge-wire-v1 TCP front-end (src/net/server.hpp) and serves
// external clients (examples/embedding_client, bench/bench_net) until
// SIGTERM/SIGINT or --listen-for-s elapses, then drains gracefully and
// exits 0. --port-file writes the bound port (useful with --port 0).
//
//   ./examples/embedding_server [--model fpga] [--nodes 300]
//       [--top-k 5] [--serve-threads 2] [--snapshot-every 64]
//       [--shards 4]
//       [--metrics-out metrics.json [--metrics-period-ms 1000]]
//       [--listen [--port 7421] [--listen-for-s 30]
//        [--rate-limit-qps 0] [--max-conns 256] [--port-file path]]

#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "embedding/backend_registry.hpp"
#include "embedding/trainer.hpp"
#include "graph/generators.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "serve/embedding_server.hpp"
#include "serve/sharded_store.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace seqge;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  std::string model_name = "fpga";
  std::int64_t nodes = 300, ba_edges = 3, dims = 16, seed = 42;
  std::size_t top_k = 5, serve_threads = 2, snapshot_every = 64;
  std::size_t max_insertions = 400, walks_per_node = 3, shards = 1;
  ArgParser args("embedding_server",
                 "train online on a growing graph while serving k-NN "
                 "queries against versioned embedding snapshots");
  args.add_choice("model", &model_name, backend_names(), "training backend");
  args.add_int("nodes", &nodes, "BA graph nodes");
  args.add_int("ba-edges", &ba_edges, "BA attachment edges per node");
  args.add_int("dims", &dims, "embedding dimensions");
  args.add_size("top-k", &top_k, "neighbors per query");
  args.add_size("serve-threads", &serve_threads, "server worker threads");
  args.add_size("snapshot-every", &snapshot_every,
                "publish a snapshot every this many edge insertions");
  args.add_size("max-insertions", &max_insertions,
                "cap on streamed edge insertions");
  args.add_size("walks-per-node", &walks_per_node,
                "walks per node for the initial forest phase");
  args.add_size("shards", &shards,
                "shard the store by node range; fan-out queries when "
                "> 1");
  args.add_int("seed", &seed, "random seed");
  std::string metrics_out;
  std::size_t metrics_period_ms = 0;
  args.add_string("metrics-out", &metrics_out,
                  "write a seqge-metrics-v1 JSON dump to this path");
  args.add_size("metrics-period-ms", &metrics_period_ms,
                "also re-dump --metrics-out every this many ms while "
                "serving (0 = final dump only)");
  bool listen = false;
  std::int64_t listen_port = 0, listen_for_s = 0;
  std::size_t max_conns = 256;
  double rate_limit_qps = 0.0;
  std::string port_file;
  args.add_flag("listen", &listen,
                "serve seqge-wire-v1 over TCP instead of the in-process "
                "query loop (runs until SIGTERM or --listen-for-s)");
  args.add_int("port", &listen_port,
               "TCP port for --listen (0 = kernel-assigned)");
  args.add_int("listen-for-s", &listen_for_s,
               "stop serving after this many seconds (0 = until signal)");
  args.add_double("rate-limit-qps", &rate_limit_qps,
                  "per-connection token-bucket rate (0 = unlimited)");
  args.add_size("max-conns", &max_conns, "max open connections");
  args.add_string("port-file", &port_file,
                  "write the bound port to this file once listening");
  if (!args.parse(argc, argv)) return 1;

  const Graph graph =
      make_barabasi_albert(static_cast<std::size_t>(nodes),
                           static_cast<std::size_t>(ba_edges),
                           static_cast<std::uint64_t>(seed));
  std::printf("BA graph: %zu nodes, %zu edges; backend %s, %zu shard(s)\n",
              graph.num_nodes(), graph.num_edges(), model_name.c_str(),
              shards);

  TrainConfig cfg;
  cfg.dims = static_cast<std::size_t>(dims);
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.negative_mode = NegativeMode::kPerWalk;
  // Short walks keep the bit-accurate FPGA simulation interactive.
  cfg.walk.walk_length = 20;
  cfg.walk.window = 4;
  cfg.negative_samples = 5;

  // Per-node-range shards with copy-on-write delta publishes; the
  // store is the trainer's SnapshotSink.
  const auto store = std::make_shared<serve::ShardedEmbeddingStore>(shards);

  // Producer: sequential training on the growing graph, publishing into
  // the store every `snapshot_every` insertions (plus the final state).
  SequentialResult result;
  std::atomic<bool> trainer_done{false};
  std::thread trainer([&] {
    Rng rng(cfg.seed);
    auto model = make_backend(model_name, graph.num_nodes(), cfg, rng);
    SequentialConfig scfg;
    scfg.train = cfg;
    scfg.initial_walks_per_node = walks_per_node;
    scfg.max_insertions = max_insertions;
    scfg.pipeline.snapshot_sink = store.get();
    scfg.snapshot_every_insertions = snapshot_every;
    result = train_sequential(*model, graph, scfg, rng);
    trainer_done.store(true, std::memory_order_release);
  });

  // Consumer: wait for the first snapshot, then keep querying while the
  // trainer runs.
  if (!store->wait_for_version(1, std::chrono::minutes(10))) {
    std::fprintf(stderr, "no snapshot published — trainer stuck?\n");
    trainer.join();
    return 1;
  }

  serve::ServerConfig srv_cfg;
  srv_cfg.threads = serve_threads;
  auto server = std::make_unique<serve::EmbeddingServer>(store, srv_cfg);

  // Long-running servers keep the metrics file fresh on a cadence so
  // the latest state survives a crash; the final dump at exit below
  // covers the short default run.
  std::unique_ptr<obs::PeriodicDumper> dumper;
  if (!metrics_out.empty() && metrics_period_ms > 0) {
    dumper = std::make_unique<obs::PeriodicDumper>(
        metrics_out, std::chrono::milliseconds(metrics_period_ms));
  }

  if (listen) {
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    net::NetServerConfig ncfg;
    ncfg.port = static_cast<std::uint16_t>(listen_port);
    ncfg.max_connections = max_conns;
    ncfg.rate_limit_qps = rate_limit_qps;
    net::Server front(*server, ncfg);
    front.start();
    std::printf("listening on %s:%u\n", ncfg.bind_addr.c_str(),
                static_cast<unsigned>(front.port()));
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream pf(port_file);
      pf << front.port() << "\n";
    }

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(listen_for_s);
    while (g_stop == 0 &&
           (listen_for_s == 0 ||
            std::chrono::steady_clock::now() < deadline)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    const std::size_t late = front.stop();
    trainer.join();
    const std::size_t engine_late =
        server->drain_for(std::chrono::seconds(5));
    std::printf(
        "served %llu wire requests over %llu connections "
        "(%llu overload + %llu rate-limit rejects, %llu bad frames); "
        "drain left %zu net + %zu engine requests in flight\n",
        static_cast<unsigned long long>(front.requests_admitted()),
        static_cast<unsigned long long>(front.connections_accepted()),
        static_cast<unsigned long long>(front.rejected_overload()),
        static_cast<unsigned long long>(front.rejected_ratelimit()),
        static_cast<unsigned long long>(front.bad_frames()), late,
        engine_late);
    if (dumper != nullptr) dumper->stop();
    if (dumper == nullptr && !metrics_out.empty() &&
        !obs::write_metrics_json(metrics_out)) {
      return 1;
    }
    return 0;
  }

  Table table({"query", "snapshot version", "walks trained",
               "top-" + std::to_string(top_k) + " of node 0",
               "latency (us)"});
  Rng qrng(static_cast<std::uint64_t>(seed) + 1);
  std::size_t queries = 0;
  WallTimer clock;
  std::uint64_t last_version = 0;
  while (!trainer_done.load(std::memory_order_acquire)) {
    const auto u = static_cast<NodeId>(qrng.bounded(graph.num_nodes()));
    WallTimer lat;
    serve::TopKResult res = server->topk(u, top_k).get();
    const double lat_us = lat.millis() * 1000.0;
    ++queries;

    // Report one row per freshly observed snapshot version (with the
    // neighbors of node 0 so consecutive rows are comparable).
    if (res.version != last_version) {
      last_version = res.version;
      serve::TopKResult probe = server->topk(0, top_k).get();
      ++queries;
      std::string ids;
      for (const auto& n : probe.neighbors) {
        if (!ids.empty()) ids += " ";
        ids += std::to_string(n.node);
      }
      table.add_row({std::to_string(queries), std::to_string(res.version),
                     std::to_string(store->walks_trained()), ids,
                     Table::fmt(lat_us, 1)});
    }
  }
  trainer.join();

  // A few final queries against the finished embedding.
  for (int i = 0; i < 50; ++i) {
    server->topk(static_cast<NodeId>(qrng.bounded(graph.num_nodes())), top_k)
        .get();
    queries += 1;
  }
  server->drain();

  table.print();
  const serve::LatencySummary lat = server->latency();
  std::printf(
      "\ntrained %zu insertions (%zu walks) while serving %llu queries "
      "in %.2f s\n",
      result.insertions, result.stats.num_walks,
      static_cast<unsigned long long>(server->queries_served()),
      clock.seconds());
  std::printf(
      "snapshots published: %llu; query latency p50 %.0f us, p95 %.0f us, "
      "p99 %.0f us (n=%zu)\n",
      static_cast<unsigned long long>(store->version()), lat.p50_us,
      lat.p95_us, lat.p99_us, lat.count);
  // Rows a full-republish store would have copied for the same publish
  // count — the delta win grows with graph size (at a few hundred nodes
  // an insertion window touches most rows, so the two are close; see
  // bench_serving phase 3 for the 50k-node numbers).
  const auto full_equiv = static_cast<unsigned long long>(
      store->version() * graph.num_nodes());
  std::printf(
      "delta publishing: %llu full + %llu delta publishes, %llu rows "
      "copied (full-republish equivalent: %llu), %llu compactions\n",
      static_cast<unsigned long long>(store->full_publishes()),
      static_cast<unsigned long long>(store->delta_publishes()),
      static_cast<unsigned long long>(store->rows_copied()), full_equiv,
      static_cast<unsigned long long>(store->compactions()));
  if (dumper != nullptr) dumper->stop();  // stop() writes a final dump
  if (dumper == nullptr && !metrics_out.empty() &&
      !obs::write_metrics_json(metrics_out)) {
    return 1;
  }
  return 0;
}
