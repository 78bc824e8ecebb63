// Sliding-window IoT stream: device links come and go, and the
// embedding follows BOTH directions. Insertions are trained the usual
// sequential way (two walks per new edge); an edge falling off the
// window — explicitly removed, or expired past --max-age — is
// forgotten. Most departures here take the approximate path: fresh
// walks from the surviving endpoints re-train the neighborhood
// ("fallbacks" in the table). The exact OS-ELM covariance downdate,
// which reverses the walks the edge once trained, applies only to an
// edge removed within StreamConfig::unlearn_staleness_limit (256)
// mutations of its training and while the downdate keeps the
// covariance positive-definite. Expiry at --max-age 800 ticks (one
// insert per tick) is always past that horizon, and most random
// teardowns are too, so with the defaults 26 walks are unlearned
// exactly against 5124 fallback re-trains. Devices whose last
// link departs are tombstoned in the serving store and vanish from
// top-k answers until they reappear.
//
//   ./examples/sliding_window_stream [--nodes 2000] [--events 6000]
//       [--max-age 800] [--dims 16] [--publish-every 64] [--seed 42]
//       [--metrics-out metrics.json]

#include <cstdio>

#include "embedding/model.hpp"
#include "embedding/trainer.hpp"
#include "graph/sliding_window.hpp"
#include "obs/export.hpp"
#include "serve/sharded_query.hpp"
#include "serve/sharded_store.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace seqge;

int main(int argc, char** argv) {
  std::int64_t nodes = 2000, events = 6000, max_age = 800, dims = 16,
               publish_every = 64, seed = 42;
  std::string metrics_out;
  ArgParser args("sliding_window_stream",
                 "train + unlearn over an expiring edge stream");
  args.add_int("nodes", &nodes, "device count");
  args.add_int("events", &events, "stream events to replay");
  args.add_int("max-age", &max_age, "edge expiry horizon (ticks)");
  args.add_int("dims", &dims, "embedding dimensions");
  args.add_int("publish-every", &publish_every,
               "serving publish cadence (mutations)");
  args.add_int("seed", &seed, "random seed");
  args.add_string("metrics-out", &metrics_out,
                  "write a seqge-metrics-v1 JSON dump to this path");
  if (!args.parse(argc, argv)) return 1;

  const auto n = static_cast<std::size_t>(nodes);
  TrainConfig tcfg;
  tcfg.dims = static_cast<std::size_t>(dims);
  tcfg.seed = static_cast<std::uint64_t>(seed);
  tcfg.walk.walk_length = 12;
  tcfg.walk.window = 3;
  tcfg.negative_samples = 3;
  // Random-alpha OS-ELM (the classic ELM form): the hidden layer comes
  // from fixed random weights, so a walk that revisits its own center —
  // near-certain on hub-and-spoke streams, where walks oscillate around
  // gateways — can still be reversed exactly. The tied-weight variant
  // refuses those reversals (self-reference guard) and would push every
  // deletion onto the fallback re-train path.
  tcfg.random_alpha = true;

  Rng rng(tcfg.seed);
  auto model = make_model(ModelKind::kOselm, n, tcfg, rng);

  SlidingWindowGraph::Options wopts;
  wopts.max_age = static_cast<std::uint64_t>(max_age);
  SlidingWindowGraph graph(n, wopts);

  serve::ShardedEmbeddingStore store(4);
  StreamConfig scfg;
  scfg.train = tcfg;
  scfg.sink = &store;
  scfg.publish_every = static_cast<std::size_t>(publish_every);
  StreamTrainer trainer(*model, graph, scfg, rng);

  // Device links with temporal locality: each tick wires a random
  // device to one of a drifting "hot set" of gateways, so old regions
  // of the graph cool down and age out of the window.
  Table table({"tick", "live edges", "trained", "unlearned", "fallbacks",
               "tombstoned"});
  const auto total = static_cast<std::uint64_t>(events);
  for (std::uint64_t t = 1; t <= total; ++t) {
    const auto gateway =
        static_cast<NodeId>((t / 500 * 97 + rng.bounded(32)) % n);
    const auto device = static_cast<NodeId>(rng.bounded(n));
    trainer.insert(device, gateway, 1.0f, t);
    if (rng.bounded(16) == 0 && graph.num_edges() > 1) {
      // Occasional explicit teardown of a random live neighbor link.
      const auto u = static_cast<NodeId>(rng.bounded(n));
      const auto nbrs = graph.neighbors(u);
      if (!nbrs.empty()) trainer.remove(u, nbrs[rng.bounded(nbrs.size())]);
    }
    if (t % 64 == 0) trainer.advance(t);
    if (t % (total / 6) == 0) {
      const StreamStats& s = trainer.stats();
      table.add_row({std::to_string(t), std::to_string(graph.num_edges()),
                     std::to_string(s.walks_trained),
                     std::to_string(s.walks_unlearned),
                     std::to_string(s.fallback_retrains),
                     std::to_string(trainer.dead_nodes().size())});
    }
  }
  trainer.flush();
  table.print();

  const StreamStats& s = trainer.stats();
  std::printf(
      "\nstream: %zu inserted, %zu deleted; %zu walks trained, %zu "
      "unlearned exactly, %zu fallback re-trains; %zu publishes\n",
      s.edges_inserted, s.edges_deleted, s.walks_trained,
      s.walks_unlearned, s.fallback_retrains, s.publishes);
  std::printf("serving: version %llu, %llu rows tombstoned of %zu\n",
              static_cast<unsigned long long>(store.version()),
              static_cast<unsigned long long>(store.tombstoned_rows()),
              n);

  // Tombstoned devices are invisible to queries until they reconnect.
  serve::ShardedQueryEngine engine(store);
  std::size_t served_dead = 0, probes = 0;
  for (NodeId u = 0; u < n && probes < 32; ++u) {
    if (graph.degree(u) == 0) continue;
    ++probes;
    for (const auto& hit : engine.topk(u, 10)) {
      served_dead += trainer.dead_nodes().count(hit.node);
    }
  }
  std::printf("spot check: %zu top-10 probes served %zu dead devices\n",
              probes, served_dead);

  if (!metrics_out.empty() && !obs::write_metrics_json(metrics_out)) {
    return 1;
  }
  return served_dead == 0 ? 0 : 1;
}
