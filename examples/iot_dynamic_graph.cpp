// IoT dynamic-graph scenario (the paper's motivating use case, Sec. 1):
// a deployed edge device observes a growing device-communication graph
// and keeps its embedding current with sequential training — no batch
// retraining. This example streams the edges of a dataset twin into a
// spanning forest, trains the proposed OS-ELM model after every
// insertion (a random walk from each endpoint, exactly the "seq"
// protocol: train_all on the forest, then StreamTrainer::insert per
// removed edge), and reports micro-F1 checkpoints so you can watch the
// embedding stay usable while the graph changes, plus what the FPGA
// accelerator's simulated latency budget would be for the same stream.
//
//   ./examples/iot_dynamic_graph [--dataset cora] [--scale 0.3]
//                                [--dims 32] [--checkpoints 6]

#include <cstdio>

#include "embedding/backend_registry.hpp"
#include "embedding/trainer.hpp"
#include "eval/node_classification.hpp"
#include "fpga/perf_model.hpp"
#include "graph/datasets.hpp"
#include "graph/sliding_window.hpp"
#include "graph/spanning_forest.hpp"
#include "obs/export.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace seqge;

int main(int argc, char** argv) {
  std::string dataset = "cora", model_name = "oselm";
  double scale = 0.3;
  std::int64_t dims = 32, checkpoints = 6, seed = 42;
  ArgParser args("iot_dynamic_graph",
                 "sequential training on a growing graph with accuracy "
                 "checkpoints");
  args.add_choice("dataset", &dataset, {"cora", "ampt", "amcp"},
                  "dataset twin");
  args.add_choice("model", &model_name, backend_names(), "training backend");
  args.add_double("scale", &scale, "dataset scale factor");
  args.add_int("dims", &dims, "embedding dimensions");
  args.add_int("checkpoints", &checkpoints, "number of accuracy checkpoints");
  args.add_int("seed", &seed, "random seed");
  std::string metrics_out;
  args.add_string("metrics-out", &metrics_out,
                  "write a seqge-metrics-v1 JSON dump to this path");
  if (!args.parse(argc, argv)) return 1;

  const LabeledGraph data =
      make_dataset(dataset_from_name(dataset),
                   static_cast<std::uint64_t>(seed), scale);
  std::printf("graph: %zu nodes, %zu edges, %zu classes\n",
              data.graph.num_nodes(), data.graph.num_edges(),
              data.num_classes);

  TrainConfig cfg;
  cfg.dims = static_cast<std::size_t>(dims);
  cfg.seed = static_cast<std::uint64_t>(seed);

  Rng rng(cfg.seed);
  auto model = make_backend(model_name, data.graph.num_nodes(), cfg, rng);

  // Forest start, as in Sec. 4.3.2.
  const std::size_t n = data.graph.num_nodes();
  const ForestSplit split = split_spanning_forest(data.graph, rng);
  std::printf("initial forest: %zu edges; %zu edges to stream\n\n",
              split.forest_edges.size(), split.removed_edges.size());

  auto evaluate = [&] {
    return mean_micro_f1(model->extract_embedding(), data.labels,
                         data.num_classes, ClassificationConfig{}, 3,
                         cfg.seed);
  };

  train_all(*model, Graph::from_edges(n, split.forest_edges), cfg, rng);
  std::printf("after forest training: micro-F1 = %.3f\n", evaluate());

  // Stream the removed edges, checkpointing accuracy.
  SlidingWindowGraph window(n);
  for (const Edge& e : split.forest_edges) {
    window.add_edge(e.src, e.dst, e.weight, 0);
  }
  StreamConfig scfg;
  scfg.train = cfg;
  StreamTrainer stream(*model, window, scfg, rng);
  Table table({"edges inserted", "graph edges", "micro-F1"});
  const std::size_t total = split.removed_edges.size();
  const std::size_t per_chunk =
      std::max<std::size_t>(1, total / static_cast<std::size_t>(checkpoints));
  for (const Edge& e : split.removed_edges) {
    stream.insert(e.src, e.dst, e.weight);
    const std::size_t inserted = stream.stats().edges_inserted;
    if (inserted % per_chunk == 0 || inserted == total) {
      table.add_row({std::to_string(inserted),
                     std::to_string(window.num_edges()),
                     Table::fmt(evaluate())});
    }
  }
  table.print();

  // What the PL accelerator would have cost for this stream.
  const fpga::PerfModel pm(fpga::AcceleratorConfig::for_dims(cfg.dims));
  const double per_walk_ms = pm.walk_timing().total_us / 1000.0;
  std::printf(
      "\nFPGA budget: %.3f ms per walk -> %.1f ms per edge insertion "
      "(2 walks); the full stream of %zu insertions would take %.2f s of "
      "accelerator time.\n",
      per_walk_ms, 2 * per_walk_ms, stream.stats().edges_inserted,
      2 * per_walk_ms * static_cast<double>(stream.stats().edges_inserted) /
          1000.0);
  if (!metrics_out.empty() && !obs::write_metrics_json(metrics_out)) {
    return 1;
  }
  return 0;
}
