// Dynamic link prediction (the task of the dynamic-node2vec related
// work, refs [4][5]): hold out a fraction of edges, train the proposed
// sequential model on the observed graph, then rank held-out edges
// against sampled non-edges by embedding similarity (ROC-AUC). Run with
// --update to additionally stream half of the held-out edges in with
// sequential training and watch the AUC on the remainder improve — the
// "embedding keeps up with the graph" story.
//
//   ./examples/link_prediction [--dataset cora] [--scale 0.4]
//                              [--holdout 0.2] [--update]

#include <cstdio>

#include "embedding/backend_registry.hpp"
#include "embedding/trainer.hpp"
#include "eval/link_prediction.hpp"
#include "graph/datasets.hpp"
#include "graph/sliding_window.hpp"
#include "obs/export.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace seqge;

int main(int argc, char** argv) {
  std::string dataset = "cora", model_name = "oselm";
  double scale = 0.4, holdout = 0.2;
  std::int64_t dims = 32, seed = 42, threads = 0;
  bool update = false;
  ArgParser args("link_prediction",
                 "held-out edge prediction with the sequential model");
  args.add_choice("dataset", &dataset, {"cora", "ampt", "amcp"},
                  "dataset twin");
  args.add_choice("model", &model_name, backend_names(), "training backend");
  args.add_int("threads", &threads,
               "walker threads for the training pipeline (0 = inline)");
  args.add_double("scale", &scale, "dataset scale factor");
  args.add_double("holdout", &holdout, "fraction of edges held out");
  args.add_int("dims", &dims, "embedding dimensions");
  args.add_int("seed", &seed, "random seed");
  args.add_flag("update", &update,
                "stream half of the held-out edges with sequential "
                "training before the final evaluation");
  std::string metrics_out;
  args.add_string("metrics-out", &metrics_out,
                  "write a seqge-metrics-v1 JSON dump to this path");
  if (!args.parse(argc, argv)) return 1;

  const LabeledGraph data =
      make_dataset(dataset_from_name(dataset),
                   static_cast<std::uint64_t>(seed), scale);
  Rng rng(static_cast<std::uint64_t>(seed));

  // Randomized edge split: observed vs held out.
  std::vector<Edge> edges = data.graph.edge_list();
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.bounded(i)]);
  }
  const auto n_held =
      static_cast<std::size_t>(static_cast<double>(edges.size()) * holdout);
  std::vector<Edge> held(edges.begin(),
                         edges.begin() + static_cast<std::ptrdiff_t>(n_held));
  std::vector<Edge> observed(edges.begin() +
                                 static_cast<std::ptrdiff_t>(n_held),
                             edges.end());
  const Graph observed_graph =
      Graph::from_edges(data.graph.num_nodes(), observed);
  std::printf("observed %zu edges, held out %zu\n", observed.size(),
              held.size());

  // Train the chosen backend on the observed graph.
  TrainConfig cfg;
  cfg.dims = static_cast<std::size_t>(dims);
  cfg.seed = static_cast<std::uint64_t>(seed);
  auto model = make_backend(model_name, data.graph.num_nodes(), cfg, rng);
  PipelineConfig pipe;
  pipe.walker_threads = static_cast<std::size_t>(threads);
  train_all(*model, observed_graph, cfg, rng, pipe);

  Table table({"stage", "AUC (dot)", "AUC (cosine)"});
  auto auc_row = [&](const std::string& stage, const Graph& g,
                     std::span<const Edge> test_edges) {
    Rng arng(99);
    const MatrixF emb = model->extract_embedding();
    table.add_row({stage,
                   Table::fmt(link_prediction_auc(emb, g, test_edges,
                                                  EdgeScore::kDot, arng)),
                   Table::fmt(link_prediction_auc(
                       emb, g, test_edges, EdgeScore::kCosine, arng))});
  };
  auc_row("after batch training", observed_graph, held);

  if (update) {
    // Stream the first half of the held-out edges with sequential
    // training (StreamTrainer::insert: a walk from each endpoint, one
    // trained batch per edge); evaluate on the untouched second half.
    const std::size_t half = held.size() / 2;
    SlidingWindowGraph window(data.graph.num_nodes());
    for (const Edge& e : observed) window.add_edge(e.src, e.dst, e.weight, 0);
    StreamConfig scfg;
    scfg.train = cfg;
    StreamTrainer stream(*model, window, scfg, rng);
    for (std::size_t i = 0; i < half; ++i) {
      stream.insert(held[i].src, held[i].dst, held[i].weight);
    }
    const std::span<const Edge> rest(held.data() + half,
                                     held.size() - half);
    auc_row("after streaming " + std::to_string(half) + " edges",
            window.to_graph(), rest);
  }
  table.print();
  if (!metrics_out.empty() && !obs::write_metrics_json(metrics_out)) {
    return 1;
  }
  return 0;
}
