// Ablation bench for the design choices DESIGN.md calls out:
//   1. shared-per-walk vs fresh-per-context negative samples,
//   2. per-walk P reset vs classic persistent-P OS-ELM,
//   3. Algorithm 1 vs Algorithm 2 (accuracy + host time),
//   4. float vs Q8.24 fixed-point core numerics.

#include "bench/common.hpp"

using namespace seqge;
using namespace seqge::bench;

int main(int argc, char** argv) {
  double scale = 0.4;
  std::int64_t dims = 32, trials = 3;
  std::string metrics_out;
  ArgParser args("bench_ablation", "design-choice ablations");
  args.add_double("scale", &scale, "cora twin scale");
  args.add_int("dims", &dims, "embedding dimensions");
  args.add_int("trials", &trials, "evaluation trials");
  add_metrics_flag(args, &metrics_out);
  if (!args.parse(argc, argv)) return 1;

  print_header("Ablations",
               "negative sharing / P reset policy / Alg1 vs Alg2 / "
               "numerics");

  const LabeledGraph data = load_twin(DatasetId::kCora, scale, 1);
  const auto t = static_cast<std::size_t>(trials);

  // --- 1 + 2 + 3: accuracy grid over model variants -------------------
  {
    Table table({"variant", "micro-F1", "train time (s)"});
    struct Variant {
      std::string name;
      std::string backend;
      NegativeMode mode;
      bool reset_p;
    };
    const Variant variants[] = {
        {"alg1, fresh negatives, P reset", "oselm",
         NegativeMode::kPerContext, true},
        {"alg1, shared negatives, P reset", "oselm",
         NegativeMode::kPerWalk, true},
        {"alg1, fresh negatives, persistent P", "oselm",
         NegativeMode::kPerContext, false},
        {"alg2, shared negatives, P reset", "oselm-dataflow",
         NegativeMode::kPerWalk, true},
        {"alg2, shared negatives, persistent P", "oselm-dataflow",
         NegativeMode::kPerWalk, false},
        {"original SGD (reference)", "original-sgd",
         NegativeMode::kPerContext, true},
    };
    for (const Variant& v : variants) {
      TrainConfig cfg;
      cfg.dims = static_cast<std::size_t>(dims);
      cfg.negative_mode = v.mode;
      cfg.reset_p_per_walk = v.reset_p;
      Rng rng(cfg.seed);
      auto model = make_backend(v.backend, data.graph.num_nodes(), cfg, rng);
      WallTimer timer;
      train_all(*model, data.graph, cfg, rng);
      const double secs = timer.seconds();
      const double f1 =
          mean_micro_f1(model->extract_embedding(), data.labels,
                        data.num_classes, ClassificationConfig{}, t,
                        cfg.seed);
      table.add_row({v.name, Table::fmt(f1), Table::fmt(secs, 2)});
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf("\n[negatives / P policy / algorithm]\n");
    table.print();
  }

  // --- 4: float dataflow vs fixed-point FPGA core ----------------------
  {
    TrainConfig cfg;
    cfg.dims = static_cast<std::size_t>(dims);
    const double f_float = train_all_f1("oselm-dataflow", data, cfg, t);
    const double f_fixed = train_all_f1("fpga", data, cfg, t);
    Table table({"numerics", "micro-F1"});
    table.add_row({"float32 (Algorithm 2)", Table::fmt(f_float)});
    table.add_row({"Q8.24 fixed point (HLS core)", Table::fmt(f_fixed)});
    std::printf("[numerics]\n");
    table.print();
  }
  if (!dump_metrics(metrics_out)) return 1;
  return 0;
}
