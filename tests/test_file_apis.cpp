// Tests for the path-based persistence APIs (graph I/O and model
// checkpoints on the filesystem) and the FPGA accelerator driving the
// full sequential scenario — the deployment loop an IoT device would
// actually run: restore checkpoint -> stream edges -> save checkpoint.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "embedding/checkpoint.hpp"
#include "embedding/oselm_skipgram.hpp"
#include "embedding/trainer.hpp"
#include "eval/node_classification.hpp"
#include "fpga/accelerator.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "linalg/kernels.hpp"
#include "serve/sharded_store.hpp"

namespace seqge {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("seqge_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

TEST(FileApis, GraphSaveLoadThroughPath) {
  TempDir dir;
  const LabeledGraph g = generate_dcsbm(
      {.num_nodes = 90, .target_edges = 360, .num_classes = 3, .seed = 1});
  const std::string path = dir.file("graph.txt");
  save_labeled_graph(path, g);
  const LabeledGraph g2 = load_labeled_graph(path);
  EXPECT_EQ(g2.graph.num_nodes(), g.graph.num_nodes());
  EXPECT_EQ(g2.graph.num_edges(), g.graph.num_edges());
  EXPECT_EQ(g2.labels, g.labels);
}

TEST(FileApis, GraphLoadMissingFileThrows) {
  EXPECT_THROW(load_labeled_graph("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

TEST(FileApis, CheckpointSaveLoadThroughPath) {
  TempDir dir;
  Rng rng(2);
  OselmSkipGram::Options opts;
  opts.dims = 8;
  OselmSkipGram model(15, opts, rng);
  const std::string path = dir.file("model.ckpt");
  save_model(path, model);

  Rng rng2(3);
  OselmSkipGram restored(15, opts, rng2);
  load_model(path, restored);
  EXPECT_DOUBLE_EQ(
      max_abs_diff(model.beta_transposed(), restored.beta_transposed()),
      0.0);
}

TEST(FileApis, CheckpointMissingFileThrows) {
  Rng rng(4);
  OselmSkipGram::Options opts;
  opts.dims = 4;
  OselmSkipGram model(5, opts, rng);
  EXPECT_THROW(load_model("/nonexistent/model.ckpt", model),
               std::runtime_error);
  EXPECT_THROW(save_model("/nonexistent/dir/model.ckpt", model),
               std::runtime_error);
}

/// Whole file as bytes ("" if it does not exist).
std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

TEST(FileApis, FailedSaveLeavesExistingCheckpointByteIdentical) {
  TempDir dir;
  Rng rng(5);
  OselmSkipGram::Options opts;
  opts.dims = 8;
  OselmSkipGram model(15, opts, rng);
  const std::string path = dir.file("model.ckpt");
  save_model(path, model);
  const std::string good = file_bytes(path);
  ASSERT_FALSE(good.empty());

  // An empty store throws inside the write: the checkpoint survives.
  serve::ShardedEmbeddingStore empty;
  EXPECT_THROW(empty.save(path), std::runtime_error);
  EXPECT_EQ(file_bytes(path), good);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // So does one whose writer throws half way, or leaves the stream bad.
  EXPECT_THROW(write_file_atomically(path,
                                     [](std::ostream& os) {
                                       os << "partial";
                                       throw std::runtime_error("crash");
                                     }),
               std::runtime_error);
  EXPECT_EQ(file_bytes(path), good);
  EXPECT_THROW(write_file_atomically(path,
                                     [](std::ostream& os) {
                                       os << "partial";
                                       os.setstate(std::ios::badbit);
                                     }),
               std::runtime_error);
  EXPECT_EQ(file_bytes(path), good);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(FileApis, SuccessfulSaveLeavesNoTempAndLoadsBack) {
  TempDir dir;
  const std::string model_path = dir.file("model.ckpt");
  const std::string store_path = dir.file("store.ckpt");
  Rng rng(6);
  OselmSkipGram::Options opts;
  opts.dims = 8;
  OselmSkipGram model(15, opts, rng);
  std::ofstream(model_path) << "stale";  // replaced whole
  save_model(model_path, model);
  EXPECT_FALSE(std::filesystem::exists(model_path + ".tmp"));
  Rng rng2(7);
  OselmSkipGram restored(15, opts, rng2);
  load_model(model_path, restored);
  EXPECT_DOUBLE_EQ(
      max_abs_diff(model.beta_transposed(), restored.beta_transposed()),
      0.0);

  serve::ShardedEmbeddingStore store(3);
  store.publish(model.extract_embedding());
  store.save(store_path);
  EXPECT_FALSE(std::filesystem::exists(store_path + ".tmp"));
  serve::ShardedEmbeddingStore loaded(2);
  EXPECT_EQ(loaded.load(store_path), 1u);
  EXPECT_DOUBLE_EQ(max_abs_diff(loaded.materialize(), store.materialize()),
                   0.0);

  // The temp file is fsynced before the rename: when that fails (here
  // the temp name links to /dev/null, which cannot be synced), the save
  // throws, the old checkpoint survives byte for byte, and no temp file
  // is left behind.
  const std::string good = file_bytes(model_path);
  std::filesystem::create_symlink("/dev/null", model_path + ".tmp");
  EXPECT_THROW(save_model(model_path, model), std::runtime_error);
  EXPECT_EQ(file_bytes(model_path), good);
  EXPECT_FALSE(std::filesystem::is_symlink(model_path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(model_path + ".tmp"));
  // A bare file name syncs the current directory.
  const auto cwd = std::filesystem::current_path();
  std::filesystem::current_path(
      std::filesystem::path(model_path).parent_path());
  save_model("bare.ckpt", model);
  EXPECT_FALSE(std::filesystem::exists("bare.ckpt.tmp"));
  EXPECT_EQ(file_bytes("bare.ckpt"), good);
  std::filesystem::current_path(cwd);
}

TEST(FpgaSequential, AcceleratorRunsSeqScenario) {
  // The accelerator as the training engine of the full "seq" loop —
  // exactly the deployment mode the paper targets.
  const LabeledGraph data = generate_dcsbm({.num_nodes = 100,
                                            .target_edges = 500,
                                            .num_classes = 3,
                                            .assortativity = 12.0,
                                            .seed = 5});
  fpga::AcceleratorConfig acfg;
  acfg.dims = 8;
  acfg.parallelism = 8;
  acfg.walk_length = 20;
  acfg.window = 5;
  acfg.negative_samples = 4;

  Rng rng(6);
  fpga::Accelerator accel(data.graph.num_nodes(), acfg, rng);

  SequentialConfig scfg;
  scfg.train.dims = acfg.dims;
  scfg.train.walk.walk_length = acfg.walk_length;
  scfg.train.walk.window = acfg.window;
  scfg.train.negative_samples = acfg.negative_samples;
  scfg.train.walks_per_node = 2;
  scfg.max_insertions = 50;

  const SequentialResult result =
      train_sequential(accel, data.graph, scfg, rng);
  EXPECT_EQ(result.insertions, 50u);
  EXPECT_EQ(accel.walks_processed(), result.stats.num_walks);
  EXPECT_GT(accel.simulated_seconds(), 0.0);

  const double f1 =
      mean_micro_f1(accel.extract_embedding(), data.labels,
                    data.num_classes, ClassificationConfig{}, 2, 7);
  EXPECT_GT(f1, 0.4) << "seq-trained fixed-point embedding must be usable";
}

TEST(FpgaSequential, ShortWalksCostLessSimTime) {
  // Walks in the seq scenario can be shorter than l when they hit
  // degree-0 nodes... on the forest they cannot, but the accelerator's
  // timing must still scale with actual contexts; verify with a
  // hand-fed short walk.
  fpga::AcceleratorConfig acfg;
  acfg.dims = 8;
  acfg.parallelism = 8;
  acfg.walk_length = 20;
  acfg.window = 5;
  acfg.negative_samples = 4;
  Rng rng(8);
  fpga::Accelerator accel(40, acfg, rng);
  const std::vector<std::uint64_t> counts(40, 1);
  NegativeSampler sampler(counts);

  std::vector<NodeId> full_walk(20);
  for (std::size_t i = 0; i < full_walk.size(); ++i) {
    full_walk[i] = static_cast<NodeId>(i);
  }
  accel.train_walk(full_walk, acfg.window, sampler, 4,
                   NegativeMode::kPerWalk, rng);
  const double t_full = accel.last_walk_timing().total_us;

  std::vector<NodeId> short_walk(full_walk.begin(), full_walk.begin() + 8);
  accel.train_walk(short_walk, acfg.window, sampler, 4,
                   NegativeMode::kPerWalk, rng);
  const double t_short = accel.last_walk_timing().total_us;
  EXPECT_LT(t_short, t_full);
}

}  // namespace
}  // namespace seqge
