// Sharded serving tests: copy-on-write delta publishing (row-copy
// accounting, bit-identity with the full-snapshot path, compaction),
// the torn-row/monotonicity hammer, fan-out/merge exact top-k
// bit-identical to a naive sorted scan at N in {1, 2, 3, 5, 7} (score
// ties included), partial-probe IVF answers against a naive per-centroid
// reference, incremental IVF maintenance and the pointer-diff
// refresh it runs on, the dirty-row bitset, server routing over a
// sharded store, checkpoint interop across shard counts, and how long a
// held snapshot's rows, chunks and dead bits stay valid.

#include <gtest/gtest.h>
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "embedding/backend_registry.hpp"
#include "embedding/sparse_delta.hpp"
#include "embedding/trainer.hpp"
#include "graph/generators.hpp"
#include "linalg/kernels.hpp"
#include "serve/embedding_server.hpp"
#include "serve/sharded_query.hpp"
#include "serve/sharded_store.hpp"
#include "util/rng.hpp"

namespace seqge::serve {
namespace {

MatrixF constant_matrix(std::size_t rows, std::size_t cols, float value) {
  MatrixF m(rows, cols);
  m.fill(value);
  return m;
}

MatrixF random_matrix(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  MatrixF m(rows, cols);
  Rng rng(seed);
  m.fill_uniform(rng, -1.0, 1.0);
  return m;
}

/// Delta payload for `touched`, value `v` in every entry.
MatrixF delta_rows(std::size_t count, std::size_t cols, float v) {
  return constant_matrix(count, cols, v);
}

/// Local rows whose row pointer differs between two snapshots of one
/// shard — the rows an incremental engine refresh re-normalizes.
std::vector<std::uint32_t> changed_rows(const ShardSnapshot& before,
                                        const ShardSnapshot& after) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t r = 0; r < after.num_rows(); ++r) {
    if (after.row_ptr(r) != before.row_ptr(r)) out.push_back(r);
  }
  return out;
}

/// Shard counts every exact-path regression test runs at.
constexpr std::size_t kShardCounts[] = {1, 2, 3, 5, 7};

/// Naive exact top-k reference: every row scored with the engine's
/// normalization (l2_normalize_rows) and kernel (dot<float>), then a
/// full sort by score descending, node ascending.
std::vector<Neighbor> naive_topk(const MatrixF& m, NodeId u,
                                 std::size_t k) {
  MatrixF rows = m;
  l2_normalize_rows(rows);
  std::vector<Neighbor> all;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    if (r == u) continue;
    all.push_back({static_cast<NodeId>(r), dot<float>(rows.row(r),
                                                      rows.row(u))});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  });
  all.resize(std::min(k, all.size()));
  return all;
}

/// Node-for-node, bit-for-bit equality with the naive reference.
void expect_matches_naive(const ShardedQueryEngine& engine, const MatrixF& m,
                          NodeId u, std::size_t k) {
  const auto expect = naive_topk(m, u, k);
  const auto got = engine.topk(u, k);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i].node, expect[i].node) << "u=" << u << " i=" << i;
    EXPECT_EQ(got[i].score, expect[i].score) << "u=" << u << " i=" << i;
  }
}

/// Naive partial-probe IVF reference for cosine queries. Each shard's
/// quantizer is rebuilt from the shard's normalized rows with the
/// engine's config (its k-means is deterministic); every row's cell is
/// checked against a per-centroid dot() argmax (strict >, so ties go to
/// the lower centroid id). The query then scores every centroid with
/// dot(), probes the `nprobe` best cells per shard (ties to the lower
/// id), scores each member row with dot(), and sorts all candidates by
/// score descending, node ascending.
std::vector<Neighbor> naive_ivf_topk(const ShardedEmbeddingStore& store,
                                     const MatrixF& m, NodeId u,
                                     std::size_t k, const IndexConfig& cfg,
                                     std::size_t nprobe) {
  std::vector<float> q(m.row(u).begin(), m.row(u).end());
  l2_normalize(q);
  std::vector<Neighbor> all;
  for (const auto& snap : store.view()) {
    MatrixF rows(snap->num_rows(), m.cols());
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      copy<float>(m.row(snap->row_begin + r), rows.row(r));
    }
    l2_normalize_rows(rows);
    IvfIndex ivf;
    ivf.build(rows, cfg);
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      std::size_t best = 0;
      float best_dot = -2.0f;
      for (std::size_t c = 0; c < ivf.nlist(); ++c) {
        const float d = dot<float>(ivf.centroids.row(c), rows.row(r));
        if (d > best_dot) {
          best_dot = d;
          best = c;
        }
      }
      EXPECT_EQ(ivf.cell[r], best) << "row " << snap->row_begin + r;
      EXPECT_EQ(ivf.cell_dot[r], best_dot) << "row " << snap->row_begin + r;
    }
    std::vector<Neighbor> cells;
    for (std::size_t c = 0; c < ivf.nlist(); ++c) {
      cells.push_back({static_cast<NodeId>(c),
                       dot<float>(ivf.centroids.row(c), q)});
    }
    std::sort(cells.begin(), cells.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.score != b.score ? a.score > b.score
                                          : a.node < b.node;
              });
    cells.resize(std::min(nprobe, cells.size()));
    for (const Neighbor& cell : cells) {
      for (std::size_t r = 0; r < rows.rows(); ++r) {
        const NodeId node = snap->row_begin + static_cast<NodeId>(r);
        if (ivf.cell[r] != cell.node || node == u) continue;
        all.push_back({node, dot<float>(rows.row(r), q)});
      }
    }
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  });
  all.resize(std::min(k, all.size()));
  return all;
}

/// Node-for-node, bit-for-bit equality of a partial-probe IVF answer
/// with naive_ivf_topk.
void expect_matches_naive_ivf(const ShardedQueryEngine& engine,
                              const ShardedEmbeddingStore& store,
                              const MatrixF& m, NodeId u, std::size_t k) {
  const IndexConfig& cfg = engine.config().index;
  const auto expect = naive_ivf_topk(store, m, u, k, cfg, cfg.nprobe);
  const auto got = engine.topk(u, k);
  ASSERT_EQ(got.size(), expect.size()) << "u=" << u;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i].node, expect[i].node) << "u=" << u << " i=" << i;
    EXPECT_EQ(got[i].score, expect[i].score) << "u=" << u << " i=" << i;
  }
}

// --- layout ---------------------------------------------------------------

TEST(ShardLayout, PartitionsTheNodeRange) {
  ShardLayout layout{4, 10, 3};  // ceil(10/4) == 3
  EXPECT_EQ(layout.begin(0), 0u);
  EXPECT_EQ(layout.rows(0), 3u);
  EXPECT_EQ(layout.begin(3), 9u);
  EXPECT_EQ(layout.rows(3), 1u);
  EXPECT_EQ(layout.shard_of(0), 0u);
  EXPECT_EQ(layout.shard_of(9), 3u);
  std::size_t total = 0;
  for (std::size_t s = 0; s < 4; ++s) total += layout.rows(s);
  EXPECT_EQ(total, 10u);
}

// --- publishing -----------------------------------------------------------

TEST(ShardedEmbeddingStore, FullPublishPopulatesEveryShard) {
  ShardedEmbeddingStore store(4);
  EXPECT_EQ(store.version(), 0u);
  EXPECT_TRUE(store.view().empty());

  const MatrixF m = random_matrix(10, 3, 1);
  EXPECT_EQ(store.publish(MatrixF(m), 42, "test"), 1u);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.num_rows(), 10u);
  EXPECT_EQ(store.walks_trained(), 42u);
  EXPECT_EQ(store.producer(), "test");

  const auto shards = store.view();
  ASSERT_EQ(shards.size(), 4u);
  for (const auto& s : shards) {
    EXPECT_EQ(s->version, 1u);
    EXPECT_EQ(s->base_version, 1u);
    // A fresh base: every row points into the one base buffer all
    // shards share, at its own position.
    EXPECT_EQ(s->delta_chain(), 0u);
    EXPECT_EQ(s->buffers->prev, nullptr);
    const MatrixF* base = s->buffers->rows.get();
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(base, shards[0]->buffers->rows.get());
    for (std::size_t r = 0; r < s->num_rows(); ++r) {
      EXPECT_EQ(s->row_ptr(r), base->row(s->row_begin + r).data());
    }
    for (std::size_t r = 0; r < s->num_rows(); ++r) {
      EXPECT_EQ(std::vector<float>(s->row(r).begin(), s->row(r).end()),
                std::vector<float>(m.row(s->row_begin + r).begin(),
                                   m.row(s->row_begin + r).end()));
    }
  }
  EXPECT_DOUBLE_EQ(max_abs_diff(store.materialize(), m), 0.0);
}

TEST(ShardedEmbeddingStore, BadPublishesRejected) {
  ShardedEmbeddingStore store(2);
  EXPECT_THROW(store.publish(MatrixF{}), std::invalid_argument);
  EXPECT_THROW(
      store.publish_delta(std::vector<NodeId>{0}, delta_rows(1, 2, 0.0f)),
      std::logic_error);  // no base yet
  EXPECT_THROW(store.materialize(), std::runtime_error);

  store.publish(constant_matrix(6, 2, 1.0f));
  // Shape must stay fixed after the first publish.
  EXPECT_THROW(store.publish(constant_matrix(7, 2, 1.0f)),
               std::invalid_argument);
  // Touched must be ascending, unique, in range; rows must match.
  EXPECT_THROW(store.publish_delta(std::vector<NodeId>{3, 1},
                                   delta_rows(2, 2, 0.0f)),
               std::invalid_argument);
  EXPECT_THROW(store.publish_delta(std::vector<NodeId>{1, 1},
                                   delta_rows(2, 2, 0.0f)),
               std::invalid_argument);
  EXPECT_THROW(store.publish_delta(std::vector<NodeId>{6},
                                   delta_rows(1, 2, 0.0f)),
               std::invalid_argument);
  EXPECT_THROW(store.publish_delta(std::vector<NodeId>{1},
                                   delta_rows(2, 2, 0.0f)),
               std::invalid_argument);
  EXPECT_THROW(store.publish_delta(std::vector<NodeId>{1},
                                   delta_rows(1, 3, 0.0f)),
               std::invalid_argument);
}

TEST(ShardedEmbeddingStore, DeltaPublishSwapsOnlyTouchedShards) {
  ShardedEmbeddingStore store(4);
  MatrixF reference = random_matrix(12, 3, 2);
  store.publish(MatrixF(reference));
  const auto before = store.view();

  // Touch rows 1 and 4 — shards 0 and 1 (rows_per_shard == 3).
  const std::vector<NodeId> touched = {1, 4};
  MatrixF rows = delta_rows(2, 3, 9.0f);
  EXPECT_EQ(store.publish_delta(touched, MatrixF(rows)), 2u);
  for (std::size_t i = 0; i < touched.size(); ++i) {
    auto dst = reference.row(touched[i]);
    auto src = rows.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }

  const auto after = store.view();
  EXPECT_EQ(after[0]->version, 2u);
  EXPECT_EQ(after[0]->base_version, 1u);
  EXPECT_EQ(changed_rows(*before[0], *after[0]),
            (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(after[1]->version, 2u);
  EXPECT_EQ(changed_rows(*before[1], *after[1]),
            (std::vector<std::uint32_t>{1}));  // local row of node 4
  // Untouched shards: the very same snapshot object, not even swapped.
  EXPECT_EQ(after[2], before[2]);
  EXPECT_EQ(after[3], before[3]);

  EXPECT_DOUBLE_EQ(max_abs_diff(store.materialize(), reference), 0.0);
  // Untouched rows of a touched shard are shared, not copied: the row
  // pointers must be identical to the previous snapshot's.
  EXPECT_EQ(after[0]->row(0).data(), before[0]->row(0).data());
  EXPECT_EQ(after[0]->row(2).data(), before[0]->row(2).data());
  EXPECT_NE(after[0]->row(1).data(), before[0]->row(1).data());
}

TEST(ShardedEmbeddingStore, RowsCopiedCountsBasePlusExactlyTouched) {
  // Every compaction trigger disabled (cost factor 0) so the
  // accounting below is exact.
  ShardedEmbeddingStore store(
      ShardedEmbeddingStore::Config{4, 1u << 20, 0.0});
  store.publish(random_matrix(100, 4, 3));
  EXPECT_EQ(store.rows_copied(), 100u);

  // K delta publishes of T rows each: the store copies exactly K * T
  // rows — the copy-on-write publish-cost contract.
  std::uint64_t touched_total = 0;
  for (std::size_t k = 0; k < 10; ++k) {
    std::vector<NodeId> touched = {static_cast<NodeId>(3 * k),
                                   static_cast<NodeId>(3 * k + 1),
                                   static_cast<NodeId>(50 + 2 * k)};
    store.publish_delta(touched, delta_rows(3, 4, static_cast<float>(k)));
    touched_total += touched.size();
  }
  EXPECT_EQ(store.compactions(), 0u);
  EXPECT_EQ(store.rows_copied(), 100u + touched_total);
  EXPECT_EQ(store.delta_publishes(), 10u);
  EXPECT_EQ(store.full_publishes(), 1u);
}

TEST(ShardedEmbeddingStore, CompactionBoundsDeltaChainsAndKeepsContents) {
  // max_delta_chain == 2: the third delta stacked on one shard compacts.
  ShardedEmbeddingStore store(ShardedEmbeddingStore::Config{2, 2});
  MatrixF reference = random_matrix(8, 2, 4);
  store.publish(MatrixF(reference));

  for (std::size_t k = 0; k < 6; ++k) {
    const std::vector<NodeId> touched = {static_cast<NodeId>(k % 4)};
    const MatrixF rows = delta_rows(1, 2, static_cast<float>(10 + k));
    auto dst = reference.row(touched[0]);
    std::copy(rows.row(0).begin(), rows.row(0).end(), dst.begin());
    store.publish_delta(touched, MatrixF(rows));
    const auto snap = store.shard(0);
    EXPECT_LE(snap->delta_chain(), 2u);
  }
  EXPECT_GT(store.compactions(), 0u);
  EXPECT_DOUBLE_EQ(max_abs_diff(store.materialize(), reference), 0.0);
  // A compaction rebases the shard.
  EXPECT_GT(store.shard(0)->base_version, 1u);
}

// --- SnapshotSink delta integration ---------------------------------------

TEST(ShardedDeltaPublishing, TrainerDeltasReproduceFullStateExactly) {
  // Large enough that an 8-insertion window touches well under half
  // the rows — past half, on_delta deliberately rebases instead.
  const Graph graph = make_barabasi_albert(1200, 3, 11);
  TrainConfig cfg;
  cfg.dims = 8;
  cfg.seed = 5;
  cfg.negative_mode = NegativeMode::kPerWalk;
  cfg.walk.walk_length = 15;
  cfg.walk.window = 4;
  cfg.negative_samples = 5;

  auto store = std::make_shared<ShardedEmbeddingStore>(8);
  Rng rng(cfg.seed);
  auto model = make_backend("oselm", graph.num_nodes(), cfg, rng);

  SequentialConfig scfg;
  scfg.train = cfg;
  scfg.initial_walks_per_node = 1;
  scfg.max_insertions = 40;
  scfg.pipeline.snapshot_sink = store.get();
  scfg.snapshot_every_insertions = 8;
  const SequentialResult result =
      train_sequential(*model, graph, scfg, rng);

  ASSERT_GT(result.insertions, 0u);
  EXPECT_GT(store->delta_publishes(), 0u);
  // The delta path must land the sink on exactly the state a full
  // extract would give — bit-identical, not approximately.
  EXPECT_DOUBLE_EQ(
      max_abs_diff(store->materialize(), model->extract_embedding()), 0.0);
}

// Regression for the publish-cost contract: a cadence publish after K
// sequential insertions deep-copies at most the rows those insertions
// could have touched (2 walks of walk_length nodes + the shared
// negatives per insertion) — never O(n) per publish.
TEST(ShardedDeltaPublishing, SequentialPublishCopiesAtMostTouchedRows) {
  const Graph graph = make_barabasi_albert(1500, 3, 13);
  TrainConfig cfg;
  cfg.dims = 8;
  cfg.seed = 17;
  cfg.negative_mode = NegativeMode::kPerWalk;
  cfg.walk.walk_length = 20;
  cfg.walk.window = 4;
  cfg.negative_samples = 5;

  // Compaction disabled (chain and cost triggers) so the accounting
  // below is exact.
  auto store = std::make_shared<ShardedEmbeddingStore>(
      ShardedEmbeddingStore::Config{8, 1u << 20, 0.0});
  Rng rng(cfg.seed);
  auto model = make_backend("oselm", graph.num_nodes(), cfg, rng);

  SequentialConfig scfg;
  scfg.train = cfg;
  scfg.initial_walks_per_node = 1;
  scfg.max_insertions = 48;
  scfg.pipeline.snapshot_sink = store.get();
  scfg.snapshot_every_insertions = 8;
  train_sequential(*model, graph, scfg, rng);

  const std::uint64_t full = store->full_publishes();
  const std::uint64_t deltas = store->delta_publishes();
  ASSERT_GE(deltas, 4u);
  // Worst-case touched rows per 8-insertion window: 2 walks x
  // (walk_length nodes + negative_samples shared negatives) each.
  const std::uint64_t per_publish_bound =
      8 * 2 * (cfg.walk.walk_length + cfg.negative_samples);
  const std::uint64_t copied = store->rows_copied();
  EXPECT_LE(copied,
            full * graph.num_nodes() + deltas * per_publish_bound);
  // And the delta path must be far below republished-full cost.
  EXPECT_LT(copied, (full + deltas) * graph.num_nodes());
}

// --- concurrent hammer ----------------------------------------------------

// One publisher alternates full publishes with random-subset delta
// publishes; every published row is uniform in the publishing version,
// so readers can detect (a) torn rows — mixed values inside one row,
// (b) time travel — a row newer than the shard's advertised version,
// (c) non-monotonic shard or store versions.
TEST(ShardedEmbeddingStore, ConcurrentReadersSeeConsistentShards) {
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kCols = 16;
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kPublishes = 300;
  constexpr std::size_t kReaders = 4;

  ShardedEmbeddingStore store(kShards);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> future_rows{0};
  std::atomic<std::uint64_t> non_monotonic{0};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::uint64_t> last_shard_seen(kShards, 0);
      std::uint64_t last_store_seen = 0;
      Rng rng(1000 + t);
      for (std::size_t i = 0;
           i < 500 || !done.load(std::memory_order_acquire); ++i) {
        const std::uint64_t sv = store.version();
        if (sv < last_store_seen) non_monotonic.fetch_add(1);
        last_store_seen = sv;
        if (sv == 0) continue;
        const std::size_t s = rng.bounded(kShards);
        const auto snap = store.shard(s);
        if (snap == nullptr) continue;
        if (snap->version < last_shard_seen[s]) non_monotonic.fetch_add(1);
        last_shard_seen[s] = snap->version;
        for (std::size_t r = 0; r < snap->num_rows(); ++r) {
          const auto row = snap->row(r);
          const float v0 = row[0];
          for (float v : row) {
            if (v != v0) {
              torn.fetch_add(1);
              break;
            }
          }
          if (static_cast<std::uint64_t>(v0) > snap->version) {
            future_rows.fetch_add(1);
          }
        }
        reads.fetch_add(1);
      }
    });
  }

  Rng prng(7);
  for (std::uint64_t p = 1; p <= kPublishes; ++p) {
    const auto value = static_cast<float>(p);
    if (p == 1 || p % 10 == 0) {
      store.publish(constant_matrix(kRows, kCols, value), p, "pub");
    } else {
      std::vector<NodeId> touched;
      for (NodeId r = 0; r < kRows; ++r) {
        if (prng.bounded(8) == 0) touched.push_back(r);
      }
      store.publish_delta(touched,
                          delta_rows(touched.size(), kCols, value), p,
                          "pub");
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(future_rows.load(), 0u);
  EXPECT_EQ(non_monotonic.load(), 0u);
  EXPECT_EQ(store.version(), kPublishes);
  EXPECT_GT(reads.load(), 0u);
}

// --- ShardedQueryEngine ---------------------------------------------------

TEST(ShardedQueryEngine, ExactFanOutMatchesNaiveScanAtEveryShardCount) {
  const MatrixF m = random_matrix(500, 16, 21);
  for (std::size_t num_shards : kShardCounts) {
    ShardedEmbeddingStore store(num_shards);
    store.publish(MatrixF(m));
    const ShardedQueryEngine sharded(store);
    EXPECT_EQ(sharded.num_shards(), num_shards);

    for (NodeId u : {NodeId{0}, NodeId{123}, NodeId{250}, NodeId{499}}) {
      expect_matches_naive(sharded, m, u, 10);
    }
    // Edge scores are exactly the offline evaluation scorer's.
    for (const EdgeScore kind :
         {EdgeScore::kDot, EdgeScore::kCosine, EdgeScore::kHadamardL2}) {
      EXPECT_EQ(sharded.score(3, 77, kind), score_edge(m, 3, 77, kind));
    }
  }
}

TEST(ShardedQueryEngine, FanOutBreaksScoreTiesLikeNaiveScan) {
  // Tie-heavy matrix: every row is one of 4 distinct vectors, so the
  // top-k cutoff lands inside a large equal-score group and the result
  // is decided purely by tie-breaking (ascending node id). The
  // per-shard merge must reproduce the naive sort's choices even when
  // ties straddle shard boundaries. The same rows through a partial-
  // probe IVF index (nprobe < nlist in every shard) pin the quantizer's
  // tie rules too: k-means seeds many identical centroids here, so
  // nearest-cell assignment and cell probing both break exact ties.
  MatrixF m(240, 8);
  const MatrixF basis = random_matrix(4, 8, 31);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto src = basis.row(r % 4);
    std::copy(src.begin(), src.end(), m.row(r).begin());
  }

  for (std::size_t num_shards : kShardCounts) {
    ShardedEmbeddingStore store(num_shards);
    store.publish(MatrixF(m));
    const ShardedQueryEngine engine(store);
    ShardedIndexConfig icfg;
    icfg.index.kind = IndexConfig::Kind::kIvf;
    icfg.index.nprobe = 2;  // nlist = ~sqrt(shard rows) >= 5
    const ShardedQueryEngine ivf(store, icfg);
    for (NodeId u : {NodeId{0}, NodeId{5}, NodeId{77}, NodeId{239}}) {
      expect_matches_naive(engine, m, u, 10);
      expect_matches_naive_ivf(ivf, store, m, u, 10);
    }
  }
}

TEST(ShardedEmbeddingStore, CompactionIsScheduledByDeltaCostNotChainDepth) {
  // 100 rows over 4 shards (25 rows each), 2 touched rows per shard per
  // publish. An eager chain trigger would compact every shard on nearly
  // every publish past the chain bound; the cost trigger compacts a
  // shard only once compact_cost_factor x 25 delta rows have
  // accumulated since its base.
  const ShardedEmbeddingStore::Config cfg{4};
  ShardedEmbeddingStore store(cfg);
  store.publish(random_matrix(100, 4, 41));
  const auto every = static_cast<std::size_t>(
      std::ceil(cfg.compact_cost_factor * 25.0 / 2.0));

  const std::size_t publishes = 2 * every + every / 2;
  for (std::size_t k = 0; k < publishes; ++k) {
    std::vector<NodeId> touched;
    for (std::size_t s = 0; s < 4; ++s) {
      const NodeId begin = static_cast<NodeId>(25 * s);
      touched.push_back(begin);
      touched.push_back(begin + 1);
    }
    store.publish_delta(touched, delta_rows(touched.size(), 4,
                                            static_cast<float>(k)));
  }
  // Two compactions per shard, not one per publish.
  EXPECT_EQ(store.compactions(), 8u);
  // Each compaction rebases its shard, so every delta chain stays far
  // below the publish count.
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(store.shard(s)->delta_chain(), every / 2);
  }
}

TEST(ShardedEmbeddingStore, DistinctRowsDoNotCompactBeforeTheCostTrigger) {
  // One 10-row shard at the default config, 2 rows republished per
  // publish, sweeping the shard: after three publishes more than half
  // its rows have left the base, yet it compacts only once the appended
  // delta rows reach compact_cost_factor x 10.
  const ShardedEmbeddingStore::Config cfg;
  ShardedEmbeddingStore store(cfg);
  store.publish(random_matrix(10, 2, 43));
  const auto trigger =
      static_cast<std::uint64_t>(std::ceil(cfg.compact_cost_factor * 10.0));
  ASSERT_GT(trigger, 6u);

  std::uint64_t appended = 0;
  for (std::uint32_t k = 0; appended + 2 < trigger; ++k) {
    const std::vector<NodeId> touched = {(2 * k) % 10, (2 * k + 1) % 10};
    const auto before = store.shard(0);
    store.publish_delta(touched, delta_rows(2, 2, static_cast<float>(k)));
    appended += 2;
    const auto after = store.shard(0);
    ASSERT_EQ(store.compactions(), 0u) << "after " << appended << " rows";
    EXPECT_EQ(after->base_version, 1u);
    EXPECT_EQ(after->delta_rows_since_base, appended);
    // Exactly the touched rows moved to new addresses.
    EXPECT_EQ(changed_rows(*before, *after),
              std::vector<std::uint32_t>(touched.begin(), touched.end()));
  }
  // A bitmap-only publish moves no row and appends none.
  const auto before = store.shard(0);
  store.publish_delta({}, MatrixF{}, 0, {}, std::vector<NodeId>{7, 8});
  EXPECT_TRUE(changed_rows(*before, *store.shard(0)).empty());
  EXPECT_EQ(store.shard(0)->delta_rows_since_base, appended);
  // The publish that reaches the trigger compacts, keeping the dead
  // bits.
  const std::vector<NodeId> last = {0, 1};
  store.publish_delta(last, delta_rows(2, 2, -1.0f));
  EXPECT_EQ(store.compactions(), 1u);
  const auto compacted = store.shard(0);
  EXPECT_EQ(compacted->base_version, store.version());
  EXPECT_EQ(compacted->delta_rows_since_base, 0u);
  EXPECT_TRUE(compacted->tombstoned(7));
  EXPECT_TRUE(compacted->tombstoned(8));
}

TEST(ShardedQueryEngine, MatchesNaiveScanAfterDeltaPublishes) {
  for (std::size_t num_shards : kShardCounts) {
    MatrixF m = random_matrix(300, 8, 23);
    ShardedEmbeddingStore store(num_shards);
    store.publish(MatrixF(m));

    // Apply the same updates to the sharded store (as deltas) and to
    // the reference matrix (in place).
    Rng rng(9);
    for (int round = 0; round < 5; ++round) {
      std::vector<NodeId> touched;
      for (NodeId r = 0; r < 300; ++r) {
        if (rng.bounded(10) == 0) touched.push_back(r);
      }
      MatrixF rows(touched.size(), 8);
      rows.fill_uniform(rng, -1.0, 1.0);
      for (std::size_t i = 0; i < touched.size(); ++i) {
        auto dst = m.row(touched[i]);
        auto src = rows.row(i);
        std::copy(src.begin(), src.end(), dst.begin());
      }
      store.publish_delta(touched, std::move(rows));
    }

    const ShardedQueryEngine sharded(store);
    for (NodeId u = 0; u < 300; u += 37) {
      expect_matches_naive(sharded, m, u, 8);
    }
  }
}

TEST(ShardedQueryEngine, BadInputsThrow) {
  ShardedEmbeddingStore empty(2);
  EXPECT_THROW(ShardedQueryEngine{empty}, std::invalid_argument);

  ShardedEmbeddingStore store(2);
  store.publish(random_matrix(10, 4, 1));
  const ShardedQueryEngine engine(store);
  EXPECT_THROW(engine.topk(NodeId{10}, 3), std::invalid_argument);
  const std::vector<float> wrong_dims(3, 0.0f);
  EXPECT_THROW(engine.topk(std::span<const float>(wrong_dims), 3),
               std::invalid_argument);
  EXPECT_EQ(engine.topk(NodeId{0}, 100).size(), 9u);  // k clamped
}

/// Clustered rows (IVF's regime): `clusters` directions + jitter.
MatrixF clustered_matrix(std::size_t n, std::size_t dims,
                         std::size_t clusters, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF centers(clusters, dims);
  centers.fill_gaussian(rng, 1.0);
  MatrixF m(n, dims);
  for (std::size_t r = 0; r < n; ++r) {
    const auto c = centers.row(r % clusters);
    auto row = m.row(r);
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = c[d] + static_cast<float>(rng.gaussian() * 0.15);
    }
  }
  return m;
}

TEST(ShardedQueryEngine, IvfFullProbeMatchesExactAndRecallIsHigh) {
  const MatrixF m = clustered_matrix(2000, 16, 20, 31);
  ShardedEmbeddingStore store(4);
  store.publish(MatrixF(m));

  const ShardedQueryEngine exact(store);
  ShardedIndexConfig icfg;
  icfg.index.kind = IndexConfig::Kind::kIvf;
  icfg.index.nlist = 16;  // per shard
  icfg.index.nprobe = 4;
  const ShardedQueryEngine ivf(store, icfg);

  double recall_sum = 0.0;
  constexpr std::size_t kQueries = 40;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const auto u = static_cast<NodeId>(q * 47 % 2000);
    const auto truth = exact.topk(u, 10);
    // nprobe >= nlist degenerates to the exact scan.
    const auto full = ivf.topk(u, 10, /*nprobe=*/16);
    EXPECT_DOUBLE_EQ(recall_at_k(truth, full), 1.0);
    recall_sum += recall_at_k(truth, ivf.topk(u, 10));
    // The partial probe itself is the naive IVF reference's answer.
    expect_matches_naive_ivf(ivf, store, m, u, 10);
  }
  EXPECT_GE(recall_sum / kQueries, 0.9);
}

TEST(ShardedQueryEngine, IncrementalRefreshReusesAndReassignsSelectively) {
  const MatrixF m = clustered_matrix(1200, 16, 12, 41);
  ShardedEmbeddingStore store(6);
  store.publish(MatrixF(m));

  ShardedIndexConfig icfg;
  icfg.index.kind = IndexConfig::Kind::kIvf;
  icfg.index.nlist = 8;
  icfg.index.nprobe = 8;  // per-shard exact fallback: recall checks easy
  icfg.reassign_threshold = 0.05f;
  const ShardedQueryEngine base(store, icfg);
  EXPECT_EQ(base.refresh_stats().shards_rebuilt, 6u);

  // Delta: rows 0..9 flip direction entirely (must re-assign); rows
  // 600..604 get a tiny nudge (must not).
  MatrixF cur = m;
  std::vector<NodeId> touched;
  MatrixF rows(15, 16);
  for (std::size_t i = 0; i < 10; ++i) {
    touched.push_back(static_cast<NodeId>(i));
    auto src = m.row(i);
    auto dst = rows.row(i);
    for (std::size_t d = 0; d < 16; ++d) {
      dst[d] = cur.row(i)[d] = -src[d] + 0.3f;
    }
  }
  for (std::size_t i = 0; i < 5; ++i) {
    touched.push_back(static_cast<NodeId>(600 + i));
    auto src = m.row(600 + i);
    auto dst = rows.row(10 + i);
    for (std::size_t d = 0; d < 16; ++d) {
      dst[d] = cur.row(600 + i)[d] = src[d] * 1.0001f;
    }
  }
  store.publish_delta(touched, std::move(rows));

  const ShardedQueryEngine refreshed(store, icfg, &base);
  const auto& stats = refreshed.refresh_stats();
  // Rows 0..9 live in shard 0, rows 600..604 in shard 3: exactly two
  // shards refreshed, the other four shared untouched.
  EXPECT_EQ(stats.shards_refreshed, 2u);
  EXPECT_EQ(stats.shards_reused, 4u);
  EXPECT_EQ(stats.shards_rebuilt, 0u);
  EXPECT_EQ(stats.rows_updated, 15u);
  // The flipped rows moved past the threshold; the nudged ones did not.
  EXPECT_GE(stats.rows_reassigned, 1u);
  EXPECT_LE(stats.rows_reassigned, 10u);
  EXPECT_EQ(refreshed.version(), store.version());

  // The refreshed engine serves the *new* values (exact path check
  // against a from-scratch engine).
  const ShardedQueryEngine fresh(store, icfg);
  for (NodeId u : {NodeId{0}, NodeId{5}, NodeId{602}, NodeId{1100}}) {
    const auto a = refreshed.topk(u, 5);
    const auto b = fresh.topk(u, 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }

  // The re-assignment re-packed the shard's rows into the new list
  // order. Probe 3 of 8 cells so the stripes themselves are scanned; a
  // fresh engine is no reference here, as it re-clusters. Every served score must be the exact cosine of
  // the node it names, and recall must hold.
  MatrixF unit = cur;
  l2_normalize_rows(unit);
  double recall = 0.0;
  std::size_t queries = 0;
  for (NodeId u = 0; u < 1200; u += (u < 10 ? 1 : 37)) {
    const auto got = refreshed.topk(u, 10, 3);
    ASSERT_EQ(got.size(), 10u);
    for (const Neighbor& n : got) {
      EXPECT_EQ(n.score, dot<float>(unit.row(n.node), unit.row(u)))
          << "u=" << u << " v=" << n.node;
    }
    recall += recall_at_k(naive_topk(cur, u, 10), got);
    ++queries;
  }
  EXPECT_GE(recall / static_cast<double>(queries), 0.9);
  // A re-assigned row sits in its nearest cell: one probe with its
  // own vector finds it first.
  for (NodeId u = 0; u < 10; ++u) {
    const auto top = refreshed.topk(cur.row(u), 1, ~NodeId{0}, 1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].node, u);
  }
}

// --- pointer-diff refresh ---------------------------------------------------

/// Top-k of every node, nodes and scores bit-identical between two
/// engines.
void expect_same_answers(const ShardedQueryEngine& a,
                         const ShardedQueryEngine& b, std::size_t n) {
  for (NodeId u = 0; u < n; ++u) {
    const auto x = a.topk(u, 10);
    const auto y = b.topk(u, 10);
    ASSERT_EQ(x.size(), y.size()) << "u=" << u;
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].node, y[i].node) << "u=" << u << " i=" << i;
      EXPECT_EQ(x[i].score, y[i].score) << "u=" << u << " i=" << i;
    }
  }
}

/// One publish of the refresh regression sequence over a 4 x 100-row
/// store: row deltas (`touched`, fresh random values) or, with
/// `killed`, a bitmap-only publish.
struct RefreshStep {
  std::vector<NodeId> touched;
  std::vector<NodeId> killed;
};

/// Re-touched rows (P2), a bitmap-only publish (P3), a revival (P4),
/// then 60 rows of shard 3 — past its cost trigger in the store of
/// refresh_store_config(), so shard 3 compacts (P5).
std::vector<RefreshStep> refresh_sequence() {
  std::vector<RefreshStep> steps = {
      {{3, 17, 120, 205, 310}, {}},
      {{3, 17, 18, 250, 311}, {}},
      {{}, {40, 150, 260}},
      {{40, 120, 399}, {}},
      {{}, {}},
  };
  for (NodeId r = 300; r < 360; ++r) steps.back().touched.push_back(r);
  return steps;
}

/// 4 shards, the cost trigger at half a shard (50 rows): only P5 of
/// refresh_sequence() takes a shard past it.
ShardedEmbeddingStore::Config refresh_store_config() {
  return ShardedEmbeddingStore::Config{4, 512, 0.5};
}

void apply_step(ShardedEmbeddingStore& store, const RefreshStep& step,
                Rng& rng) {
  MatrixF rows(step.touched.size(), 16);
  rows.fill_uniform(rng, -1.0, 1.0);
  store.publish_delta(step.touched, std::move(rows), 0, {}, step.killed);
}

TEST(ShardedQueryEngine, PointerDiffRefreshMatchesFreshBruteForce) {
  ShardedEmbeddingStore store(refresh_store_config());
  store.publish(clustered_matrix(400, 16, 8, 71));
  auto engine = std::make_unique<ShardedQueryEngine>(store);
  Rng rng(72);
  bool saw_compaction = false;
  for (const RefreshStep& step : refresh_sequence()) {
    const auto before = store.view();
    apply_step(store, step, rng);
    auto next = std::make_unique<ShardedQueryEngine>(store,
                                                     ShardedIndexConfig{},
                                                     engine.get());
    // In every shard refreshed rather than rebuilt, exactly the touched
    // rows have new pointers, and rows_updated counts them: the
    // distinct rows rewritten since the previous engine.
    std::size_t expected = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      const auto snap = store.shard(s);
      if (snap->base_version > before[s]->version) {
        saw_compaction = true;
        continue;
      }
      std::vector<std::uint32_t> local;
      for (NodeId r : step.touched) {
        if (r / 100 == s) local.push_back(r % 100);
      }
      EXPECT_EQ(changed_rows(*before[s], *snap), local);
      expected += local.size();
    }
    EXPECT_EQ(next->refresh_stats().rows_updated, expected);
    expect_same_answers(*next, ShardedQueryEngine(store), 400);
    engine = std::move(next);
  }
  EXPECT_TRUE(saw_compaction);
  EXPECT_EQ(engine->refresh_stats().shards_rebuilt, 1u);  // shard 3
}

TEST(ShardedQueryEngine, IvfRefreshedOnceMatchesRefreshedEveryPublish) {
  // A negative threshold re-assigns every changed row and a huge one
  // none: either way a row's cell depends on its final value only, so
  // one refresh across several publishes must serve exactly what a
  // refresh at every publish serves — if a row changed in an earlier
  // publish were skipped, its stale normalized value would show.
  for (const float threshold : {-3.0f, 10.0f}) {
    SCOPED_TRACE(threshold);
    ShardedEmbeddingStore store(refresh_store_config());
    store.publish(clustered_matrix(400, 16, 8, 81));
    ShardedIndexConfig icfg;
    icfg.index.kind = IndexConfig::Kind::kIvf;
    icfg.index.nlist = 8;
    icfg.index.nprobe = 3;
    icfg.reassign_threshold = threshold;
    const ShardedQueryEngine base(store, icfg);
    auto every = std::make_unique<ShardedQueryEngine>(store, icfg);

    Rng rng(82);
    const auto steps = refresh_sequence();
    std::vector<NodeId> rewritten;
    for (std::size_t i = 0; i + 1 < steps.size(); ++i) {  // all but P5
      apply_step(store, steps[i], rng);
      every = std::make_unique<ShardedQueryEngine>(store, icfg, every.get());
      rewritten.insert(rewritten.end(), steps[i].touched.begin(),
                       steps[i].touched.end());
    }
    std::sort(rewritten.begin(), rewritten.end());
    rewritten.erase(std::unique(rewritten.begin(), rewritten.end()),
                    rewritten.end());

    const ShardedQueryEngine once(store, icfg, &base);
    EXPECT_EQ(once.refresh_stats().shards_rebuilt, 0u);
    EXPECT_EQ(once.refresh_stats().rows_updated, rewritten.size());
    expect_same_answers(once, *every, 400);

    // P5 compacts shard 3: both engines rebuild it from the same
    // snapshot and refresh the rest.
    apply_step(store, steps.back(), rng);
    const ShardedQueryEngine once_after(store, icfg, &once);
    const ShardedQueryEngine every_after(store, icfg, every.get());
    EXPECT_EQ(once_after.refresh_stats().shards_rebuilt, 1u);
    EXPECT_EQ(every_after.refresh_stats().shards_rebuilt, 1u);
    expect_same_answers(once_after, every_after, 400);
  }
}

// --- EmbeddingServer over a sharded store ---------------------------------

TEST(EmbeddingServerSharded, AnswersMatchDirectEngineAcrossVersions) {
  auto store = std::make_shared<ShardedEmbeddingStore>(4);
  store->publish(clustered_matrix(400, 16, 8, 51));

  ServerConfig cfg;
  cfg.threads = 3;
  EmbeddingServer server(store, cfg);

  const ShardedQueryEngine reference(*store);
  for (std::size_t i = 0; i < 100; ++i) {
    const auto u = static_cast<NodeId>(i * 13 % 400);
    TopKResult res = server.topk(u, 5).get();
    EXPECT_EQ(res.version, 1u);
    const auto expect = reference.topk(u, 5);
    ASSERT_EQ(res.neighbors.size(), expect.size());
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_EQ(res.neighbors[j].node, expect[j].node);
    }
    ScoreResult sres = server.score(u, (u + 7) % 400).get();
    EXPECT_DOUBLE_EQ(sres.score, reference.score(u, (u + 7) % 400));
  }

  // A delta publish moves the served version forward.
  store->publish_delta(std::vector<NodeId>{1, 2},
                       delta_rows(2, 16, 3.5f));
  EXPECT_EQ(server.topk(0, 3).get().version, 2u);
  server.drain();
  EXPECT_EQ(server.engine_rebuilds(), 2u);
}

// --- checkpoint interop ---------------------------------------------------

TEST(ShardedEmbeddingStore, CheckpointRoundTripsAcrossShardCounts) {
  ShardedEmbeddingStore store(3);
  const MatrixF m = random_matrix(9, 4, 61);
  store.publish(MatrixF(m));
  store.publish_delta(std::vector<NodeId>{2, 7}, delta_rows(2, 4, 8.0f));
  const MatrixF expected = store.materialize();

  std::stringstream ss;
  store.save(ss);

  ShardedEmbeddingStore single;
  EXPECT_EQ(single.load(ss), 1u);
  EXPECT_DOUBLE_EQ(max_abs_diff(single.materialize(), expected), 0.0);

  std::stringstream back;
  single.save(back);
  ShardedEmbeddingStore restored(5);
  EXPECT_EQ(restored.load(back), 1u);
  EXPECT_DOUBLE_EQ(max_abs_diff(restored.materialize(), expected), 0.0);
}

// --- dirty-row accounting --------------------------------------------------

// Pins the publish-cost invariant the StreamTrainer and train_sequential
// both rely on: a row touched by several passes of one insertion — as a
// walk node in the positive pass AND as a shared negative in the
// negative pass — is marked ONCE. mark() dedupes via the stamp array,
// so sorted().size() (and therefore rows_copied growth at the next
// delta publish) counts unique rows, never marks.
TEST(DirtyRowSet, RowTouchedByBothPassesCountsOnce) {
  DirtyRowSet dirty(32);
  // Positive pass: the walk's nodes.
  const std::vector<NodeId> walk = {4, 7, 9, 4, 12};
  dirty.mark_all(walk);
  // Negative pass: shared negatives overlapping the walk (7, 12).
  const std::vector<NodeId> negs = {7, 12, 20};
  dirty.mark_all(negs);
  EXPECT_EQ(dirty.size(), 5u);  // {4, 7, 9, 12, 20}, nothing twice
  const auto rows = dirty.sorted();
  const std::vector<NodeId> expected = {4, 7, 9, 12, 20};
  EXPECT_EQ(std::vector<NodeId>(rows.begin(), rows.end()), expected);

  // The deduped set drives the copy accounting end to end: a delta
  // publish of these rows copies exactly size() rows.
  ShardedEmbeddingStore store(
      ShardedEmbeddingStore::Config{2, 1u << 20, 0.0});
  store.publish(random_matrix(32, 4, 21));
  const auto base = store.rows_copied();
  store.publish_delta(rows, delta_rows(rows.size(), 4, 1.5f));
  EXPECT_EQ(store.rows_copied() - base, rows.size());

  // clear() resets the stamps: the same rows can be re-marked next
  // epoch without leaking marks across publishes.
  dirty.clear();
  EXPECT_TRUE(dirty.empty());
  dirty.mark(7);
  EXPECT_EQ(dirty.size(), 1u);
}

TEST(DirtyRowSet, WordBoundaryMarksComeOutAscending) {
  // 130 rows: three words, the last one partial.
  DirtyRowSet dirty(130);
  for (NodeId v : {NodeId{129}, NodeId{64}, NodeId{0}, NodeId{63},
                   NodeId{65}, NodeId{64}}) {
    dirty.mark(v);
  }
  EXPECT_EQ(dirty.size(), 5u);
  const auto rows = dirty.sorted();
  EXPECT_EQ(std::vector<NodeId>(rows.begin(), rows.end()),
            (std::vector<NodeId>{0, 63, 64, 65, 129}));

  // After clear() nothing is left, and earlier members can be marked
  // again without leaking into the next list.
  dirty.clear();
  EXPECT_TRUE(dirty.empty());
  EXPECT_TRUE(dirty.sorted().empty());
  dirty.mark(129);
  dirty.mark(63);
  const auto again = dirty.sorted();
  EXPECT_EQ(std::vector<NodeId>(again.begin(), again.end()),
            (std::vector<NodeId>{63, 129}));
  EXPECT_EQ(dirty.size(), 2u);
}

TEST(DirtyRowSet, RandomMarksMatchSortUnique) {
  Rng rng(91);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 1000u}) {
    DirtyRowSet dirty(n);
    for (int epoch = 0; epoch < 3; ++epoch) {
      std::vector<NodeId> marks;
      for (std::size_t i = 0; i < n / 2 + 1; ++i) {
        marks.push_back(static_cast<NodeId>(rng.bounded(n)));
        dirty.mark(marks.back());
      }
      std::sort(marks.begin(), marks.end());
      marks.erase(std::unique(marks.begin(), marks.end()), marks.end());
      const auto rows = dirty.sorted();
      EXPECT_EQ(std::vector<NodeId>(rows.begin(), rows.end()), marks)
          << "n=" << n << " epoch=" << epoch;
      EXPECT_EQ(dirty.size(), marks.size());
      dirty.clear();
    }
  }
}

// --- tombstones x compaction -----------------------------------------------

TEST(ShardedEmbeddingStore, TombstonesSurviveCompactionAndReviveOnDelta) {
  // max_delta_chain == 2 forces compactions quickly.
  ShardedEmbeddingStore store(ShardedEmbeddingStore::Config{2, 2});
  store.publish(random_matrix(8, 2, 31));
  const std::vector<NodeId> dead = {1, 6};
  store.publish_delta({}, MatrixF{}, 0, {}, dead);  // bitmap only
  EXPECT_EQ(store.tombstoned_rows(), 2u);

  // Hammer one shard until it compacts; rows 0/2 never touch the dead
  // rows, so both tombstones must be carried through the repack.
  for (std::size_t k = 0; k < 6; ++k) {
    const std::vector<NodeId> touched = {static_cast<NodeId>((k % 2) * 2)};
    store.publish_delta(touched, delta_rows(1, 2, static_cast<float>(k)));
  }
  EXPECT_GT(store.compactions(), 0u);
  EXPECT_EQ(store.tombstoned_rows(), 2u);
  auto tombstoned = [&](NodeId row) {
    const auto snap = store.shard(store.layout().shard_of(row));
    return snap->tombstoned(row - snap->row_begin);
  };
  EXPECT_TRUE(tombstoned(1));

  // Republishing a dead row revives it — including through the
  // compaction path.
  const std::vector<NodeId> touch_dead = {1};
  store.publish_delta(touch_dead, delta_rows(1, 2, 9.0f));
  EXPECT_EQ(store.tombstoned_rows(), 1u);
  EXPECT_FALSE(tombstoned(1));
  EXPECT_TRUE(tombstoned(6));
}

// --- snapshot lifetime -----------------------------------------------------

/// Whether the `len` objects from `p` lie in `buf`'s bytes (std::less
/// orders pointers into different allocations too).
template <typename T, typename Buffer>
bool lies_in(const Buffer& buf, const T* p, std::size_t len) {
  if (buf.empty()) return false;
  const auto* first = reinterpret_cast<const std::byte*>(buf.data());
  const auto* last =
      reinterpret_cast<const std::byte*>(buf.data() + buf.size());
  const auto* q = reinterpret_cast<const std::byte*>(p);
  const std::less<const std::byte*> lt;
  return !lt(q, first) && !lt(last, q + len * sizeof(T));
}

/// Every row pointer and every chunk of `snap` lies in a link the
/// snapshot keeps alive.
void expect_kept_alive(const ShardSnapshot& snap) {
  auto in_chain = [&](auto in_link) {
    for (const auto* l = snap.buffers.get(); l != nullptr; l = l->prev.get()) {
      if (in_link(*l)) return true;
    }
    return false;
  };
  for (std::size_t c = 0; c < snap.chunks.size(); ++c) {
    EXPECT_TRUE(in_chain([&](const ShardSnapshot::BufferLink& l) {
      return lies_in(l.storage, snap.chunks[c], 1);
    })) << "chunk " << c;
  }
  for (std::size_t r = 0; r < snap.num_rows(); ++r) {
    EXPECT_TRUE(in_chain([&](const ShardSnapshot::BufferLink& l) {
      return lies_in(l.storage, snap.row_ptr(r), snap.dims) ||
             (l.rows && lies_in(*l.rows, snap.row_ptr(r), snap.dims));
    })) << "row " << r;
  }
}

/// The rows and dead bits of `snap`, as they are now.
struct Frozen {
  std::vector<float> rows;
  std::vector<bool> dead;
  explicit Frozen(const ShardSnapshot& snap) {
    for (std::size_t r = 0; r < snap.num_rows(); ++r) {
      rows.insert(rows.end(), snap.row(r).begin(), snap.row(r).end());
      dead.push_back(snap.tombstoned(r));
    }
  }
};

void expect_unchanged(const ShardSnapshot& snap, const Frozen& was) {
  const Frozen now(snap);
  ASSERT_EQ(now.rows.size(), was.rows.size());
  EXPECT_EQ(std::memcmp(now.rows.data(), was.rows.data(),
                        was.rows.size() * sizeof(float)),
            0);
  EXPECT_EQ(now.dead, was.dead);
}

TEST(ShardSnapshotLifetime, HeldSnapshotOutlivesCompactionsAndFlips) {
  // Default compaction settings, so the cost trigger and the chain
  // backstop both stay live while a reader holds one snapshot through
  // more publishes than the chain backstop allows.
  ShardedEmbeddingStore::Config cfg;
  cfg.num_shards = 2;
  ShardedEmbeddingStore store(cfg);
  constexpr std::size_t kRows = 40;
  constexpr std::size_t kDims = 3;
  store.publish(random_matrix(kRows, kDims, 5));
  Rng rng(17);
  std::size_t max_chain = 0;
  std::size_t flips = 0;
  auto publish_random = [&](std::uint64_t k) {
    std::vector<NodeId> touched, tombstoned;
    for (NodeId v = 0; v < kRows; ++v) {
      const std::uint64_t draw = rng.bounded(16);
      if (draw == 0) {
        touched.push_back(v);
      } else if (draw == 1) {
        tombstoned.push_back(v);
      }
    }
    const std::uint64_t dead_before = store.tombstoned_rows();
    store.publish_delta(touched,
                        delta_rows(touched.size(), kDims,
                                   static_cast<float>(k) + 0.5f),
                        0, {}, tombstoned);
    flips += store.tombstoned_rows() != dead_before;
    max_chain = std::max(max_chain, store.shard(0)->delta_chain());
  };
  for (std::uint64_t k = 0; k < 3; ++k) publish_random(k);
  store.publish_delta(std::vector<NodeId>{1}, delta_rows(1, kDims, -1.0f), 0,
                      {}, std::vector<NodeId>{2});

  const auto held = store.shard(0);
  ASSERT_GT(held->delta_chain(), 0u);
  ASSERT_TRUE(held->tombstoned(2));
  const Frozen frozen(*held);
  const std::uint64_t compactions_before = store.compactions();
  for (std::uint64_t k = 0; k < cfg.max_delta_chain + 1; ++k) {
    publish_random(100 + k);
  }
  EXPECT_GT(store.compactions(), compactions_before);
  EXPECT_GT(max_chain, 1u);
  EXPECT_GT(flips, cfg.max_delta_chain / 2);
  EXPECT_NE(store.shard(0)->version, held->version);

  expect_unchanged(*held, frozen);
  expect_kept_alive(*held);
  expect_kept_alive(*store.shard(0));
}

TEST(ShardSnapshotLifetime, DeltaChainsStayBoundedOverManyPublishes) {
  // Default compaction settings; 10^4 random delta publishes, each
  // touching 1-24 random rows of a 4 x 64-row store. Every shard's
  // appended delta volume stays below the cost trigger (it compacts on
  // reaching it) and its chain within the backstop, while a snapshot
  // held from the start keeps its rows bit for bit.
  const ShardedEmbeddingStore::Config cfg{4};
  ShardedEmbeddingStore store(cfg);
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kDims = 4;
  store.publish(random_matrix(kRows, kDims, 61));
  const auto held = store.shard(1);
  const Frozen frozen(*held);
  const double bound = cfg.compact_cost_factor * (kRows / 4);
  Rng rng(62);
  std::size_t max_chain = 0;
  for (std::uint32_t k = 0; k < 10000; ++k) {
    std::vector<NodeId> touched;
    const std::uint64_t want = 1 + rng.bounded(24);
    while (touched.size() < want) {
      const auto v = static_cast<NodeId>(rng.bounded(kRows));
      if (std::find(touched.begin(), touched.end(), v) == touched.end()) {
        touched.push_back(v);
      }
    }
    std::sort(touched.begin(), touched.end());
    store.publish_delta(touched, delta_rows(touched.size(), kDims,
                                            static_cast<float>(k)));
    for (std::size_t s = 0; s < 4; ++s) {
      const auto snap = store.shard(s);
      ASSERT_LT(static_cast<double>(snap->delta_rows_since_base), bound);
      ASSERT_LE(snap->delta_chain(), cfg.max_delta_chain);
      max_chain = std::max(max_chain, snap->delta_chain());
    }
  }
  EXPECT_GT(store.compactions(), 4u);
  EXPECT_GT(max_chain, 1u);
  expect_unchanged(*held, frozen);
  expect_kept_alive(*held);
  for (std::size_t s = 0; s < 4; ++s) expect_kept_alive(*store.shard(s));
}

/// Runs `fn` on a thread with a 64 KiB stack.
void run_on_small_stack(const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 64 * 1024), 0);
  pthread_t thread;
  auto* arg = const_cast<std::function<void()>*>(&fn);
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* f) -> void* {
                  (*static_cast<std::function<void()>*>(f))();
                  return nullptr;
                },
                arg),
            0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
}

TEST(ShardSnapshotLifetime, ChainAtTheBackstopIsFreedWithoutRecursion) {
  // Only the chain backstop compacts: the cost trigger is off. The
  // backstop is raised so far that one destructor frame per link could
  // not fit the stack below (each one-row publish of this tiny shard
  // fills a page of its own, so every publish is a link).
  ShardedEmbeddingStore::Config cfg;
  cfg.max_delta_chain = std::size_t{1} << 15;
  cfg.compact_cost_factor = 0.0;
  auto store = std::make_unique<ShardedEmbeddingStore>(cfg);
  constexpr std::size_t kRows = 16;
  store->publish(random_matrix(kRows, 2, 3));
  for (std::size_t k = 0; k < cfg.max_delta_chain; ++k) {
    store->publish_delta(std::vector<NodeId>{static_cast<NodeId>(k % kRows)},
                         delta_rows(1, 2, static_cast<float>(k)));
  }
  auto held = store->shard(0);
  ASSERT_EQ(held->delta_chain(), cfg.max_delta_chain);
  EXPECT_EQ(store->compactions(), 0u);
  store->publish_delta(std::vector<NodeId>{0}, delta_rows(1, 2, -1.0f));
  EXPECT_EQ(store->compactions(), 1u);
  EXPECT_EQ(store->shard(0)->delta_chain(), 0u);
  const Frozen frozen(*held);
  store.reset();  // `held` is now the only owner of its links
  expect_unchanged(*held, frozen);
  expect_kept_alive(*held);
  // 64 KiB overflows if each link's destructor nested the next one's.
  run_on_small_stack([&] { held.reset(); });
  EXPECT_EQ(held, nullptr);
}

}  // namespace
}  // namespace seqge::serve
