// Self-contained microbenchmarks of the kernels behind Tables 3/4 plus
// the SIMD serving kernels (no external benchmark framework —
// plain calibrated loops, best-of-N passes). Three phases:
//
//   micro — ns/op audit of the training-side kernels: alias-table
//           sampling, node2vec walk steps (static graph, and the
//           stream's sliding-window graph),
//           per-context training updates of all three models, the
//           fixed-point core, and the dense matvec. These numbers feed
//           the op-count audit in EXPERIMENTS.md.
//   simd  — scalar reference vs dispatched float kernels (dot, axpy,
//           scale, l2_norm, fused dot_topk_scan). GATES: dispatched dot
//           and dot_topk_scan must be >= 2x the scalar reference at the
//           serving dims (96) whenever a vector ISA is active.
//   train — scalar reference vs dispatched *training* kernels at the
//           training dims (96): matvec_transposed, rank1_update, the
//           fused OS-ELM pair kernels (matvec_both, rank1_matvec), the
//           gather kernels, sgns_apply, and a whole train_pair fused vs
//           unfused on the real SGNS model. GATES: dispatched
//           matvec_transposed must be >= 2x scalar on a vector ISA;
//           the fused train_pair must not lose to the unfused path at
//           full scale.
//
// --json <path> writes the results as BENCH_kernels.json (machine
// info, every timing, gate outcomes). Exit code is non-zero when a
// gate fails, so CI can run this binary directly.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "embedding/oselm_dataflow.hpp"
#include "embedding/oselm_skipgram.hpp"
#include "embedding/skipgram_sgd.hpp"
#include "fixed/fixed_point.hpp"
#include "fpga/accelerator.hpp"
#include "graph/datasets.hpp"
#include "graph/sliding_window.hpp"
#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"
#include "sampling/alias_table.hpp"
#include "sampling/negative_sampler.hpp"
#include "serve/sharded_query.hpp"
#include "walk/node2vec_walker.hpp"

namespace {

using namespace seqge;
using bench::Json;

/// Compiler barrier: keeps `value` (and everything it points to) alive
/// without emitting any code — the DoNotOptimize idiom.
template <typename T>
inline void keep(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Best-of-`passes` ns per op: each pass times `iters` calls of fn and
/// the minimum pass wins (robust against scheduler noise on the small
/// shared boxes this suite runs on).
template <typename Fn>
double ns_per_op(std::size_t iters, Fn&& fn, int passes = 3) {
  fn();  // warmup
  double best = std::numeric_limits<double>::infinity();
  for (int p = 0; p < passes; ++p) {
    WallTimer t;
    for (std::size_t i = 0; i < iters; ++i) fn();
    best = std::min(best,
                    static_cast<double>(t.nanos()) /
                        static_cast<double>(iters));
  }
  return best;
}

struct Row {
  std::string name;
  double ns;
};

struct GateResult {
  std::string name;
  double required;
  double actual;
  bool enforced;
  bool pass;
};

std::vector<Row> g_micro;
std::vector<GateResult> g_gates;

void report(const std::string& name, double ns) {
  g_micro.push_back({name, ns});
  std::printf("  %-34s %12.1f ns/op\n", name.c_str(), ns);
}

/// Record a >=`required`x speedup gate. Gates only bind when a vector
/// ISA is active (the scalar fallback build reports but never fails)
/// and at full scale (`scale_ok`) — --tiny stores are too small for
/// the fixed candidate-set cost to amortize, so tiny runs are smoke
/// tests, not performance claims.
void gate(const std::string& name, double required, double actual,
          bool scale_ok = true) {
  const bool enforced =
      simd::active_isa() != simd::Isa::kScalar && scale_ok;
  const bool pass = !enforced || actual >= required;
  g_gates.push_back({name, required, actual, enforced, pass});
  const char* status = pass ? "PASS" : "FAIL";
  if (!enforced) {
    status = simd::active_isa() == simd::Isa::kScalar
                 ? "skipped: scalar isa"
                 : "skipped: tiny run";
  }
  std::printf("  GATE %-28s need >= %.2fx  got %5.2fx  [%s]\n", name.c_str(),
              required, actual, status);
}

const LabeledGraph& bench_graph() {
  static const LabeledGraph g = make_dataset(DatasetId::kCora, 1, 0.25);
  return g;
}

/// A SlidingWindowGraph of the stream example's shape
/// (examples/sliding_window_stream.cpp): each of 6000 ticks wires a random
/// one of 2000 devices to a drifting hot set of 32 gateways, one tick in
/// 16 tears down a random live link, and edges expire at age 800.
const SlidingWindowGraph& window_graph() {
  static const SlidingWindowGraph w = [] {
    constexpr std::size_t kNodes = 2000;
    SlidingWindowGraph::Options opts;
    opts.max_age = 800;
    SlidingWindowGraph graph(kNodes, opts);
    Rng rng(9);
    std::vector<ExpiredEdge> expired;
    for (std::uint64_t clock = 1; clock <= 6000; ++clock) {
      const auto gateway = static_cast<NodeId>(
          (clock / 500 * 97 + rng.bounded(32)) % kNodes);
      graph.add_edge(static_cast<NodeId>(rng.bounded(kNodes)), gateway, 1.0f,
                     clock);
      if (rng.bounded(16) == 0) {
        const auto u = static_cast<NodeId>(rng.bounded(kNodes));
        const auto nbrs = graph.neighbors(u);
        if (!nbrs.empty()) graph.remove_edge(u, nbrs[rng.bounded(nbrs.size())]);
      }
      graph.expire(clock, expired);
    }
    return graph;
  }();
  return w;
}

/// ns per node2vec step: `walks` walks from random non-isolated nodes,
/// each of params.walk_length - 1 steps.
template <typename GraphT>
double walk_step_ns(const GraphT& g, const Node2VecParams& params,
                    std::size_t walks) {
  std::vector<NodeId> starts;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.degree(u) > 0) starts.push_back(u);
  }
  const Node2VecWalker<GraphT> walker(g, params);
  Rng rng(3);
  std::vector<NodeId> walk;
  const double ns = ns_per_op(walks, [&] {
    walker.walk_into(rng, starts[rng.bounded(starts.size())], walk);
    keep(walk.data());
  });
  return ns / static_cast<double>(params.walk_length - 1);
}

// --- phase 1: training-side micro kernels -----------------------------------

void run_micro_phase(std::size_t scale_div) {
  std::printf("\n-- micro: training-side kernels (ns/op) --\n");
  const auto it = [&](std::size_t n) { return std::max<std::size_t>(1, n / scale_div); };

  {
    Rng rng(1);
    std::vector<double> w(1000);
    for (auto& x : w) x = rng.uniform(0.1, 10.0);
    AliasTable table(w);
    report("alias_sample/1k", ns_per_op(it(1000000), [&] {
             keep(table.sample(rng));
           }));
  }
  {
    Rng rng(1);
    std::vector<double> w(100000);
    for (auto& x : w) x = rng.uniform(0.1, 10.0);
    AliasTable table(w);
    report("alias_sample/100k", ns_per_op(it(1000000), [&] {
             keep(table.sample(rng));
           }));
  }
  {
    Rng rng(2);
    std::vector<double> w(1000);
    for (auto& x : w) x = rng.uniform(0.1, 10.0);
    report("alias_build/1k", ns_per_op(it(2000), [&] {
             AliasTable table(w);
             keep(table.size());
           }));
  }

  const Graph& g = bench_graph().graph;
  report("walk_step/static", walk_step_ns(g, Node2VecParams{}, it(20000)));
  {
    // StreamTrainer's walks: l = 12 at the default p and q.
    Node2VecParams params;
    params.walk_length = 12;
    params.window = 3;
    report("walk_step/window",
           walk_step_ns(window_graph(), params, it(100000)));
  }

  const auto sampler = NegativeSampler::from_degrees(g);
  const std::size_t dims = 96;
  {
    Rng rng(5);
    SkipGramSGD model(g.num_nodes(), dims, rng);
    Node2VecWalker<Graph> walker(g, Node2VecParams{});
    const auto walk = walker.walk(rng, 0);
    report("train_walk/sgns/96", ns_per_op(it(200), [&] {
             keep(model.train_walk(walk, 8, sampler, 10,
                                   NegativeMode::kPerContext, rng, 0.01));
           }));
  }
  {
    Rng rng(6);
    OselmSkipGram::Options opts;
    opts.dims = dims;
    OselmSkipGram model(g.num_nodes(), opts, rng);
    Node2VecWalker<Graph> walker(g, Node2VecParams{});
    const auto walk = walker.walk(rng, 0);
    report("train_walk/oselm/96", ns_per_op(it(200), [&] {
             keep(model.train_walk(walk, 8, sampler, 10,
                                   NegativeMode::kPerContext, rng));
           }));
  }
  {
    Rng rng(7);
    OselmSkipGramDataflow::Options opts;
    opts.dims = dims;
    OselmSkipGramDataflow model(g.num_nodes(), opts, rng);
    Node2VecWalker<Graph> walker(g, Node2VecParams{});
    const auto walk = walker.walk(rng, 0);
    report("train_walk/dataflow/96", ns_per_op(it(200), [&] {
             keep(model.train_walk(walk, 8, sampler, 10, rng));
           }));
  }
  {
    fpga::AcceleratorConfig cfg = fpga::AcceleratorConfig::for_dims(32);
    fpga::PlCore core(cfg.max_slots(), {cfg.dims, cfg.mu, cfg.p0,
                                        cfg.reset_p_per_walk});
    Rng rng(8);
    std::vector<NodeId> walk(cfg.walk_length);
    for (auto& v : walk) {
      v = static_cast<NodeId>(rng.bounded(cfg.walk_length));
    }
    std::vector<NodeId> negs(cfg.negative_samples);
    for (std::size_t i = 0; i < negs.size(); ++i) {
      negs[i] = static_cast<NodeId>(cfg.walk_length + i);
    }
    report("hls_core/run_walk/32", ns_per_op(it(500), [&] {
             keep(core.train_walk(walk, cfg.window, negs));
           }));
  }
  {
    using F = fixed::CoreFixed;
    F a = F::from_double(1.2345);
    const F b = F::from_double(-0.5678);
    report("fixed/multiply_add", ns_per_op(it(5000000), [&] {
             a = a * b + F::from_double(1.0);
             keep(a);
           }));
  }
  {
    Rng rng(9);
    const std::size_t n = 96;
    MatrixF m(n, n);
    m.fill_uniform(rng, -1.0, 1.0);
    std::vector<float> v(n, 1.0f), out(n);
    report("matvec/96", ns_per_op(it(20000), [&] {
             matvec(m, std::span<const float>(v), std::span<float>(out));
             keep(out.data());
           }));
  }
}

// --- phase 2: scalar vs dispatched float kernels ----------------------------

struct SimdRow {
  std::string kernel;
  std::size_t dims;
  double scalar_ns;
  double simd_ns;
  [[nodiscard]] double speedup() const { return scalar_ns / simd_ns; }
};

std::vector<SimdRow> g_simd;

void simd_report(const std::string& kernel, std::size_t dims,
                 double scalar_ns, double simd_ns) {
  g_simd.push_back({kernel, dims, scalar_ns, simd_ns});
  std::printf("  %-20s dims=%-3zu scalar %9.1f ns  %s %9.1f ns  (%.2fx)\n",
              kernel.c_str(), dims, scalar_ns, simd::isa_name(), simd_ns,
              scalar_ns / simd_ns);
}

void run_simd_phase(std::size_t rows, int passes) {
  std::printf("\n-- simd: scalar vs %s float kernels (%zu rows/pass) --\n",
              simd::isa_name(), rows);
  double gate_dot = 0.0, gate_scan = 0.0;
  for (std::size_t dims : {std::size_t{32}, std::size_t{96}}) {
    Rng rng(42);
    std::vector<float> data(rows * dims), q(dims), scores(rows);
    for (auto& x : data) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& x : q) x = static_cast<float>(rng.uniform(-1.0, 1.0));

    // Per-row dot over the whole store; ns is per row.
    const double sc_dot = ns_per_op(1, [&] {
      float acc = 0.0f;
      for (std::size_t r = 0; r < rows; ++r) {
        acc += simd::scalar::dot(data.data() + r * dims, q.data(), dims);
      }
      keep(acc);
    }, passes) / static_cast<double>(rows);
    const double vec_dot = ns_per_op(1, [&] {
      float acc = 0.0f;
      for (std::size_t r = 0; r < rows; ++r) {
        acc += simd::dot(data.data() + r * dims, q.data(), dims);
      }
      keep(acc);
    }, passes) / static_cast<double>(rows);
    simd_report("dot", dims, sc_dot, vec_dot);

    std::vector<float> acc_vec(dims, 0.0f);
    const double sc_axpy = ns_per_op(1, [&] {
      for (std::size_t r = 0; r < rows; ++r) {
        simd::scalar::axpy(1e-6f, data.data() + r * dims, acc_vec.data(),
                           dims);
      }
      keep(acc_vec.data());
    }, passes) / static_cast<double>(rows);
    const double vec_axpy = ns_per_op(1, [&] {
      for (std::size_t r = 0; r < rows; ++r) {
        simd::axpy(1e-6f, data.data() + r * dims, acc_vec.data(), dims);
      }
      keep(acc_vec.data());
    }, passes) / static_cast<double>(rows);
    simd_report("axpy", dims, sc_axpy, vec_axpy);

    const double sc_scale = ns_per_op(1, [&] {
      for (std::size_t r = 0; r < rows; ++r) {
        simd::scalar::scale(0.999999f, data.data() + r * dims, dims);
      }
      keep(data.data());
    }, passes) / static_cast<double>(rows);
    const double vec_scale = ns_per_op(1, [&] {
      for (std::size_t r = 0; r < rows; ++r) {
        simd::scale(1.000001f, data.data() + r * dims, dims);
      }
      keep(data.data());
    }, passes) / static_cast<double>(rows);
    simd_report("scale", dims, sc_scale, vec_scale);

    const double sc_norm = ns_per_op(1, [&] {
      double acc = 0.0;
      for (std::size_t r = 0; r < rows; ++r) {
        acc += simd::scalar::l2_norm(data.data() + r * dims, dims);
      }
      keep(acc);
    }, passes) / static_cast<double>(rows);
    const double vec_norm = ns_per_op(1, [&] {
      double acc = 0.0;
      for (std::size_t r = 0; r < rows; ++r) {
        acc += simd::l2_norm(data.data() + r * dims, dims);
      }
      keep(acc);
    }, passes) / static_cast<double>(rows);
    simd_report("l2_norm", dims, sc_norm, vec_norm);

    // The fused scan, with the engines' real accumulator in the loop.
    const double sc_scan = ns_per_op(1, [&] {
      serve::TopKAccumulator top(10);
      for (std::size_t r = 0; r < rows; ++r) {
        top.offer(static_cast<NodeId>(r),
                  simd::scalar::dot(data.data() + r * dims, q.data(), dims));
      }
      keep(top);
    }, passes) / static_cast<double>(rows);
    const double vec_scan = ns_per_op(1, [&] {
      serve::TopKAccumulator top(10);
      simd::dot_topk_scan(data.data(), rows, dims, q.data(),
                          [&](std::size_t r, float s) {
                            top.offer(static_cast<NodeId>(r), s);
                          });
      keep(top);
    }, passes) / static_cast<double>(rows);
    simd_report("dot_topk_scan", dims, sc_scan, vec_scan);

    if (dims == 96) {
      gate_dot = sc_dot / vec_dot;
      gate_scan = sc_scan / vec_scan;
    }
  }
  // Gate at the serving dims (96). Small dims are reported but not
  // gated: a 32-dim dot is latency-bound on the single accumulator the
  // determinism contract requires, so its speedup understates the
  // serving-path win.
  gate("simd_dot_96", 2.0, gate_dot);
  gate("simd_dot_topk_scan_96", 2.0, gate_scan);
}

// --- phase 3: scalar vs dispatched training kernels -------------------------

std::vector<SimdRow> g_train;

void train_report(const std::string& kernel, std::size_t dims,
                  double scalar_ns, double simd_ns) {
  g_train.push_back({kernel, dims, scalar_ns, simd_ns});
  std::printf("  %-20s dims=%-3zu scalar %9.1f ns  %s %9.1f ns  (%.2fx)\n",
              kernel.c_str(), dims, scalar_ns, simd::isa_name(), simd_ns,
              scalar_ns / simd_ns);
}

void run_train_phase(std::size_t scale_div, int passes, bool tiny) {
  std::printf("\n-- train: scalar vs %s training kernels (dims=96) --\n",
              simd::isa_name());
  const std::size_t n = 96;  // training dims of every committed config
  const auto it = [&](std::size_t iters) {
    return std::max<std::size_t>(1, iters / scale_div);
  };

  Rng rng(11);
  std::vector<float> m(n * n), v(n), x(n), y(n), out(n), out2(n);
  for (auto& f : m) f = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& f : v) f = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& f : x) f = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& f : y) f = static_cast<float>(rng.uniform(-1.0, 1.0));

  // hp = h P — one of the two OS-ELM P-products.
  const double sc_mt = ns_per_op(it(100000), [&] {
    simd::scalar::matvec_t(m.data(), n, n, v.data(), out.data());
    keep(out.data());
  }, passes);
  const double ve_mt = ns_per_op(it(100000), [&] {
    simd::matvec_t(m.data(), n, n, v.data(), out.data());
    keep(out.data());
  }, passes);
  train_report("matvec_transposed", n, sc_mt, ve_mt);

  // P -= k ph hp^T. The tiny coefficient keeps m finite over the
  // repeated in-place updates.
  const double sc_r1 = ns_per_op(it(100000), [&] {
    simd::scalar::rank1_update(m.data(), n, n, 1e-7f, x.data(), y.data());
    keep(m.data());
  }, passes);
  const double ve_r1 = ns_per_op(it(100000), [&] {
    simd::rank1_update(m.data(), n, n, -1e-7f, x.data(), y.data());
    keep(m.data());
  }, passes);
  train_report("rank1_update", n, sc_r1, ve_r1);

  // The fused pair kernels the OS-ELM backends actually call: two P
  // passes instead of four (see simd.hpp).
  const double sc_both = ns_per_op(it(100000), [&] {
    simd::scalar::matvec_both(m.data(), n, v.data(), out.data(),
                              out2.data());
    keep(out.data());
  }, passes);
  const double ve_both = ns_per_op(it(100000), [&] {
    simd::matvec_both(m.data(), n, v.data(), out.data(), out2.data());
    keep(out.data());
  }, passes);
  train_report("matvec_both", n, sc_both, ve_both);

  const double sc_r1mv = ns_per_op(it(100000), [&] {
    simd::scalar::rank1_matvec(m.data(), n, 1e-7f, x.data(), y.data(),
                               v.data(), out.data());
    keep(out.data());
  }, passes);
  const double ve_r1mv = ns_per_op(it(100000), [&] {
    simd::rank1_matvec(m.data(), n, -1e-7f, x.data(), y.data(), v.data(),
                       out.data());
    keep(out.data());
  }, passes);
  train_report("rank1_matvec", n, sc_r1mv, ve_r1mv);

  // One SGNS sample group: 1 positive + 10 negatives of gathered rows.
  const std::size_t group = 11;
  std::vector<float> rows(group * n), g(group), h(n), hgrad(n);
  for (auto& f : rows) f = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& f : g) f = static_cast<float>(rng.uniform(-1e-3, 1e-3));
  for (auto& f : h) f = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float*> row_ptrs(group);
  for (std::size_t i = 0; i < group; ++i) row_ptrs[i] = rows.data() + i * n;
  std::vector<float> scores(group);

  const double sc_gather = ns_per_op(it(500000), [&] {
    simd::scalar::dot_batch_gather(
        const_cast<const float* const*>(row_ptrs.data()), group, n, h.data(),
        scores.data());
    keep(scores.data());
  }, passes);
  const double ve_gather = ns_per_op(it(500000), [&] {
    simd::dot_batch_gather(const_cast<const float* const*>(row_ptrs.data()),
                           group, n, h.data(), scores.data());
    keep(scores.data());
  }, passes);
  train_report("dot_batch_gather", n, sc_gather, ve_gather);

  const double sc_apply = ns_per_op(it(200000), [&] {
    simd::scalar::sgns_apply(h.data(), hgrad.data(), row_ptrs.data(),
                             g.data(), -1e-4f, group, n);
    keep(h.data());
  }, passes);
  const double ve_apply = ns_per_op(it(200000), [&] {
    simd::sgns_apply(h.data(), hgrad.data(), row_ptrs.data(), g.data(),
                     1e-4f, group, n);
    keep(h.data());
  }, passes);
  train_report("sgns_apply", n, sc_apply, ve_apply);

  // Whole train_pair on the real model, fused batched path vs the
  // sequential per-sample fallback (set_force_unfused) — same model,
  // same distinct negatives, so both runs take the path they claim.
  {
    const Graph& graph = bench_graph().graph;
    Rng mrng(12);
    SkipGramSGD model(graph.num_nodes(), n, mrng);
    std::vector<NodeId> negs;
    for (NodeId i = 0; i < 10; ++i) negs.push_back(100 + 7 * i);
    const NodeId center = 1, pos = 2;
    model.set_force_unfused(true);
    const double unfused = ns_per_op(it(50000), [&] {
      keep(model.train_pair(center, pos, negs, 0.01));
    }, passes);
    model.set_force_unfused(false);
    const double fused = ns_per_op(it(50000), [&] {
      keep(model.train_pair(center, pos, negs, 0.01));
    }, passes);
    train_report("train_pair", n, unfused, fused);
    // Fused-vs-unfused is a modest win by design (the unfused fallback
    // shares the same dispatched dot/axpy); gate conservatively, and
    // only at full scale — tiny runs are too short to be stable.
    gate("train_pair_fused_96", 1.05, unfused / fused, !tiny);
  }

  gate("train_matvec_t_96", 2.0, sc_mt / ve_mt);
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  std::string json_path;
  std::string phase = "all";
  ArgParser args("bench_micro_kernels",
                 "ns/op audit of training kernels + SIMD serving kernel "
                 "gates");
  args.add_flag("tiny", &tiny, "shrink iteration counts for smoke runs");
  args.add_string("json", &json_path,
                  "write results to this path (BENCH_kernels.json)");
  args.add_choice("phase", &phase, {"all", "micro", "simd", "train"},
                  "which phase(s) to run");
  std::string metrics_out;
  bench::add_metrics_flag(args, &metrics_out);
  if (!args.parse(argc, argv)) return 1;

  bench::print_header(
      "micro kernels (Tables 3/4 op audit + SIMD gates)",
      std::string("simd isa: ") + simd::isa_name());

  const std::size_t scale_div = tiny ? 20 : 1;
  const std::size_t scan_rows = tiny ? 512 : 8192;
  const int passes = tiny ? 3 : 7;

  if (phase == "all" || phase == "micro") run_micro_phase(scale_div);
  if (phase == "all" || phase == "simd") run_simd_phase(scan_rows, passes);
  if (phase == "all" || phase == "train") {
    run_train_phase(scale_div, passes, tiny);
  }

  bool all_pass = true;
  for (const auto& gr : g_gates) all_pass = all_pass && gr.pass;

  if (!json_path.empty()) {
    Json root = Json::object();
    root.set("bench", Json::str("micro_kernels"));
    root.set("machine", bench::machine_json());
    Json cfg = Json::object();
    cfg.set("tiny", Json::boolean(tiny));
    cfg.set("scan_rows", Json::num(scan_rows));
    cfg.set("passes", Json::num(static_cast<std::int64_t>(passes)));
    root.set("config", std::move(cfg));
    Json micro = Json::array();
    for (const auto& r : g_micro) {
      Json j = Json::object();
      j.set("name", Json::str(r.name));
      j.set("ns_per_op", Json::num(r.ns));
      micro.push(std::move(j));
    }
    root.set("micro", std::move(micro));
    Json simd_arr = Json::array();
    for (const auto& r : g_simd) {
      Json j = Json::object();
      j.set("kernel", Json::str(r.kernel));
      j.set("dims", Json::num(r.dims));
      j.set("scalar_ns", Json::num(r.scalar_ns));
      j.set("simd_ns", Json::num(r.simd_ns));
      j.set("speedup", Json::num(r.speedup()));
      simd_arr.push(std::move(j));
    }
    root.set("simd", std::move(simd_arr));
    Json train_arr = Json::array();
    for (const auto& r : g_train) {
      Json j = Json::object();
      j.set("kernel", Json::str(r.kernel));
      j.set("dims", Json::num(r.dims));
      j.set("scalar_ns", Json::num(r.scalar_ns));
      j.set("simd_ns", Json::num(r.simd_ns));
      j.set("speedup", Json::num(r.speedup()));
      train_arr.push(std::move(j));
    }
    root.set("train", std::move(train_arr));
    Json gates = Json::array();
    for (const auto& gr : g_gates) {
      Json j = Json::object();
      j.set("name", Json::str(gr.name));
      j.set("required_speedup", Json::num(gr.required));
      j.set("actual_speedup", Json::num(gr.actual));
      j.set("enforced", Json::boolean(gr.enforced));
      j.set("pass", Json::boolean(gr.pass));
      gates.push(std::move(j));
    }
    root.set("gates", std::move(gates));
    if (!bench::write_json_file(json_path, root)) return 1;
  }

  if (!bench::dump_metrics(metrics_out)) return 1;

  if (!all_pass) {
    std::printf("\nRESULT: GATE FAILURE\n");
    return 1;
  }
  std::printf("\nRESULT: ok\n");
  return 0;
}
