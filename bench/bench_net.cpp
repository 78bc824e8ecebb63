// Network serving load generator — drives the seqge-wire-v1 TCP
// front-end (src/net/) with traffic shaped like a production serving
// fleet and gates the overload contract from the serving roadmap:
//
//   phase 1  mixed      Zipfian hot-key skew, alternating calm/burst
//                        pipeline windows, a request-type mix (single
//                        top-k / edge score / batches), and a trainer
//                        thread publishing fresh snapshots the whole
//                        time. Reports sustained QPS + p50/p95/p99.
//   phase 2  overload   ~2x the engine queue's capacity in concurrent
//                        batch requests against a deliberately small
//                        queue: the server must stay up (ping + stats
//                        keep answering), shed with OVERLOADED
//                        (reject counter > 0), and never block a
//                        client indefinitely. Afterwards a calm leg
//                        must see p99 recover.
//   phase 3  identity   served responses bit-identical (==) to the
//                        in-process answers for the same snapshot.
//
//   ./bench/bench_net [--tiny] [--clients 4] [--duration-ms 4000]
//       [--json BENCH_net.json] [--metrics-out metrics_net.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/common.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/embedding_server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace seqge {
namespace {

using Clock = std::chrono::steady_clock;

MatrixF random_matrix(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  MatrixF m(rows, cols);
  Rng rng(seed);
  for (float& v : m.flat()) {
    v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  return m;
}

/// Zipfian sampler over [0, n): CDF table once, then one uniform draw
/// plus a binary search per sample. Rank r gets mass 1/(r+1)^s — the
/// hot-key skew real embedding serving sees (popular accounts/items
/// are queried orders of magnitude more than the tail).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  [[nodiscard]] NodeId sample(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank =
        static_cast<std::size_t>(std::distance(cdf_.begin(), it));
    // Scatter ranks over node-id space so the hot set is not the
    // contiguous prefix (which a row-cache would love too much).
    return static_cast<NodeId>((rank * 2654435761u) % cdf_.size());
  }

 private:
  std::vector<double> cdf_;
};

struct ClientTally {
  std::vector<double> lat_us;  ///< OK responses only
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t ratelimited = 0;
  std::uint64_t other = 0;
};

void count_status(ClientTally& tally, net::Status s) {
  switch (s) {
    case net::Status::kOk: ++tally.ok; break;
    case net::Status::kOverloaded: ++tally.overloaded; break;
    case net::Status::kRateLimited: ++tally.ratelimited; break;
    default: ++tally.other;
  }
}

/// One closed-loop client with a pipeline window that alternates
/// between calm and burst every `phase_ms` — the burst phases are what
/// pile concurrent small requests into one poll sweep and exercise the
/// server's coalescing.
ClientTally run_mixed_client(std::uint16_t port, const Zipf& zipf,
                             std::uint64_t seed, std::size_t nodes,
                             int duration_ms, int phase_ms,
                             std::size_t calm_window,
                             std::size_t burst_window) {
  net::ClientConfig ccfg;
  ccfg.recv_timeout_ms = 15000;
  net::Client client("127.0.0.1", port, ccfg);
  Rng rng(seed);
  ClientTally tally;
  std::unordered_map<std::uint64_t, Clock::time_point> t0s;

  const auto start = Clock::now();
  const auto end = start + std::chrono::milliseconds(duration_ms);
  std::size_t outstanding = 0;
  while (Clock::now() < end) {
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              start)
            .count();
    const bool burst = (elapsed_ms / phase_ms) % 2 == 1;
    const std::size_t window = burst ? burst_window : calm_window;

    while (outstanding < window) {
      const double mix = rng.uniform();
      std::uint64_t id = 0;
      if (mix < 0.70) {
        id = client.send_topk(zipf.sample(rng), 10);
      } else if (mix < 0.85) {
        id = client.send_score(zipf.sample(rng),
                               static_cast<NodeId>(rng.bounded(nodes)),
                               EdgeScore::kCosine);
      } else if (mix < 0.95) {
        std::vector<NodeId> batch(8);
        for (auto& n : batch) n = zipf.sample(rng);
        id = client.send_topk_batch(batch, 10);
      } else {
        std::vector<std::pair<NodeId, NodeId>> pairs(8);
        for (auto& p : pairs) {
          p = {zipf.sample(rng), static_cast<NodeId>(rng.bounded(nodes))};
        }
        id = client.send_score_batch(pairs, EdgeScore::kCosine);
      }
      t0s.emplace(id, Clock::now());
      ++tally.sent;
      ++outstanding;
    }

    const net::Response resp = client.recv();
    --outstanding;
    count_status(tally, resp.status);
    const auto it = t0s.find(resp.id);
    if (it != t0s.end()) {
      if (resp.status == net::Status::kOk) {
        tally.lat_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      it->second)
                .count());
      }
      t0s.erase(it);
    }
  }
  while (outstanding > 0) {
    count_status(tally, client.recv().status);
    --outstanding;
  }
  return tally;
}

}  // namespace
}  // namespace seqge

int main(int argc, char** argv) {
  using namespace seqge;
  using bench::Json;

  bool tiny = false;
  std::size_t clients = 4, nodes = 20000, dims = 32;
  std::int64_t duration_ms = 4000, phase_ms = 500, seed = 42;
  std::string json_path, metrics_out;
  ArgParser args("bench_net",
                 "traffic-shaped load generator for the seqge-wire-v1 "
                 "network serving front-end");
  args.add_flag("tiny", &tiny, "CI-sized run (small store, short phases)");
  args.add_size("clients", &clients, "concurrent client connections");
  args.add_size("nodes", &nodes, "embedding store rows");
  args.add_size("dims", &dims, "embedding dimensions");
  args.add_int("duration-ms", &duration_ms, "mixed-phase duration");
  args.add_int("phase-ms", &phase_ms, "calm/burst alternation period");
  args.add_int("seed", &seed, "workload RNG seed");
  args.add_string("json", &json_path, "write BENCH_net.json here");
  bench::add_metrics_flag(args, &metrics_out);
  if (!args.parse(argc, argv)) return 1;
  if (tiny) {
    nodes = std::min<std::size_t>(nodes, 4000);
    duration_ms = std::min<std::int64_t>(duration_ms, 1200);
    phase_ms = std::min<std::int64_t>(phase_ms, 200);
  }

  bench::print_header(
      "network serving",
      "wire protocol + admission control under Zipfian burst traffic");
  std::printf(
      "store %zu x %zu, %zu clients, %lld ms mixed phase "
      "(calm/burst window 4/32 every %lld ms)\n\n",
      nodes, dims, clients, static_cast<long long>(duration_ms),
      static_cast<long long>(phase_ms));

  Json root = Json::object();
  root.set("bench", Json::str("net"));
  root.set("machine", bench::machine_json());
  {
    Json cfg = Json::object();
    cfg.set("tiny", Json::boolean(tiny));
    cfg.set("nodes", Json::num(nodes));
    cfg.set("dims", Json::num(dims));
    cfg.set("clients", Json::num(clients));
    cfg.set("duration_ms", Json::num(static_cast<std::size_t>(duration_ms)));
    cfg.set("phase_ms", Json::num(static_cast<std::size_t>(phase_ms)));
    root.set("config", cfg);
  }

  const Zipf zipf(nodes, 1.1);

  // ---- phase 1: mixed traffic with a concurrent publisher ---------------
  double mixed_p99 = 0.0, mixed_qps = 0.0;
  std::uint64_t coalesced_batches = 0, coalesced_requests = 0;
  std::uint64_t mixed_bad_frames = 0;
  bool mixed_ok_majority = false;
  {
    auto store = std::make_shared<serve::ShardedEmbeddingStore>();
    store->publish(random_matrix(nodes, dims, 7), 100, "bench");
    serve::ServerConfig ecfg;
    ecfg.threads = 4;
    serve::EmbeddingServer engine(store, ecfg);
    net::Server front(engine, {});
    front.start();

    // Trainer stand-in: keep publishing fresh snapshots so queries keep
    // crossing engine rebuilds, exactly like serving during training.
    std::atomic<bool> stop_pub{false};
    std::thread publisher([&] {
      std::uint64_t version_seed = 8;
      while (!stop_pub.load(std::memory_order_acquire)) {
        const std::uint64_t v = version_seed++;
        store->publish(random_matrix(nodes, dims, v), v * 100, "bench");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });

    std::vector<ClientTally> tallies(clients);
    std::vector<std::thread> threads;
    const auto t_start = Clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        tallies[c] = run_mixed_client(
            front.port(), zipf, static_cast<std::uint64_t>(seed) + c,
            nodes, static_cast<int>(duration_ms),
            static_cast<int>(phase_ms), 4, 32);
      });
    }
    for (auto& th : threads) th.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t_start).count();
    stop_pub.store(true, std::memory_order_release);
    publisher.join();

    ClientTally total;
    for (auto& t : tallies) {
      total.sent += t.sent;
      total.ok += t.ok;
      total.overloaded += t.overloaded;
      total.ratelimited += t.ratelimited;
      total.other += t.other;
      total.lat_us.insert(total.lat_us.end(), t.lat_us.begin(),
                          t.lat_us.end());
    }
    mixed_qps = static_cast<double>(total.ok) / wall_s;
    const double p50 = percentile(total.lat_us, 0.50);
    const double p95 = percentile(total.lat_us, 0.95);
    mixed_p99 = percentile(total.lat_us, 0.99);
    mixed_ok_majority = total.ok * 2 > total.sent;
    mixed_bad_frames = front.bad_frames();

    std::printf(
        "mixed:    %.0f qps ok (%llu sent, %llu ok, %llu overloaded, "
        "%llu other)\n          p50 %.0f us, p95 %.0f us, p99 %.0f us; "
        "%llu snapshot versions served\n",
        mixed_qps, static_cast<unsigned long long>(total.sent),
        static_cast<unsigned long long>(total.ok),
        static_cast<unsigned long long>(total.overloaded),
        static_cast<unsigned long long>(total.other), p50, p95, mixed_p99,
        static_cast<unsigned long long>(engine.engine_rebuilds()));

    // Coalescing counters live in the global obs registry.
    const auto* cb = obs::Registry::global().find_counter(
        "seqge_net_coalesced_batches_total");
    const auto* cr = obs::Registry::global().find_counter(
        "seqge_net_coalesced_requests_total");
    coalesced_batches = cb != nullptr ? cb->value() : 0;
    coalesced_requests = cr != nullptr ? cr->value() : 0;
    std::printf(
        "          coalescing: %llu wire requests merged into %llu "
        "engine batches\n",
        static_cast<unsigned long long>(coalesced_requests),
        static_cast<unsigned long long>(coalesced_batches));

    front.stop();
    engine.drain_for(std::chrono::seconds(10));

    Json mixed = Json::object();
    mixed.set("qps_ok", Json::num(mixed_qps));
    mixed.set("sent", Json::num(total.sent));
    mixed.set("ok", Json::num(total.ok));
    mixed.set("overloaded", Json::num(total.overloaded));
    mixed.set("ratelimited", Json::num(total.ratelimited));
    mixed.set("other", Json::num(total.other));
    mixed.set("p50_us", Json::num(p50));
    mixed.set("p95_us", Json::num(p95));
    mixed.set("p99_us", Json::num(mixed_p99));
    mixed.set("snapshot_versions", Json::num(engine.engine_rebuilds()));
    mixed.set("coalesced_batches", Json::num(coalesced_batches));
    mixed.set("coalesced_requests", Json::num(coalesced_requests));
    root.set("mixed", mixed);
  }

  // ---- phase 2: overload + recovery -------------------------------------
  std::uint64_t overload_rejects = 0;
  bool overload_alive = false, overload_all_answered = false;
  double recovery_p99 = 0.0;
  {
    auto store = std::make_shared<serve::ShardedEmbeddingStore>();
    store->publish(random_matrix(nodes, dims, 70), 100, "bench");
    serve::ServerConfig ecfg;
    ecfg.threads = 1;  // deliberately under-provisioned
    ecfg.queue_capacity = 64;
    serve::EmbeddingServer engine(store, ecfg);
    net::Server front(engine, {});
    front.start();

    // Offer ~2x the queue's capacity in simultaneously outstanding
    // batch requests (batches skip coalescing: one queue slot each).
    const std::size_t overload_clients = std::max<std::size_t>(2, clients);
    const std::size_t per_client =
        (2 * ecfg.queue_capacity + overload_clients - 1) / overload_clients;
    std::vector<ClientTally> tallies(overload_clients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < overload_clients; ++c) {
      threads.emplace_back([&, c] {
        net::ClientConfig ccfg;
        ccfg.recv_timeout_ms = 30000;
        net::Client cl("127.0.0.1", front.port(), ccfg);
        Rng rng(static_cast<std::uint64_t>(seed) + 100 + c);
        std::vector<NodeId> batch(32);
        ClientTally& tally = tallies[c];
        for (int round = 0; round < 6; ++round) {
          std::vector<std::uint64_t> ids;
          for (std::size_t i = 0; i < per_client; ++i) {
            for (auto& n : batch) n = zipf.sample(rng);
            ids.push_back(cl.send_topk_batch(batch, 10));
            ++tally.sent;
          }
          for (const std::uint64_t id : ids) {
            count_status(tally, cl.wait(id).status);
          }
        }
      });
    }
    // While the flood is on, the probe connection must keep answering:
    // "stays up" means an operator can still ping and read stats.
    {
      net::ClientConfig ccfg;
      ccfg.recv_timeout_ms = 30000;
      net::Client probe("127.0.0.1", front.port(), ccfg);
      bool alive = true;
      for (int i = 0; i < 20; ++i) {
        if (probe.ping().status != net::Status::kOk) alive = false;
        if (probe.stats().status != net::Status::kOk) alive = false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      overload_alive = alive;
    }
    for (auto& th : threads) th.join();

    ClientTally total;
    for (auto& t : tallies) {
      total.sent += t.sent;
      total.ok += t.ok;
      total.overloaded += t.overloaded;
      total.other += t.other;
    }
    overload_rejects = front.rejected_overload();
    overload_all_answered =
        total.ok + total.overloaded + total.other == total.sent;

    // Post-burst recovery: a calm synchronous client should see p99
    // come back down once the queue drains.
    std::vector<double> rec_lat;
    {
      net::ClientConfig ccfg;
      ccfg.recv_timeout_ms = 30000;
      net::Client cl("127.0.0.1", front.port(), ccfg);
      Rng rng(static_cast<std::uint64_t>(seed) + 999);
      const int probes = tiny ? 100 : 300;
      for (int i = 0; i < probes; ++i) {
        const auto t0 = Clock::now();
        const net::Response r = cl.topk(zipf.sample(rng), 10);
        if (r.status == net::Status::kOk) {
          rec_lat.push_back(std::chrono::duration<double, std::micro>(
                                Clock::now() - t0)
                                .count());
        }
      }
    }
    const double rec_p50 = percentile(rec_lat, 0.50);
    recovery_p99 = percentile(rec_lat, 0.99);

    std::printf(
        "overload: %llu batch requests offered against a %zu-slot queue "
        "-> %llu ok, %llu shed OVERLOADED (server counter %llu); "
        "probes alive: %s\n"
        "recovery: p50 %.0f us, p99 %.0f us over %zu calm queries\n",
        static_cast<unsigned long long>(total.sent), ecfg.queue_capacity,
        static_cast<unsigned long long>(total.ok),
        static_cast<unsigned long long>(total.overloaded),
        static_cast<unsigned long long>(overload_rejects),
        overload_alive ? "yes" : "NO", rec_p50, recovery_p99,
        rec_lat.size());

    front.stop();
    engine.drain_for(std::chrono::seconds(10));

    Json over = Json::object();
    over.set("offered", Json::num(total.sent));
    over.set("ok", Json::num(total.ok));
    over.set("shed_overloaded", Json::num(total.overloaded));
    over.set("server_reject_counter", Json::num(overload_rejects));
    over.set("probes_alive", Json::boolean(overload_alive));
    over.set("all_answered", Json::boolean(overload_all_answered));
    over.set("recovery_p50_us", Json::num(rec_p50));
    over.set("recovery_p99_us", Json::num(recovery_p99));
    root.set("overload", over);
  }

  // ---- phase 3: loopback bit-identity -----------------------------------
  bool identity = true;
  {
    auto store = std::make_shared<serve::ShardedEmbeddingStore>();
    store->publish(random_matrix(std::min<std::size_t>(nodes, 2000), dims,
                                 5),
                   100, "bench");
    serve::EmbeddingServer engine(store);
    net::Server front(engine, {});
    front.start();
    net::Client cl("127.0.0.1", front.port());
    Rng rng(static_cast<std::uint64_t>(seed) + 3);
    const std::size_t n = store->num_rows();
    for (int i = 0; i < 64 && identity; ++i) {
      const auto u = static_cast<NodeId>(rng.bounded(n));
      const serve::TopKResult local = engine.topk(u, 10).get();
      const net::Response wire = cl.topk(u, 10);
      identity = wire.status == net::Status::kOk &&
                 wire.version == local.version &&
                 wire.neighbors.size() == local.neighbors.size();
      for (std::size_t j = 0; identity && j < local.neighbors.size(); ++j) {
        identity = wire.neighbors[j].node == local.neighbors[j].node &&
                   wire.neighbors[j].score == local.neighbors[j].score;
      }
      const auto v = static_cast<NodeId>(rng.bounded(n));
      const serve::ScoreResult slocal =
          engine.score(u, v, EdgeScore::kCosine).get();
      const net::Response swire = cl.score(u, v, EdgeScore::kCosine);
      identity = identity && swire.status == net::Status::kOk &&
                 swire.score == slocal.score;
    }
    std::printf("identity: served == in-process (bit-exact): %s\n\n",
                identity ? "yes" : "NO");
    front.stop();
    engine.drain_for(std::chrono::seconds(10));

    Json ident = Json::object();
    ident.set("queries", Json::num(static_cast<std::size_t>(64 * 2)));
    ident.set("bit_identical", Json::boolean(identity));
    root.set("identity", ident);
  }

  // ---- gates ------------------------------------------------------------
  const bool gate_qps = mixed_qps > 0.0 && mixed_ok_majority;
  const bool gate_rejects = overload_rejects > 0;
  const bool gate_recovery =
      recovery_p99 > 0.0 &&
      recovery_p99 <= std::max(10.0 * mixed_p99, 20000.0);
  const bool gate_clean_wire = mixed_bad_frames == 0;
  Json gates = Json::object();
  gates.set("mixed_sustained", Json::boolean(gate_qps));
  gates.set("overload_sheds", Json::boolean(gate_rejects));
  gates.set("overload_stays_up", Json::boolean(overload_alive));
  gates.set("overload_no_blocking", Json::boolean(overload_all_answered));
  gates.set("post_burst_p99_recovers", Json::boolean(gate_recovery));
  gates.set("loopback_bit_identical", Json::boolean(identity));
  gates.set("no_bad_frames_on_clean_traffic",
            Json::boolean(gate_clean_wire));
  root.set("gates", gates);

  const bool all_gates = gate_qps && gate_rejects && overload_alive &&
                         overload_all_answered && gate_recovery &&
                         identity && gate_clean_wire;
  std::printf("gates: %s\n", all_gates ? "ALL PASS" : "FAILURES");

  bool ok = true;
  if (!json_path.empty()) ok = bench::write_json_file(json_path, root);
  ok = bench::dump_metrics(metrics_out) && ok;
  return ok && all_gates ? 0 : 1;
}
