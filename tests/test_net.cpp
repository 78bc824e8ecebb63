// Network front-end tests: seqge-wire-v1 codec round-trips for every
// message type, strict rejection of malformed / truncated / oversized /
// wrong-version frames, the token-bucket limiter, and loopback
// end-to-end serving — including the bit-identity contract (a served
// answer equals the in-process answer with ==, not near), admission
// statuses (NOT_READY, RATE_LIMITED, OVERLOADED), pipelined
// out-of-order completion, no head-of-line blocking across
// connections, graceful drain (every response delivered or counted,
// no engine callback after stop()), and restart.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/token_bucket.hpp"
#include "net/wire.hpp"
#include "serve/embedding_server.hpp"
#include "util/rng.hpp"

namespace seqge::net {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  MatrixF m(rows, cols);
  Rng rng(seed);
  for (float& v : m.flat()) {
    v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  return m;
}

std::shared_ptr<serve::ShardedEmbeddingStore> published_store(
    std::size_t nodes = 64, std::size_t dims = 8) {
  auto store = std::make_shared<serve::ShardedEmbeddingStore>();
  store->publish(random_matrix(nodes, dims, 99), 123, "test");
  return store;
}

// --- codec round-trips ---------------------------------------------------

Request decode_ok(const std::vector<std::uint8_t>& frame) {
  bool too_large = false;
  const std::size_t fsize = frame_size(frame, kDefaultMaxFrame, &too_large);
  EXPECT_FALSE(too_large);
  EXPECT_EQ(fsize, frame.size());
  Request req;
  const std::span<const std::uint8_t> body(frame.data() + kLenBytes,
                                           frame.size() - kLenBytes);
  EXPECT_EQ(decode_request(body, req), Status::kOk);
  return req;
}

Response decode_resp_ok(const std::vector<std::uint8_t>& frame) {
  bool too_large = false;
  const std::size_t fsize = frame_size(frame, kDefaultMaxFrame, &too_large);
  EXPECT_FALSE(too_large);
  EXPECT_EQ(fsize, frame.size());
  Response resp;
  const std::span<const std::uint8_t> body(frame.data() + kLenBytes,
                                           frame.size() - kLenBytes);
  EXPECT_TRUE(decode_response(body, resp));
  return resp;
}

TEST(Wire, TopKRequestRoundTrip) {
  std::vector<std::uint8_t> f;
  encode_topk_request(f, 77, 42, 10);
  const Request req = decode_ok(f);
  EXPECT_EQ(req.type, MsgType::kTopK);
  EXPECT_EQ(req.id, 77u);
  EXPECT_EQ(req.u, 42u);
  EXPECT_EQ(req.k, 10u);
}

TEST(Wire, ScoreRequestRoundTrip) {
  std::vector<std::uint8_t> f;
  encode_score_request(f, 5, 1, 2, EdgeScore::kHadamardL2);
  const Request req = decode_ok(f);
  EXPECT_EQ(req.type, MsgType::kScore);
  EXPECT_EQ(req.id, 5u);
  EXPECT_EQ(req.u, 1u);
  EXPECT_EQ(req.v, 2u);
  EXPECT_EQ(req.kind, EdgeScore::kHadamardL2);
}

TEST(Wire, TopKBatchRequestRoundTrip) {
  const std::vector<NodeId> nodes{3, 1, 4, 1, 5};
  std::vector<std::uint8_t> f;
  encode_topk_batch_request(f, 9, nodes, 7);
  const Request req = decode_ok(f);
  EXPECT_EQ(req.type, MsgType::kTopKBatch);
  EXPECT_EQ(req.k, 7u);
  EXPECT_EQ(req.nodes, nodes);
}

TEST(Wire, ScoreBatchRequestRoundTrip) {
  const std::vector<std::pair<NodeId, NodeId>> pairs{{1, 2}, {3, 4}};
  std::vector<std::uint8_t> f;
  encode_score_batch_request(f, 11, pairs, EdgeScore::kDot);
  const Request req = decode_ok(f);
  EXPECT_EQ(req.type, MsgType::kScoreBatch);
  EXPECT_EQ(req.kind, EdgeScore::kDot);
  EXPECT_EQ(req.pairs, pairs);
}

TEST(Wire, StatsAndPingRequestsRoundTrip) {
  std::vector<std::uint8_t> f;
  encode_stats_request(f, 1);
  EXPECT_EQ(decode_ok(f).type, MsgType::kStats);
  f.clear();
  encode_ping_request(f, 2);
  EXPECT_EQ(decode_ok(f).type, MsgType::kPing);
}

TEST(Wire, TopKResponseRoundTripBitExact) {
  const std::vector<serve::Neighbor> neigh{{4, 0.25f}, {9, -1.5f},
                                           {2, 1e-30f}};
  std::vector<std::uint8_t> f;
  encode_topk_response(f, 13, 7, neigh);
  const Response resp = decode_resp_ok(f);
  EXPECT_EQ(resp.type, MsgType::kTopK);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.id, 13u);
  EXPECT_EQ(resp.version, 7u);
  ASSERT_EQ(resp.neighbors.size(), neigh.size());
  for (std::size_t i = 0; i < neigh.size(); ++i) {
    EXPECT_EQ(resp.neighbors[i].node, neigh[i].node);
    EXPECT_EQ(resp.neighbors[i].score, neigh[i].score);  // bit-exact
  }
}

TEST(Wire, ScoreResponseRoundTripBitExact) {
  std::vector<std::uint8_t> f;
  const double score = 0.1234567890123456789;  // not representable
  encode_score_response(f, 21, 3, score);
  const Response resp = decode_resp_ok(f);
  EXPECT_EQ(resp.type, MsgType::kScore);
  EXPECT_EQ(resp.version, 3u);
  EXPECT_EQ(resp.score, score);
}

TEST(Wire, BatchResponsesRoundTrip) {
  const std::vector<std::vector<serve::Neighbor>> results{
      {{1, 0.5f}, {2, 0.25f}}, {}, {{7, -0.125f}}};
  std::vector<std::uint8_t> f;
  encode_topk_batch_response(f, 31, 9, results);
  Response resp = decode_resp_ok(f);
  EXPECT_EQ(resp.type, MsgType::kTopKBatch);
  ASSERT_EQ(resp.batch.size(), 3u);
  EXPECT_EQ(resp.batch[1].size(), 0u);
  EXPECT_EQ(resp.batch[2][0].node, 7u);
  EXPECT_EQ(resp.batch[2][0].score, -0.125f);

  const std::vector<double> scores{0.5, -1.0, 3.25};
  f.clear();
  encode_score_batch_response(f, 32, 9, scores);
  resp = decode_resp_ok(f);
  EXPECT_EQ(resp.type, MsgType::kScoreBatch);
  EXPECT_EQ(resp.scores, scores);
}

TEST(Wire, StatsResponseRoundTrip) {
  ServerStats s;
  s.snapshot_version = 1;
  s.queries_served = 2;
  s.engine_rebuilds = 3;
  s.queue_depth = 4;
  s.queue_capacity = 5;
  s.open_connections = 6;
  s.connections_total = 7;
  s.requests_total = 8;
  s.rejected_overload = 9;
  s.rejected_ratelimit = 10;
  s.bad_frames = 11;
  std::vector<std::uint8_t> f;
  encode_stats_response(f, 41, s);
  const Response resp = decode_resp_ok(f);
  EXPECT_EQ(resp.type, MsgType::kStats);
  EXPECT_EQ(resp.stats.snapshot_version, 1u);
  EXPECT_EQ(resp.stats.queue_capacity, 5u);
  EXPECT_EQ(resp.stats.rejected_ratelimit, 10u);
  EXPECT_EQ(resp.stats.bad_frames, 11u);
}

TEST(Wire, ErrorResponseCarriesStatusAndEmptyPayload) {
  std::vector<std::uint8_t> f;
  encode_error_response(f, MsgType::kTopK, 55, Status::kOverloaded);
  const Response resp = decode_resp_ok(f);
  EXPECT_EQ(resp.type, MsgType::kTopK);
  EXPECT_EQ(resp.status, Status::kOverloaded);
  EXPECT_EQ(resp.id, 55u);
  EXPECT_TRUE(resp.neighbors.empty());
}

// --- strict decoding -----------------------------------------------------

TEST(Wire, IncompleteFrameNeedsMoreBytes) {
  std::vector<std::uint8_t> f;
  encode_topk_request(f, 1, 2, 3);
  bool too_large = false;
  for (std::size_t n = 0; n < f.size(); ++n) {
    const std::span<const std::uint8_t> prefix(f.data(), n);
    EXPECT_EQ(frame_size(prefix, kDefaultMaxFrame, &too_large), 0u);
    EXPECT_FALSE(too_large);
  }
  EXPECT_EQ(frame_size(f, kDefaultMaxFrame, &too_large), f.size());
}

TEST(Wire, OversizedFrameFlagged) {
  std::vector<std::uint8_t> f;
  encode_topk_request(f, 1, 2, 3);
  bool too_large = false;
  // Tiny limit: the announced body no longer fits.
  EXPECT_EQ(frame_size(f, 4, &too_large), 0u);
  EXPECT_TRUE(too_large);
}

TEST(Wire, VersionMismatchRejected) {
  std::vector<std::uint8_t> f;
  encode_topk_request(f, 1, 2, 3);
  f[kLenBytes] = 2;  // version byte
  Request req;
  const std::span<const std::uint8_t> body(f.data() + kLenBytes,
                                           f.size() - kLenBytes);
  EXPECT_EQ(decode_request(body, req), Status::kVersionMismatch);
  EXPECT_EQ(req.id, 1u);  // id still echoed
}

TEST(Wire, GarbageRejectedAsBadRequest) {
  std::vector<std::uint8_t> f;
  encode_topk_request(f, 1, 2, 3);

  auto body = [&](std::vector<std::uint8_t>& frame) {
    return std::span<const std::uint8_t>(frame.data() + kLenBytes,
                                         frame.size() - kLenBytes);
  };
  Request req;

  auto bad = f;
  bad[kLenBytes + 1] = 0x55;  // unknown type
  EXPECT_EQ(decode_request(body(bad), req), Status::kBadRequest);

  bad = f;
  bad[kLenBytes + 1] |= kResponseBit;  // response bit in a request
  EXPECT_EQ(decode_request(body(bad), req), Status::kBadRequest);

  bad = f;
  bad[kLenBytes + 3] = 1;  // non-zero flags
  EXPECT_EQ(decode_request(body(bad), req), Status::kBadRequest);

  bad = f;
  bad.push_back(0);  // trailing payload byte
  EXPECT_EQ(decode_request(body(bad), req), Status::kBadRequest);

  bad = f;
  bad.resize(bad.size() - 2);  // truncated payload
  EXPECT_EQ(decode_request(body(bad), req), Status::kBadRequest);

  // Hostile count: a batch announcing more nodes than the body holds
  // must be rejected before any allocation.
  std::vector<std::uint8_t> batch;
  encode_topk_batch_request(batch, 1, std::vector<NodeId>{1, 2, 3}, 5);
  const std::uint32_t huge = 0x40000000u;
  std::memcpy(batch.data() + kLenBytes + kHeaderBytes + 4, &huge, 4);
  EXPECT_EQ(decode_request(body(batch), req), Status::kBadRequest);

  std::vector<std::uint8_t> score;
  encode_score_request(score, 1, 2, 3, EdgeScore::kDot);
  score[kLenBytes + kHeaderBytes + 8] = 17;  // invalid EdgeScore
  EXPECT_EQ(decode_request(body(score), req), Status::kBadRequest);
}

// --- token bucket --------------------------------------------------------

TEST(TokenBucket, EnforcesRateAndRefills) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  TokenBucket bucket(10.0, 2.0, t0);  // 10/s, burst 2
  EXPECT_TRUE(bucket.take(t0));
  EXPECT_TRUE(bucket.take(t0));
  EXPECT_FALSE(bucket.take(t0));  // burst exhausted
  // 100 ms later one token has refilled.
  const auto t1 = t0 + std::chrono::milliseconds(100);
  EXPECT_TRUE(bucket.take(t1));
  EXPECT_FALSE(bucket.take(t1));
  // Refill caps at the burst size however long the idle gap.
  const auto t2 = t1 + std::chrono::hours(1);
  EXPECT_TRUE(bucket.take(t2));
  EXPECT_TRUE(bucket.take(t2));
  EXPECT_FALSE(bucket.take(t2));
}

TEST(TokenBucket, ZeroRateDisables) {
  TokenBucket bucket(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.take());
}

// --- loopback end-to-end -------------------------------------------------

struct Loopback {
  explicit Loopback(serve::ServerConfig engine_cfg = {},
                    NetServerConfig net_cfg = {},
                    std::shared_ptr<serve::ShardedEmbeddingStore> st = nullptr)
      : store(st != nullptr ? std::move(st) : published_store()),
        engine(store, engine_cfg), server(engine, net_cfg) {
    server.start();
  }
  std::shared_ptr<serve::ShardedEmbeddingStore> store;
  serve::EmbeddingServer engine;
  Server server;
};

TEST(NetServer, LoopbackAnswersBitIdenticalToInProcess) {
  Loopback lb;
  Client client("127.0.0.1", lb.server.port());

  for (NodeId u = 0; u < 16; ++u) {
    const serve::TopKResult local = lb.engine.topk(u, 5).get();
    const Response wire = client.topk(u, 5);
    ASSERT_EQ(wire.status, Status::kOk);
    EXPECT_EQ(wire.version, local.version);
    ASSERT_EQ(wire.neighbors.size(), local.neighbors.size());
    for (std::size_t i = 0; i < local.neighbors.size(); ++i) {
      EXPECT_EQ(wire.neighbors[i].node, local.neighbors[i].node);
      // The contract: raw IEEE-754 bits cross the wire, so == holds.
      EXPECT_EQ(wire.neighbors[i].score, local.neighbors[i].score);
    }
  }
  for (const auto kind :
       {EdgeScore::kDot, EdgeScore::kCosine, EdgeScore::kHadamardL2}) {
    const serve::ScoreResult local = lb.engine.score(3, 11, kind).get();
    const Response wire = client.score(3, 11, kind);
    ASSERT_EQ(wire.status, Status::kOk);
    EXPECT_EQ(wire.score, local.score);
  }
}

TEST(NetServer, BatchRequestsMatchInProcess) {
  Loopback lb;
  Client client("127.0.0.1", lb.server.port());

  const std::vector<NodeId> nodes{0, 7, 13, 63};
  const serve::TopKBatchResult local =
      lb.engine.topk_batch(nodes, 4).get();
  const Response wire = client.topk_batch(nodes, 4);
  ASSERT_EQ(wire.status, Status::kOk);
  ASSERT_EQ(wire.batch.size(), local.results.size());
  for (std::size_t i = 0; i < local.results.size(); ++i) {
    ASSERT_EQ(wire.batch[i].size(), local.results[i].size());
    for (std::size_t j = 0; j < local.results[i].size(); ++j) {
      EXPECT_EQ(wire.batch[i][j].node, local.results[i][j].node);
      EXPECT_EQ(wire.batch[i][j].score, local.results[i][j].score);
    }
  }

  const std::vector<std::pair<NodeId, NodeId>> pairs{{0, 1}, {5, 9}};
  const serve::ScoreBatchResult slocal =
      lb.engine.score_batch(pairs, EdgeScore::kCosine).get();
  const Response swire = client.score_batch(pairs, EdgeScore::kCosine);
  ASSERT_EQ(swire.status, Status::kOk);
  EXPECT_EQ(swire.scores, slocal.scores);
}

TEST(NetServer, PipelinedResponsesMatchedByCorrelationId) {
  Loopback lb;
  Client client("127.0.0.1", lb.server.port());

  std::vector<std::uint64_t> ids;
  for (NodeId u = 0; u < 32; ++u) ids.push_back(client.send_topk(u, 3));
  // Collect in reverse order: wait() must park interleaved arrivals.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    const Response resp = client.wait(*it);
    EXPECT_EQ(resp.id, *it);
    EXPECT_EQ(resp.status, Status::kOk);
  }
  EXPECT_EQ(client.parked(), 0u);
}

TEST(NetServer, PingAndStats) {
  Loopback lb;
  Client client("127.0.0.1", lb.server.port());
  EXPECT_EQ(client.ping().status, Status::kOk);
  (void)client.topk(1, 3);
  const Response st = client.stats();
  ASSERT_EQ(st.status, Status::kOk);
  EXPECT_EQ(st.stats.snapshot_version, 1u);
  EXPECT_EQ(st.stats.open_connections, 1u);
  EXPECT_GE(st.stats.requests_total, 1u);
  EXPECT_EQ(st.stats.queue_capacity, 1024u);
}

TEST(NetServer, NotReadyBeforeFirstPublish) {
  auto empty = std::make_shared<serve::ShardedEmbeddingStore>();
  Loopback lb({}, {}, empty);
  Client client("127.0.0.1", lb.server.port());
  EXPECT_EQ(client.topk(0, 3).status, Status::kNotReady);
  EXPECT_EQ(client.ping().status, Status::kOk);  // probes still work
}

TEST(NetServer, RateLimitSheds) {
  NetServerConfig ncfg;
  ncfg.rate_limit_qps = 0.001;  // ~no refill within the test
  ncfg.rate_limit_burst = 3.0;
  Loopback lb({}, ncfg);
  Client client("127.0.0.1", lb.server.port());

  int ok = 0, limited = 0;
  for (int i = 0; i < 10; ++i) {
    const Status s = client.topk(1, 3).status;
    if (s == Status::kOk) ++ok;
    if (s == Status::kRateLimited) ++limited;
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(limited, 7);
  EXPECT_EQ(lb.server.rejected_ratelimit(), 7u);
  // Pings bypass the bucket: the operator can always probe.
  EXPECT_EQ(client.ping().status, Status::kOk);
}

TEST(NetServer, OverloadShedsInsteadOfBlocking) {
  serve::ServerConfig ecfg;
  ecfg.threads = 1;
  ecfg.queue_capacity = 2;
  Loopback lb(ecfg, {}, published_store(512, 32));
  Client client("127.0.0.1", lb.server.port());

  // Pipeline far more work than a 2-slot queue with one worker can
  // hold; each batch occupies the worker long enough for the window to
  // pile up. Every response must be OK or OVERLOADED — never a hang.
  const std::vector<NodeId> nodes = [] {
    std::vector<NodeId> v(64);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<NodeId>(i);
    }
    return v;
  }();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(client.send_topk_batch(nodes, 10));
  }
  int ok = 0, shed = 0;
  for (const std::uint64_t id : ids) {
    const Status s = client.wait(id).status;
    if (s == Status::kOk) ++ok;
    if (s == Status::kOverloaded) ++shed;
  }
  EXPECT_EQ(ok + shed, 64);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(lb.server.rejected_overload(),
            static_cast<std::uint64_t>(shed));
}

TEST(NetServer, MalformedFramesOverLoopback) {
  NetServerConfig ncfg;
  ncfg.max_frame_bytes = 1024;
  Loopback lb({}, ncfg);

  // A version-2 frame is answered VERSION_MISMATCH and the connection
  // survives (frame boundaries were honored).
  Client client("127.0.0.1", lb.server.port());
  {
    std::vector<std::uint8_t> f;
    encode_topk_request(f, 31, 1, 3);
    f[kLenBytes] = 2;
    Fd raw = connect_tcp("127.0.0.1", lb.server.port());
    ASSERT_EQ(::send(raw.get(), f.data(), f.size(), 0),
              static_cast<ssize_t>(f.size()));
    std::vector<std::uint8_t> buf(4096);
    const ssize_t n = ::recv(raw.get(), buf.data(), buf.size(), 0);
    ASSERT_GT(n, 0);
    buf.resize(static_cast<std::size_t>(n));
    Response resp;
    ASSERT_TRUE(decode_response(
        std::span<const std::uint8_t>(buf.data() + kLenBytes,
                                      buf.size() - kLenBytes),
        resp));
    EXPECT_EQ(resp.status, Status::kVersionMismatch);
    EXPECT_EQ(resp.id, 31u);

    // Same connection, valid frame: still served.
    std::vector<std::uint8_t> good;
    encode_ping_request(good, 32);
    ASSERT_EQ(::send(raw.get(), good.data(), good.size(), 0),
              static_cast<ssize_t>(good.size()));
    const ssize_t n2 = ::recv(raw.get(), buf.data(), 4096, 0);
    EXPECT_GT(n2, 0);
  }

  // An oversized frame is answered FRAME_TOO_LARGE and the connection
  // closed (the stream is no longer frame-aligned).
  {
    Fd raw = connect_tcp("127.0.0.1", lb.server.port());
    std::vector<std::uint8_t> f(kLenBytes);
    const std::uint32_t huge = 1u << 30;
    std::memcpy(f.data(), &huge, 4);
    ASSERT_EQ(::send(raw.get(), f.data(), f.size(), 0),
              static_cast<ssize_t>(f.size()));
    std::vector<std::uint8_t> buf(4096);
    const ssize_t n = ::recv(raw.get(), buf.data(), buf.size(), 0);
    ASSERT_GT(n, 0);
    Response resp;
    ASSERT_TRUE(decode_response(
        std::span<const std::uint8_t>(buf.data() + kLenBytes,
                                      static_cast<std::size_t>(n) -
                                          kLenBytes),
        resp));
    EXPECT_EQ(resp.status, Status::kFrameTooLarge);
    // Then EOF.
    EXPECT_EQ(::recv(raw.get(), buf.data(), buf.size(), 0), 0);
  }

  // Garbage payload inside a well-framed body: BAD_REQUEST.
  {
    const Response bad = [&] {
      std::vector<std::uint8_t> f;
      encode_topk_request(f, 41, 1, 3);
      f.resize(f.size() - 2);  // truncate payload
      const std::uint32_t body_len =
          static_cast<std::uint32_t>(f.size() - kLenBytes);
      std::memcpy(f.data(), &body_len, 4);
      Fd raw = connect_tcp("127.0.0.1", lb.server.port());
      ::send(raw.get(), f.data(), f.size(), 0);
      std::vector<std::uint8_t> buf(4096);
      const ssize_t n = ::recv(raw.get(), buf.data(), buf.size(), 0);
      EXPECT_GT(n, 0);
      Response resp;
      EXPECT_TRUE(decode_response(
          std::span<const std::uint8_t>(buf.data() + kLenBytes,
                                        static_cast<std::size_t>(n) -
                                            kLenBytes),
          resp));
      return resp;
    }();
    EXPECT_EQ(bad.status, Status::kBadRequest);
    EXPECT_EQ(bad.id, 41u);
  }
  EXPECT_GE(lb.server.bad_frames(), 3u);
}

TEST(NetServer, GracefulStopDrainsAndRefusesNewConnections) {
  auto lb = std::make_unique<Loopback>();
  const std::uint16_t port = lb->server.port();
  Client client("127.0.0.1", port);
  for (NodeId u = 0; u < 8; ++u) {
    EXPECT_EQ(client.topk(u, 3).status, Status::kOk);
  }
  EXPECT_EQ(lb->server.stop(), 0u);  // idle server: clean drain
  EXPECT_FALSE(lb->server.running());
  EXPECT_THROW(Client("127.0.0.1", port), std::system_error);
  lb.reset();  // double-stop via destructor is a no-op
}

/// 0, 1, ..., n-1.
std::vector<NodeId> first_nodes(std::size_t n) {
  std::vector<NodeId> v(n);
  std::iota(v.begin(), v.end(), NodeId{0});
  return v;
}

TEST(NetServer, StopDeliversOrCountsEveryPipelinedResponse) {
  // One engine worker and batches of exact scans: most of the pipelined
  // requests are still queued when the 1 ms drain timeout expires.
  const auto store = published_store(8000, 32);
  serve::ServerConfig ecfg;
  ecfg.threads = 1;
  serve::EmbeddingServer engine(store, ecfg);
  NetServerConfig ncfg;
  ncfg.drain_timeout = std::chrono::milliseconds(1);
  auto server = std::make_unique<Server>(engine, ncfg);
  server->start();

  Client client("127.0.0.1", server->port());
  const std::vector<NodeId> nodes = first_nodes(32);
  constexpr std::size_t kRequests = 40;
  for (std::size_t i = 0; i < kRequests; ++i) {
    (void)client.send_topk_batch(nodes, 1);
  }
  // Stop only once every request was decoded and submitted.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
  while (server->requests_admitted() < kRequests &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server->requests_admitted(), kRequests);

  const std::size_t left = server->stop();
  EXPECT_GT(left, 0u);  // the timeout path really ran
  // stop() returned only after the engine answered every request the
  // server submitted, so no callback for it can still run: destroying
  // it now must be safe (the sanitizer legs check the memory side).
  EXPECT_EQ(engine.queries_served(), kRequests * nodes.size());
  server.reset();

  std::size_t delivered = 0;
  try {
    for (;;) {
      const Response r = client.recv();
      EXPECT_EQ(r.status, Status::kOk);
      ++delivered;
    }
  } catch (const std::exception&) {
    // EOF: stop() closed the connection after the last flush.
  }
  EXPECT_LE(delivered, kRequests);
  EXPECT_GE(delivered + left, kRequests);
  engine.drain();
}

TEST(NetServer, StopWhileTopKsAreDecodedRunsNoLateCallback) {
  // stop() lands while the event loop is still decoding a burst of
  // pipelined single top-ks that wait to coalesce until the end of the
  // sweep. Whatever the loop submitted must be answered before stop()
  // returns: the engine serves nothing after that, and destroying the
  // server at once is safe (the sanitizer legs check the memory side).
  const auto store = published_store(2000, 16);
  serve::ServerConfig ecfg;
  ecfg.threads = 2;
  NetServerConfig ncfg;
  ncfg.coalesce_max = 1u << 16;
  ncfg.drain_timeout = std::chrono::milliseconds(1);

  constexpr std::size_t kRequests = 4000;
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < kRequests; ++i) {
    encode_topk_request(burst, i + 1, static_cast<NodeId>(i % 2000), 5);
  }
  for (int round = 0; round < 40; ++round) {
    serve::EmbeddingServer engine(store, ecfg);
    auto server = std::make_unique<Server>(engine, ncfg);
    server->start();
    Fd raw = connect_tcp("127.0.0.1", server->port());
    ASSERT_EQ(::send(raw.get(), burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    std::this_thread::sleep_for(std::chrono::microseconds(25 * round));
    (void)server->stop();
    const std::uint64_t served = engine.queries_served();
    server.reset();
    engine.drain();  // answers whatever is still queued
    ASSERT_EQ(engine.queries_served(), served) << "round " << round;
  }
}

TEST(NetServer, RestartAfterStopStillAnswers) {
  Loopback lb;
  {
    Client client("127.0.0.1", lb.server.port());
    EXPECT_EQ(client.topk(1, 3).status, Status::kOk);
  }
  EXPECT_EQ(lb.server.stop(), 0u);
  EXPECT_FALSE(lb.server.running());

  lb.server.start();
  EXPECT_TRUE(lb.server.running());
  Client client("127.0.0.1", lb.server.port());
  EXPECT_EQ(client.topk(2, 3).status, Status::kOk);
  EXPECT_EQ(client.score(1, 2, EdgeScore::kCosine).status, Status::kOk);
  const std::vector<NodeId> nodes = first_nodes(4);
  const Response batch = client.topk_batch(nodes, 3);
  EXPECT_EQ(batch.status, Status::kOk);
  EXPECT_EQ(batch.batch.size(), nodes.size());
}

TEST(NetServer, SlowBatchDoesNotHoldBackScoreOnAnotherConnection) {
  // Two slow TOPK_BATCH requests occupy two engine workers; a SCORE on
  // a third connection must come back from the third worker at once,
  // not queue behind the slow answers (head-of-line blocking).
  serve::ServerConfig ecfg;
  ecfg.threads = 3;
  Loopback lb(ecfg, {}, published_store(20000, 32));
  const std::vector<NodeId> nodes = first_nodes(512);
  Client slow_a("127.0.0.1", lb.server.port());
  Client slow_b("127.0.0.1", lb.server.port());
  const std::uint64_t id_a = slow_a.send_topk_batch(nodes, 10);
  const std::uint64_t id_b = slow_b.send_topk_batch(nodes, 10);
  while (lb.server.requests_admitted() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Client fast("127.0.0.1", lb.server.port());
  const Response s = fast.score(1, 2, EdgeScore::kCosine);
  EXPECT_EQ(s.status, Status::kOk);
  // Answered while both slow batches were still being scanned: the
  // score's response did not wait for a slow one.
  EXPECT_LT(lb.engine.queries_served(), 1u + nodes.size());

  EXPECT_EQ(slow_a.wait(id_a).status, Status::kOk);
  EXPECT_EQ(slow_b.wait(id_b).status, Status::kOk);
}

TEST(NetServer, ConcurrentClientsWithPublishesStayCoherent) {
  // Trainer-style publisher keeps replacing the snapshot while several
  // client threads hammer the front-end; every OK response must carry a
  // version that is monotone per connection and k neighbors.
  Loopback lb;
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::uint64_t walks = 200;
    while (!stop.load(std::memory_order_acquire)) {
      lb.store->publish(random_matrix(64, 8, walks), walks, "pub");
      ++walks;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client cl("127.0.0.1", lb.server.port());
      std::uint64_t last_version = 0;
      Rng rng(static_cast<std::uint64_t>(c) + 1);
      for (int i = 0; i < 200; ++i) {
        const Response r =
            cl.topk(static_cast<NodeId>(rng.bounded(64)), 4);
        if (r.status != Status::kOk || r.version < last_version ||
            r.neighbors.size() != 4) {
          failures.fetch_add(1);
        }
        last_version = std::max(last_version, r.version);
      }
    });
  }
  for (auto& th : clients) th.join();
  stop.store(true, std::memory_order_release);
  publisher.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace seqge::net
