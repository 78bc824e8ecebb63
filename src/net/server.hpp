#pragma once
// TCP front-end for serve::EmbeddingServer speaking seqge-wire-v1
// (net/wire.hpp; spec in docs/SERVING.md) — the gate between "library"
// and "system": external clients issue top-k / edge-score / batch /
// stats requests over a socket instead of std::future in-process.
//
// Architecture — one event loop over the engine's one request queue:
//
//   clients ──▶ event-loop thread (poll)        EmbeddingServer workers
//              ┌──────────────────────────┐     ┌────────────────────┐
//              │ accept / read / decode   │     │ answer against the │
//              │ admission control:       │ sub-│ latest engine,     │
//              │  * SHUTTING_DOWN drain   │ mit │ then the callback: │
//              │  * token-bucket          │ ──▶ │  encode response,  │
//              │    RATE_LIMITED          │     │  stage to outbox,  │
//              │  * submit() shed         │     │  wake the loop     │
//              │    OVERLOADED            │     └────────────────────┘
//              │ coalesce single top-k    │  ◀── outbox + wake pipe
//              │ into engine batch calls  │
//              │ write-buffer flushing    │
//              └──────────────────────────┘
//
// The event loop never blocks on the engine: submission goes through
// EmbeddingServer::submit (BoundedQueue::try_push under the hood), so a
// saturated engine queue sheds with OVERLOADED instead of parking the
// loop. The engine worker that answers a request encodes the response
// in the submit callback, so a request crosses one queue and one
// thread pool, and a slow request delays only its own response.
//
// Coalescing: single top-k requests decoded in one poll sweep (across
// connections) with the same k are merged into one
// EmbeddingServer::topk_batch call — one queue slot and one worker
// wake-up for the whole group — and fanned back out as individual
// responses. This is the host-side analogue of the accelerator's
// batched walk training: amortize per-item dispatch over a batch.
//
// Hardening: max-frame and max-connection limits, per-client token
// bucket, idle-connection timeout, graceful drain on stop() (stop
// accepting, answer SHUTTING_DOWN, flush in-flight responses up to
// drain_timeout). Everything is instrumented through src/obs/ under
// seqge_net_* (docs/OBSERVABILITY.md).
//
// Threading: the connection table is owned exclusively by the event-
// loop thread; engine callbacks communicate with it only through the
// locked outbox + wake pipe, and with clients never directly.
// start()/stop() are for one controlling thread; stats accessors are
// safe anywhere.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/embedding_server.hpp"

namespace seqge::net {

struct NetServerConfig {
  std::string bind_addr = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read back with port().
  std::uint16_t port = 0;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 256;
  /// Frames announcing a larger body are rejected (FRAME_TOO_LARGE)
  /// and the connection closed.
  std::size_t max_frame_bytes = kDefaultMaxFrame;
  /// Connections idle (no readable bytes) longer than this are closed.
  /// 0 disables the sweep.
  std::chrono::milliseconds idle_timeout{30000};
  /// Per-client token bucket: requests/second and banked burst.
  /// rate <= 0 disables rate limiting.
  double rate_limit_qps = 0.0;
  double rate_limit_burst = 64.0;
  /// Max single top-k requests coalesced into one engine batch call.
  std::size_t coalesce_max = 16;
  /// stop() waits this long for in-flight responses to flush before
  /// tearing connections down.
  std::chrono::milliseconds drain_timeout{2000};
};

class Server {
 public:
  /// The engine must outlive the server. Call start() to begin serving.
  Server(serve::EmbeddingServer& engine, NetServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the event-loop thread (the only thread
  /// the server starts). Throws std::system_error on bind failure.
  void start();

  /// The port actually bound (after start(); resolves port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Graceful drain: stop accepting, answer new requests with
  /// SHUTTING_DOWN, and wait up to cfg.drain_timeout for in-flight
  /// responses to flush. Returns the number of responses the engine had
  /// not yet answered when that timeout expired (0 = clean drain).
  /// Either way stop() then joins the event loop and waits until the
  /// engine has answered every request this server submitted, so no
  /// engine callback for this server runs after stop() returns. It
  /// hands those last answers to their connections, then closes them.
  /// Idempotent; also run by the destructor; start() may follow.
  std::size_t stop();

  // Lifetime totals, safe from any thread (the kStats wire response
  // carries the same numbers).
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return conns_total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_admitted() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejected_overload() const noexcept {
    return rej_overload_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejected_ratelimit() const noexcept {
    return rej_ratelimit_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bad_frames() const noexcept {
    return bad_frames_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t open_connections() const noexcept {
    return open_conns_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;
  struct Pending;
  /// One encoded response bound for a connection.
  using Outgoing = std::pair<std::uint64_t, std::vector<std::uint8_t>>;
  /// Encodes a successful engine answer for member `i` of a submitted
  /// group of wire requests.
  using Encoder = void (*)(std::vector<std::uint8_t>& out,
                           std::uint64_t wire_id, serve::Answer& answer,
                           std::size_t i);

  void run_loop();
  /// Parse + dispatch every complete frame in `conn`'s read buffer.
  void process_frames(Conn& conn);
  void dispatch(Conn& conn, Request&& req,
                std::chrono::steady_clock::time_point t0);
  /// Submit `query`, which answers the wire requests `members` of
  /// type `type` (one request, or a coalesced group of single top-ks).
  /// The engine worker encodes each member's response with `encode`
  /// (or an ERROR frame) and stages them. Sheds every member with
  /// OVERLOADED, and returns false, when the engine refuses the query.
  bool submit(MsgType type, std::vector<Pending> members,
              serve::Query query, Encoder encode);
  /// Submit the coalesced single-top-k groups accumulated this sweep.
  void flush_coalesced();
  /// Engine-worker side: queue encoded responses under one lock and
  /// wake the event loop once.
  void stage(std::vector<Outgoing>&& responses);
  /// Event-loop side: drain the wake pipe and move staged responses
  /// into their connections' write buffers.
  void deliver_staged();
  /// Event-loop side: append + try to flush immediately.
  void send_now(Conn& conn, const std::vector<std::uint8_t>& bytes);
  bool flush_out(Conn& conn);  ///< false = fatal write error, drop conn
  void close_conn(std::uint64_t conn_id);
  /// Write one byte to the wake pipe.
  void wake() noexcept;
  ServerStats snapshot_stats() const;

  serve::EmbeddingServer& engine_;
  NetServerConfig cfg_;

  Fd listen_fd_;
  Fd wake_r_, wake_w_;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_loop_{false};
  std::atomic<bool> quiescent_{true};  ///< loop: all buffers flushed
  /// Loop: a whole sweep ran after draining_ was set.
  std::atomic<bool> drain_seen_{false};
  /// Wire responses submitted to the engine whose callback has not yet
  /// staged them — stop() waits for zero before tearing down.
  std::atomic<std::int64_t> inflight_{0};

  std::mutex outbox_mu_;
  std::vector<Outgoing> outbox_;

  std::thread loop_;

  // Event-loop-owned state (touched only by run_loop and the helpers
  // it calls on its own thread).
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint32_t, std::vector<Pending>> pending_topk_;

  std::atomic<std::uint64_t> conns_total_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rej_overload_{0};
  std::atomic<std::uint64_t> rej_ratelimit_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::uint64_t> open_conns_{0};
};

}  // namespace seqge::net
