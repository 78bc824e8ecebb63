#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/token_bucket.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace seqge::net {

namespace {

/// Process-wide wire-layer metrics (docs/OBSERVABILITY.md, seqge_net_*).
struct NetMetrics {
  obs::Counter* connections;
  obs::Counter* requests;
  obs::Counter* rej_overload;
  obs::Counter* rej_ratelimit;
  obs::Counter* bad_frames;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* coalesced_batches;
  obs::Counter* coalesced_requests;
  obs::Gauge* open_conns;
  obs::Gauge* inflight;
  obs::Histogram* decode_us;
  obs::Histogram* request_us;
};

NetMetrics& net_metrics() {
  auto& reg = obs::Registry::global();
  static NetMetrics m{
      reg.counter("seqge_net_connections_total", {},
                  "TCP connections accepted"),
      reg.counter("seqge_net_requests_total", {},
                  "Wire requests admitted (decoded + past admission)"),
      reg.counter("seqge_net_rejected_overload_total", {},
                  "Requests shed with OVERLOADED (engine queue full)"),
      reg.counter("seqge_net_rejected_ratelimit_total", {},
                  "Requests shed with RATE_LIMITED (token bucket empty)"),
      reg.counter("seqge_net_bad_frames_total", {},
                  "Frames rejected (malformed, oversized, bad version)"),
      reg.counter("seqge_net_bytes_in_total", {}, "Bytes read from clients"),
      reg.counter("seqge_net_bytes_out_total", {},
                  "Bytes written to clients"),
      reg.counter("seqge_net_coalesced_batches_total", {},
                  "Engine batch calls that merged >1 wire top-k request"),
      reg.counter("seqge_net_coalesced_requests_total", {},
                  "Wire top-k requests that shared a coalesced engine call"),
      reg.gauge("seqge_net_open_connections", {}, "Connections open now"),
      reg.gauge("seqge_net_inflight_requests", {},
                "Requests admitted, response not yet staged"),
      reg.histogram("seqge_net_frame_decode_us",
                    obs::default_latency_buckets_us(), {},
                    "Wire frame decode time (microseconds)"),
      reg.histogram("seqge_net_request_us",
                    obs::default_latency_buckets_us(), {},
                    "Wire request latency, decode to response encode "
                    "(microseconds)"),
  };
  return m;
}

/// Wire request latency, decode to response encode.
void observe_request(std::chrono::steady_clock::time_point t0) {
  net_metrics().request_us->observe(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

constexpr std::size_t kReadChunk = 16 * 1024;

}  // namespace

/// Per-connection state, owned by the event-loop thread.
struct Server::Conn {
  Conn(Fd f, std::uint64_t id_, double rate, double burst)
      : fd(std::move(f)), id(id_), bucket(rate, burst),
        last_active(std::chrono::steady_clock::now()) {}

  Fd fd;
  std::uint64_t id;
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  TokenBucket bucket;
  std::chrono::steady_clock::time_point last_active;
  /// Framing is no longer trustworthy (oversized length): answer, then
  /// close once the error frame flushed.
  bool close_after_flush = false;
};

/// One wire request waiting on an engine answer.
struct Server::Pending {
  std::uint64_t conn_id = 0;
  std::uint64_t wire_id = 0;
  NodeId node = 0;  ///< a single top-k's node, while it waits to coalesce
  std::chrono::steady_clock::time_point t0{};
};

Server::Server(serve::EmbeddingServer& engine, NetServerConfig cfg)
    : engine_(engine), cfg_(std::move(cfg)) {
  if (cfg_.coalesce_max == 0) cfg_.coalesce_max = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  listen_fd_ = listen_tcp(cfg_.bind_addr, cfg_.port);
  set_nonblocking(listen_fd_);
  port_ = bound_port(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "net: pipe");
  }
  wake_r_ = Fd(pipe_fds[0]);
  wake_w_ = Fd(pipe_fds[1]);
  set_nonblocking(wake_r_);
  set_nonblocking(wake_w_);

  draining_.store(false, std::memory_order_release);
  stop_loop_.store(false, std::memory_order_release);
  drain_seen_.store(false, std::memory_order_release);
  quiescent_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  loop_ = std::thread([this] { run_loop(); });
  SEQGE_LOG_INFO << "net: listening on " << cfg_.bind_addr << ":" << port_
                 << " (engine queue cap " << engine_.queue_capacity() << ")";
}

std::size_t Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return 0;

  // Phase 1: stop admitting. The loop keeps running so in-flight
  // responses still reach their sockets; new requests get
  // SHUTTING_DOWN and accept() is parked. drain_seen_ says the loop ran
  // a whole sweep with admission closed: it submits nothing after that,
  // and its quiescent_ reading is newer than its last submission.
  draining_.store(true, std::memory_order_release);
  wake();
  const auto deadline =
      std::chrono::steady_clock::now() + cfg_.drain_timeout;
  std::size_t left = 0;
  for (;;) {
    const bool seen = drain_seen_.load(std::memory_order_acquire);
    const std::int64_t inflight = inflight_.load(std::memory_order_acquire);
    if (seen && inflight <= 0 && quiescent_.load(std::memory_order_acquire)) {
      break;
    }
    if (seen && std::chrono::steady_clock::now() >= deadline) {
      left = static_cast<std::size_t>(std::max<std::int64_t>(0, inflight));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Phase 2: stop the loop; once it is joined nothing submits any more.
  stop_loop_.store(true, std::memory_order_release);
  wake();
  if (loop_.joinable()) loop_.join();

  // Phase 3: engine callbacks use `this`, the outbox and the wake pipe,
  // so none may be pending at teardown. The engine answers or fails
  // every request it accepted, so this wait ends.
  while (inflight_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Phase 4: tear down. Every staged response goes to its connection
  // once more; bytes a slow client has not read yet are dropped when
  // its connection closes.
  deliver_staged();
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (std::uint64_t id : ids) close_conn(id);
  listen_fd_.reset();
  wake_r_.reset();
  wake_w_.reset();
  if (left != 0) {
    SEQGE_LOG_WARN << "net: drain timeout expired with " << left
                   << " responses in flight";
  }
  return left;
}

void Server::wake() noexcept {
  if (!wake_w_.valid()) return;
  const char b = 1;
  // Non-blocking; a full pipe already guarantees a pending wake-up.
  (void)::write(wake_w_.get(), &b, 1);
}

void Server::stage(std::vector<Outgoing>&& responses) {
  {
    std::lock_guard lock(outbox_mu_);
    for (auto& r : responses) outbox_.push_back(std::move(r));
    quiescent_.store(false, std::memory_order_release);
  }
  wake();
}

ServerStats Server::snapshot_stats() const {
  ServerStats s;
  s.snapshot_version = engine_.store_version();
  s.queries_served = engine_.queries_served();
  s.engine_rebuilds = engine_.engine_rebuilds();
  s.queue_depth = engine_.queue_depth();
  s.queue_capacity = engine_.queue_capacity();
  s.open_connections = open_conns_.load(std::memory_order_relaxed);
  s.connections_total = conns_total_.load(std::memory_order_relaxed);
  s.requests_total = requests_.load(std::memory_order_relaxed);
  s.rejected_overload = rej_overload_.load(std::memory_order_relaxed);
  s.rejected_ratelimit = rej_ratelimit_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  return s;
}

void Server::send_now(Conn& conn, const std::vector<std::uint8_t>& bytes) {
  conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
  flush_out(conn);
}

bool Server::flush_out(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd.get(), conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      net_metrics().bytes_out->add(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer gone
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

void Server::close_conn(std::uint64_t conn_id) {
  if (conns_.erase(conn_id) > 0) {
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
    net_metrics().open_conns->sub();
  }
}

void Server::dispatch(Conn& conn, Request&& req,
                      std::chrono::steady_clock::time_point t0) {
  auto& m = net_metrics();
  std::vector<std::uint8_t> reply;

  // Admission, cheapest check first. Stats and ping bypass admission:
  // they are the probes an operator uses *while* the server sheds.
  if (req.type == MsgType::kPing) {
    encode_ping_response(reply, req.id);
    send_now(conn, reply);
    return;
  }
  if (req.type == MsgType::kStats) {
    encode_stats_response(reply, req.id, snapshot_stats());
    send_now(conn, reply);
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    encode_error_response(reply, req.type, req.id, Status::kShuttingDown);
    send_now(conn, reply);
    return;
  }
  if (!conn.bucket.take(t0)) {
    rej_ratelimit_.fetch_add(1, std::memory_order_relaxed);
    m.rej_ratelimit->add();
    encode_error_response(reply, req.type, req.id, Status::kRateLimited);
    send_now(conn, reply);
    return;
  }
  if (engine_.store_version() == 0) {
    encode_error_response(reply, req.type, req.id, Status::kNotReady);
    send_now(conn, reply);
    return;
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  m.requests->add();

  switch (req.type) {
    case MsgType::kTopK:
      // Deferred: coalesced with this sweep's other single top-ks into
      // one engine batch call (flush_coalesced).
      pending_topk_[req.k].push_back(
          Pending{conn.id, req.id, req.u, t0});
      if (pending_topk_[req.k].size() >= cfg_.coalesce_max) {
        flush_coalesced();
      }
      break;
    case MsgType::kScore:
      submit(req.type, {{conn.id, req.id, 0, t0}},
             serve::Query::score({{req.u, req.v}}, req.kind),
             [](std::vector<std::uint8_t>& out, std::uint64_t id,
                serve::Answer& a, std::size_t) {
               encode_score_response(out, id, a.version, a.scores.front());
             });
      break;
    case MsgType::kTopKBatch:
      submit(req.type, {{conn.id, req.id, 0, t0}},
             serve::Query::topk(std::move(req.nodes), req.k),
             [](std::vector<std::uint8_t>& out, std::uint64_t id,
                serve::Answer& a, std::size_t) {
               encode_topk_batch_response(out, id, a.version, a.neighbors);
             });
      break;
    case MsgType::kScoreBatch:
      submit(req.type, {{conn.id, req.id, 0, t0}},
             serve::Query::score(std::move(req.pairs), req.kind),
             [](std::vector<std::uint8_t>& out, std::uint64_t id,
                serve::Answer& a, std::size_t) {
               encode_score_batch_response(out, id, a.version, a.scores);
             });
      break;
    case MsgType::kStats:
    case MsgType::kPing:
      break;  // handled above
  }
}

bool Server::submit(MsgType type, std::vector<Pending> members,
                    serve::Query query, Encoder encode) {
  auto& m = net_metrics();
  const auto count = static_cast<std::int64_t>(members.size());
  inflight_.fetch_add(count, std::memory_order_acq_rel);
  m.inflight->add(count);
  // The callback owns a copy of the members: a shed still needs them.
  const bool accepted = engine_.submit(
      std::move(query),
      [this, type, encode, group = members](serve::Answer&& a) {
        std::vector<Outgoing> staged;
        staged.reserve(group.size());
        for (std::size_t i = 0; i < group.size(); ++i) {
          std::vector<std::uint8_t> out;
          if (a.error == nullptr) {
            encode(out, group[i].wire_id, a, i);
          } else {
            encode_error_response(out, type, group[i].wire_id,
                                  Status::kError);
          }
          observe_request(group[i].t0);
          staged.emplace_back(group[i].conn_id, std::move(out));
        }
        stage(std::move(staged));
        const auto n = static_cast<std::int64_t>(group.size());
        net_metrics().inflight->sub(n);
        // Last touch of `this`: stop() may tear down right after.
        inflight_.fetch_sub(n, std::memory_order_acq_rel);
      });
  if (accepted) return true;
  inflight_.fetch_sub(count, std::memory_order_acq_rel);
  m.inflight->sub(count);
  for (const Pending& p : members) {
    rej_overload_.fetch_add(1, std::memory_order_relaxed);
    m.rej_overload->add();
    auto it = conns_.find(p.conn_id);
    if (it == conns_.end()) continue;
    std::vector<std::uint8_t> err;
    encode_error_response(err, type, p.wire_id, Status::kOverloaded);
    send_now(*it->second, err);
  }
  return false;
}

void Server::flush_coalesced() {
  auto& m = net_metrics();
  for (auto& [k, members] : pending_topk_) {
    if (members.empty()) continue;
    std::vector<NodeId> nodes;
    nodes.reserve(members.size());
    for (const auto& p : members) nodes.push_back(p.node);
    const std::size_t count = members.size();
    const bool accepted = submit(
        MsgType::kTopK, std::move(members),
        serve::Query::topk(std::move(nodes), k),
        [](std::vector<std::uint8_t>& out, std::uint64_t id,
           serve::Answer& a, std::size_t i) {
          encode_topk_response(out, id, a.version, a.neighbors[i]);
        });
    if (accepted && count > 1) {
      m.coalesced_batches->add();
      m.coalesced_requests->add(count);
    }
  }
  pending_topk_.clear();
}

void Server::process_frames(Conn& conn) {
  auto& m = net_metrics();
  std::size_t off = 0;
  for (;;) {
    const std::span<const std::uint8_t> avail(conn.in.data() + off,
                                              conn.in.size() - off);
    bool too_large = false;
    const std::size_t fsize =
        frame_size(avail, cfg_.max_frame_bytes, &too_large);
    if (too_large) {
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      m.bad_frames->add();
      // Echo type/id if the header happens to be readable; the stream
      // is out of trust either way, so close after the error flushes.
      FrameHeader hdr;
      MsgType t = MsgType::kPing;
      std::uint64_t id = 0;
      if (avail.size() >= kLenBytes + kHeaderBytes &&
          decode_header(avail.subspan(kLenBytes), hdr)) {
        id = hdr.id;
        const std::uint8_t base = hdr.type & ~kResponseBit;
        if (base >= 1 && base <= 6) t = static_cast<MsgType>(base);
      }
      std::vector<std::uint8_t> err;
      encode_error_response(err, t, id, Status::kFrameTooLarge);
      send_now(conn, err);
      conn.close_after_flush = true;
      conn.in.clear();
      return;
    }
    if (fsize == 0) break;  // need more bytes

    const auto body = avail.subspan(kLenBytes, fsize - kLenBytes);
    const auto t0 = std::chrono::steady_clock::now();
    Request req;
    const Status st = decode_request(body, req);
    m.decode_us->observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (st != Status::kOk) {
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      m.bad_frames->add();
      // Frame boundaries are intact (the length field was honored), so
      // the connection survives a malformed or version-mismatched
      // request.
      FrameHeader hdr;
      MsgType t = MsgType::kPing;
      if (decode_header(body, hdr)) {
        const std::uint8_t base = hdr.type & ~kResponseBit;
        if (base >= 1 && base <= 6) t = static_cast<MsgType>(base);
      }
      std::vector<std::uint8_t> err;
      encode_error_response(err, t, req.id, st);
      send_now(conn, err);
    } else {
      dispatch(conn, std::move(req), t0);
    }
    off += fsize;
  }
  if (off > 0) conn.in.erase(conn.in.begin(),
                             conn.in.begin() + static_cast<std::ptrdiff_t>(off));
}

void Server::deliver_staged() {
  // Drain the pipe before the outbox: a response staged after the swap
  // writes the pipe again, so none can be stranded.
  char buf[256];
  while (::read(wake_r_.get(), buf, sizeof(buf)) > 0) {
  }
  std::vector<Outgoing> staged;
  {
    std::lock_guard lock(outbox_mu_);
    staged.swap(outbox_);
  }
  for (auto& [conn_id, bytes] : staged) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;  // connection gone: drop
    send_now(*it->second, bytes);
  }
}

void Server::run_loop() {
  auto& m = net_metrics();
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn;  // conn id per pollfd (0 = control)
  auto last_idle_sweep = std::chrono::steady_clock::now();

  while (!stop_loop_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfd_conn.clear();
    const bool draining = draining_.load(std::memory_order_acquire);
    const bool accepting = !draining && conns_.size() < cfg_.max_connections;
    if (accepting) {
      pfds.push_back({listen_fd_.get(), POLLIN, 0});
      pfd_conn.push_back(0);
    }
    pfds.push_back({wake_r_.get(), POLLIN, 0});
    pfd_conn.push_back(0);
    for (const auto& [id, conn] : conns_) {
      short ev = POLLIN;
      if (conn->out_off < conn->out.size()) ev |= POLLOUT;
      pfds.push_back({conn->fd.get(), ev, 0});
      pfd_conn.push_back(id);
    }

    (void)::poll(pfds.data(), pfds.size(), 20);

    deliver_staged();

    // Accept every pending connection (edge-triggered by loop).
    if (accepting && (pfds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int cfd = ::accept(listen_fd_.get(), nullptr, nullptr);
        if (cfd < 0) break;  // EAGAIN or transient error
        if (conns_.size() >= cfg_.max_connections) {
          ::close(cfd);
          continue;
        }
        Fd fd(cfd);
        set_nodelay(fd);
        try {
          set_nonblocking(fd);
        } catch (const std::system_error&) {
          continue;  // fd closed by Fd dtor
        }
        const std::uint64_t id = next_conn_id_++;
        conns_.emplace(id, std::make_unique<Conn>(
                               std::move(fd), id, cfg_.rate_limit_qps,
                               cfg_.rate_limit_burst));
        conns_total_.fetch_add(1, std::memory_order_relaxed);
        open_conns_.fetch_add(1, std::memory_order_relaxed);
        m.connections->add();
        m.open_conns->add();
      }
    }

    // Read + decode per connection, then flush this sweep's coalesced
    // top-k group in one engine call.
    std::vector<std::uint64_t> dead;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const std::uint64_t id = pfd_conn[i];
      if (id == 0) continue;
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      const short rev = pfds[i].revents;
      if ((rev & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (rev & POLLIN) == 0) {
        dead.push_back(id);
        continue;
      }
      if ((rev & POLLIN) != 0) {
        bool closed = false;
        std::uint8_t buf[kReadChunk];
        for (;;) {
          const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
          if (n > 0) {
            conn.in.insert(conn.in.end(), buf, buf + n);
            m.bytes_in->add(static_cast<std::uint64_t>(n));
            conn.last_active = std::chrono::steady_clock::now();
            if (static_cast<std::size_t>(n) < sizeof(buf)) break;
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          closed = true;  // EOF or fatal error
          break;
        }
        if (!conn.close_after_flush) process_frames(conn);
        if (closed) {
          dead.push_back(id);
          continue;
        }
      }
      if ((rev & POLLOUT) != 0 || conn.out_off < conn.out.size()) {
        if (!flush_out(conn)) {
          dead.push_back(id);
          continue;
        }
      }
      if (conn.close_after_flush && conn.out.empty()) dead.push_back(id);
    }
    flush_coalesced();
    for (std::uint64_t id : dead) close_conn(id);

    // Idle sweep, once a second.
    const auto now = std::chrono::steady_clock::now();
    if (cfg_.idle_timeout.count() > 0 &&
        now - last_idle_sweep > std::chrono::seconds(1)) {
      last_idle_sweep = now;
      std::vector<std::uint64_t> idle;
      for (const auto& [id, conn] : conns_) {
        if (now - conn->last_active > cfg_.idle_timeout &&
            conn->out.empty()) {
          idle.push_back(id);
        }
      }
      for (std::uint64_t id : idle) close_conn(id);
    }

    // Quiescence signal for the graceful drain: no staged responses
    // and every write buffer flushed. Stored under the outbox lock, so
    // a response staged after the check clears it again.
    bool quiet = true;
    for (const auto& [id, conn] : conns_) {
      if (!conn->out.empty()) {
        quiet = false;
        break;
      }
    }
    {
      std::lock_guard lock(outbox_mu_);
      quiescent_.store(quiet && outbox_.empty(), std::memory_order_release);
    }
    if (draining) drain_seen_.store(true, std::memory_order_release);
  }
}

}  // namespace seqge::net
