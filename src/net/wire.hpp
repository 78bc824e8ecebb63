#pragma once
// seqge-wire-v1 — the versioned length-prefixed binary protocol the
// network serving front-end (net/server.hpp) and client (net/client.hpp)
// speak. Spec: docs/SERVING.md. Designed for pipelining: every request
// carries a client-chosen 64-bit correlation id echoed verbatim in the
// response, and responses to one connection may arrive in any order
// (the engine's worker pool answers concurrently).
//
// Frame layout (all integers little-endian):
//
//   u32 body_len                      bytes after this field
//   body:
//     u8  version     = 1             protocol version
//     u8  type                        MsgType; responses set bit 0x80
//     u8  status                      Status; 0 in requests
//     u8  flags       = 0             reserved, must be 0 in v1
//     u64 id                          correlation id, echoed verbatim
//     ... payload                     type-specific, below
//
// Floats cross the wire as raw IEEE-754 bits (f32/f64 via bit_cast), so
// a served score is bit-identical to the in-process answer — the
// loopback equivalence test in tests/test_net.cpp asserts ==, not near.
//
// Request payloads:
//   kTopK        u32 node | u32 k
//   kScore       u32 u | u32 v | u8 kind (EdgeScore)
//   kTopKBatch   u32 k | u32 count | count x u32 node
//   kScoreBatch  u8 kind | u32 count | count x (u32 u | u32 v)
//   kStats       (empty)
//   kPing        (empty)
//
// Response payloads (only when status == kOk; error responses carry an
// empty payload):
//   kTopK        u64 snapshot_version | u32 count
//                | count x (u32 node | f32 score)
//   kScore       u64 snapshot_version | f64 score
//   kTopKBatch   u64 snapshot_version | u32 count
//                | count x (u32 m | m x (u32 node | f32 score))
//   kScoreBatch  u64 snapshot_version | u32 count | count x f64
//   kStats       ServerStats, 11 x u64 in declaration order
//   kPing        (empty)
//
// Decoding is strict: unknown type, non-zero flags, trailing payload
// bytes, or a count that cannot fit in the remaining bytes all reject
// the frame with kBadRequest (counts are validated against the byte
// budget *before* any allocation, so a hostile length cannot balloon
// memory). A version byte != 1 rejects with kVersionMismatch but — the
// frame boundary being intact — does not poison the connection.

#include <cstdint>
#include <span>
#include <vector>

#include "eval/link_prediction.hpp"
#include "graph/graph.hpp"
#include "serve/sharded_query.hpp"

namespace seqge::net {

inline constexpr std::uint8_t kWireVersion = 1;
/// Bytes of the u32 length prefix.
inline constexpr std::size_t kLenBytes = 4;
/// Fixed body header: version, type, status, flags, id.
inline constexpr std::size_t kHeaderBytes = 12;
/// Default cap on body_len; frames above it are rejected and the
/// connection closed (the stream can no longer be trusted to be
/// frame-aligned once a length is refused).
inline constexpr std::size_t kDefaultMaxFrame = 1u << 20;

enum class MsgType : std::uint8_t {
  kTopK = 1,
  kScore = 2,
  kTopKBatch = 3,
  kScoreBatch = 4,
  kStats = 5,
  kPing = 6,
};
inline constexpr std::uint8_t kResponseBit = 0x80;

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,            ///< engine raised; request was well-formed
  kOverloaded = 2,       ///< shed: engine queue full (back off + retry)
  kRateLimited = 3,      ///< shed: per-client token bucket empty
  kBadRequest = 4,       ///< malformed frame or payload
  kVersionMismatch = 5,  ///< unsupported protocol version byte
  kNotReady = 6,         ///< no snapshot published yet
  kShuttingDown = 7,     ///< server draining; connection closes soon
  kFrameTooLarge = 8,    ///< body_len over the server's max frame
};

[[nodiscard]] const char* status_name(Status s) noexcept;

/// Decoded body header (the 12 bytes after the length prefix).
struct FrameHeader {
  std::uint8_t version = kWireVersion;
  std::uint8_t type = 0;  ///< MsgType value; responses OR in kResponseBit
  Status status = Status::kOk;
  std::uint8_t flags = 0;
  std::uint64_t id = 0;
};

/// Server counters returned by a kStats request, fixed order on the
/// wire. Engine fields come from serve::EmbeddingServer, net fields
/// from the front-end itself.
struct ServerStats {
  std::uint64_t snapshot_version = 0;
  std::uint64_t queries_served = 0;
  std::uint64_t engine_rebuilds = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_capacity = 0;
  std::uint64_t open_connections = 0;
  std::uint64_t connections_total = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_ratelimit = 0;
  std::uint64_t bad_frames = 0;
};

/// One decoded request, whatever its type (unused fields are empty).
struct Request {
  MsgType type = MsgType::kPing;
  std::uint64_t id = 0;
  NodeId u = 0;
  NodeId v = 0;
  std::uint32_t k = 0;
  EdgeScore kind = EdgeScore::kCosine;
  std::vector<NodeId> nodes;                     ///< kTopKBatch
  std::vector<std::pair<NodeId, NodeId>> pairs;  ///< kScoreBatch
};

/// One decoded response, whatever its type (unused fields are empty).
struct Response {
  MsgType type = MsgType::kPing;
  Status status = Status::kOk;
  std::uint64_t id = 0;
  std::uint64_t version = 0;
  std::vector<serve::Neighbor> neighbors;            ///< kTopK
  std::vector<std::vector<serve::Neighbor>> batch;   ///< kTopKBatch
  double score = 0.0;                                ///< kScore
  std::vector<double> scores;                        ///< kScoreBatch
  ServerStats stats;                                 ///< kStats
};

// --- encoding (append one complete frame to `out`) -----------------------

void encode_topk_request(std::vector<std::uint8_t>& out, std::uint64_t id,
                         NodeId node, std::uint32_t k);
void encode_score_request(std::vector<std::uint8_t>& out, std::uint64_t id,
                          NodeId u, NodeId v, EdgeScore kind);
void encode_topk_batch_request(std::vector<std::uint8_t>& out,
                               std::uint64_t id,
                               std::span<const NodeId> nodes,
                               std::uint32_t k);
void encode_score_batch_request(
    std::vector<std::uint8_t>& out, std::uint64_t id,
    std::span<const std::pair<NodeId, NodeId>> pairs, EdgeScore kind);
void encode_stats_request(std::vector<std::uint8_t>& out, std::uint64_t id);
void encode_ping_request(std::vector<std::uint8_t>& out, std::uint64_t id);

void encode_topk_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                          std::uint64_t version,
                          std::span<const serve::Neighbor> neighbors);
void encode_score_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                           std::uint64_t version, double score);
void encode_topk_batch_response(
    std::vector<std::uint8_t>& out, std::uint64_t id, std::uint64_t version,
    std::span<const std::vector<serve::Neighbor>> results);
void encode_score_batch_response(std::vector<std::uint8_t>& out,
                                 std::uint64_t id, std::uint64_t version,
                                 std::span<const double> scores);
void encode_stats_response(std::vector<std::uint8_t>& out, std::uint64_t id,
                           const ServerStats& stats);
void encode_ping_response(std::vector<std::uint8_t>& out, std::uint64_t id);
/// Error/shed response: any type, empty payload, non-kOk status.
void encode_error_response(std::vector<std::uint8_t>& out, MsgType type,
                           std::uint64_t id, Status status);

// --- decoding ------------------------------------------------------------

/// Inspect a receive buffer for one complete frame. Returns the total
/// frame size (length prefix + body) when `buf` holds at least one
/// complete frame starting at offset 0; 0 when more bytes are needed.
/// Sets `*too_large` when the announced body exceeds `max_frame` (the
/// caller must reject and close — the stream is no longer trustworthy).
[[nodiscard]] std::size_t frame_size(std::span<const std::uint8_t> buf,
                                     std::size_t max_frame, bool* too_large);

/// Decode the fixed header from a complete frame body (the bytes after
/// the length prefix). Returns false when the body is shorter than
/// kHeaderBytes.
[[nodiscard]] bool decode_header(std::span<const std::uint8_t> body,
                                 FrameHeader& out);

/// Decode a complete request body. Returns kOk and fills `out`, or the
/// Status the server should answer with (kVersionMismatch /
/// kBadRequest). `out.id` is filled whenever the header was readable,
/// so error responses can echo it.
[[nodiscard]] Status decode_request(std::span<const std::uint8_t> body,
                                    Request& out);

/// Decode a complete response body (client side). Returns false on a
/// malformed body.
[[nodiscard]] bool decode_response(std::span<const std::uint8_t> body,
                                   Response& out);

}  // namespace seqge::net
