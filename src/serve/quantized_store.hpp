#pragma once
// Int8 scalar-quantized row store for serving-scale scans — the CPU
// analogue of the paper's narrow-datapath trade (the FPGA feeds its
// skip-gram pipeline Q8.24 fixed point; here the read path drops to
// int8 with one scale per row).
//
// Codes are symmetric: code = round(x / scale) clamped to [-127, 127],
// scale = max|x| / 127 over the row. A row of d floats becomes d bytes
// + one float scale — ~4x smaller, and the scan kernel is the
// integer-SIMD dot of linalg/simd.hpp, which is bit-exact across ISAs
// (the approximate scores are therefore fully deterministic everywhere,
// unlike float SIMD).
//
// The store scores *approximately*: engines use it as a candidate
// generator and re-rank a small float candidate set (k × rerank) to
// hold recall@10 ≥ 0.95 vs. the exact float scan — see
// IndexConfig::quant in serve/sharded_query.hpp.
//
// Immutable after construction on the query path; requantize_row
// exists only for engine-construction-time refresh (the sharded
// engine's incremental rebuild re-quantizes just the changed rows
// before the new engine is published).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace seqge::serve {

/// Scan arithmetic for the serving engines: full-precision float, or
/// int8 scalar quantization with float re-rank.
enum class QuantMode { kNone, kInt8 };

class QuantizedRowStore {
 public:
  /// A query quantized the same way as the store rows.
  struct QuantizedQuery {
    std::vector<std::int8_t> codes;  ///< dims entries
    float scale = 0.0f;
  };

  QuantizedRowStore() = default;

  /// Quantizes every row of `rows` (engines pass their L2-normalized
  /// matrix, so row values are in [-1, 1]).
  explicit QuantizedRowStore(const MatrixF& rows);

  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }
  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t dims() const noexcept { return dims_; }
  /// Heap bytes held by codes + scales (the ~4x claim is testable).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return codes_.size() * sizeof(std::int8_t) +
           scales_.size() * sizeof(float);
  }

  /// Re-quantize one row in place (engine-construction-time refresh
  /// only — not safe concurrently with scans).
  void requantize_row(std::size_t r, std::span<const float> row);

  /// Quantize a query vector the same way as the store rows.
  [[nodiscard]] static QuantizedQuery quantize_query(
      std::span<const float> q);

  /// Approximate dot(row r, original query): the integer dot, scaled by
  /// the row and query scales.
  [[nodiscard]] float score(std::size_t r, const QuantizedQuery& q) const;

  /// Fused approximate scan over rows [begin, end): offer(row,
  /// approx_score) in row order (determinism contract of the engines'
  /// candidate generation). IVF engines use sub-ranges — a probed cell
  /// is one contiguous stripe of the code array.
  template <typename Offer>
  void scan_range(std::size_t begin, std::size_t end,
                  const QuantizedQuery& q, Offer&& offer) const {
    const float qs = q.scale;
    simd::dot_i8_topk_scan(
        codes_.data() + begin * dims_, end - begin, dims_, q.codes.data(),
        [&](std::size_t r, std::int32_t acc) {
          offer(begin + r, static_cast<float>(acc) * scales_[begin + r] * qs);
        });
  }

  /// Full-store scan.
  template <typename Offer>
  void scan(const QuantizedQuery& q, Offer&& offer) const {
    scan_range(0, rows_, q, offer);
  }

  /// Reconstruct row r (code * scale per element). Round-trip error is
  /// bounded by scale/2 per element — tests/test_simd_quant.cpp gates
  /// it.
  void dequantize_row(std::size_t r, std::span<float> out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  std::vector<std::int8_t> codes_;  ///< rows_ x dims_, row-major
  std::vector<float> scales_;       ///< one per row
};

}  // namespace seqge::serve
