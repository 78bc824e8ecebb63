#pragma once
// Int8 scalar-quantized row store for serving-scale scans — the CPU
// analogue of the paper's narrow-datapath trade (the FPGA feeds its
// skip-gram pipeline Q8.24 fixed point; here the read path drops to
// int8 with per-row/per-block scales).
//
// Codes are symmetric: code = round(x / scale) clamped to [-127, 127],
// scale = max|x| / 127 over the row (or over each `block`-dim block,
// giving a block-floating-point layout; optionally rounded up to a
// power of two so the scale is a pure exponent à la BFP). A row of d
// floats becomes d bytes + one float scale per block — ~4x smaller, and
// the scan kernel is the integer-SIMD dot of linalg/simd.hpp, which is
// bit-exact across ISAs (the approximate scores are therefore fully
// deterministic everywhere, unlike float SIMD).
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

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace seqge::serve {

/// Scan arithmetic for the serving engines: full-precision float, int8
/// scalar quantization with float re-rank, or block floating point
/// (int8 mantissas + one int16 shared exponent per block — the closest
/// CPU analogue of the FPGA's shared-exponent narrow datapath).
enum class QuantMode { kNone, kInt8, kBfp };

struct QuantConfig {
  /// Dims per scale group. 0 = one scale per row; otherwise each run of
  /// `block` dims shares a scale (block floating point).
  std::size_t block = 0;
  /// Round scales up to the next power of two — the scale degenerates
  /// to a shared exponent (true BFP) but is still stored as a float.
  /// Costs ≤ 1 bit of precision.
  bool pow2_scales = false;
  /// Store int16 exponents instead of float scales: each block is
  /// code * 2^exp. Halves the per-block metadata vs pow2_scales and
  /// turns descaling into exponent adds (std::ldexp). Same ≤ 1 bit
  /// precision cost as pow2_scales; recall@10 ≥ 0.95 is gated in
  /// bench_serving. Implies pow2 scales; `pow2_scales` is ignored.
  bool bfp = false;
};

class QuantizedRowStore {
 public:
  /// A query quantized with the same block layout as the store rows.
  struct QuantizedQuery {
    std::vector<std::int8_t> codes;   ///< dims entries
    std::vector<float> scales;        ///< one per block (float modes)
    std::vector<std::int16_t> exps;   ///< one per block (bfp mode)
  };

  /// Exponent sentinel for an all-zero block in bfp mode (its codes
  /// are all zero too, so scans never multiply by it).
  static constexpr std::int16_t kZeroExp =
      std::numeric_limits<std::int16_t>::min();

  QuantizedRowStore() = default;

  /// Quantizes every row of `rows` (engines pass their L2-normalized
  /// matrix, so row values are in [-1, 1]).
  QuantizedRowStore(const MatrixF& rows, const QuantConfig& cfg);

  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }
  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t dims() const noexcept { return dims_; }
  [[nodiscard]] const QuantConfig& config() const noexcept { return cfg_; }
  /// Heap bytes held by codes + scales (the ~4x claim is testable).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return codes_.size() * sizeof(std::int8_t) +
           scales_.size() * sizeof(float) +
           exps_.size() * sizeof(std::int16_t);
  }

  /// Re-quantize one row in place (engine-construction-time refresh
  /// only — not safe concurrently with scans).
  void requantize_row(std::size_t r, std::span<const float> row);

  /// Quantize a query vector with layout `cfg` (must match the store's
  /// config for score()/scan() to be meaningful).
  [[nodiscard]] static QuantizedQuery quantize_query(
      std::span<const float> q, const QuantConfig& cfg);

  /// Approximate dot(row r, original query): per-block integer dot,
  /// scaled by row-block and query-block scales, summed in float.
  [[nodiscard]] float score(std::size_t r, const QuantizedQuery& q) const;

  /// Fused approximate scan over rows [begin, end): offer(row,
  /// approx_score) in row order (determinism contract of the engines'
  /// candidate generation). IVF engines use sub-ranges — a probed cell
  /// is one contiguous stripe of the code array.
  template <typename Offer>
  void scan_range(std::size_t begin, std::size_t end,
                  const QuantizedQuery& q, Offer&& offer) const {
    if (blocks_ == 1 && cfg_.bfp) {
      // BFP fast path: descale = one exponent add per row. An all-zero
      // row (sentinel exponent) necessarily scores acc == 0; ldexp of
      // zero is zero for any exponent, so no branch is needed.
      const int qe = q.exps[0];
      simd::dot_i8_topk_scan(
          codes_.data() + begin * dims_, end - begin, dims_,
          q.codes.data(), [&](std::size_t r, std::int32_t acc) {
            offer(begin + r,
                  static_cast<float>(
                      std::ldexp(static_cast<double>(acc),
                                 exps_[begin + r] + qe)));
          });
    } else if (blocks_ == 1) {
      const float qs = q.scales[0];
      simd::dot_i8_topk_scan(
          codes_.data() + begin * dims_, end - begin, dims_,
          q.codes.data(), [&](std::size_t r, std::int32_t acc) {
            offer(begin + r,
                  static_cast<float>(acc) * scales_[begin + r] * qs);
          });
    } else {
      for (std::size_t r = begin; r < end; ++r) offer(r, score(r, q));
    }
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
  QuantConfig cfg_{};
  std::size_t rows_ = 0;
  std::size_t dims_ = 0;
  std::size_t blocks_ = 0;      ///< scale groups per row
  std::size_t block_dims_ = 0;  ///< dims per group (== dims_ if 1 group)
  std::vector<std::int8_t> codes_;  ///< rows_ x dims_, row-major
  std::vector<float> scales_;       ///< rows_ x blocks_ (float modes)
  std::vector<std::int16_t> exps_;  ///< rows_ x blocks_ (bfp mode)
};

}  // namespace seqge::serve
