#include "serve/quantized_store.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace seqge::serve {

namespace {

// Symmetric scale for one row: max|x| / 127. An all-zero row gets
// scale 0 and all-zero codes.
float row_scale(std::span<const float> x) {
  float max_abs = 0.0f;
  for (float v : x) max_abs = std::max(max_abs, std::abs(v));
  return max_abs / 127.0f;
}

// Shared exponent e for one row in bfp mode: the smallest e with
// 2^e >= max|x| / 127, so codes stay inside [-127, 127]. All-zero
// rows get the sentinel (and all-zero codes).
std::int16_t row_exp(std::span<const float> x) {
  float max_abs = 0.0f;
  for (float v : x) max_abs = std::max(max_abs, std::abs(v));
  if (max_abs == 0.0f) return QuantizedRowStore::kZeroExp;
  int e = 0;
  const float m = std::frexp(max_abs / 127.0f, &e);  // s = m * 2^e
  if (m == 0.5f) --e;  // exact power of two: no round-up needed
  return static_cast<std::int16_t>(e);
}

// BFP mantissas: code = round(x / 2^e), exact exponent arithmetic via
// ldexp (immune to 2^|e| overflowing float for denormal-ish rows).
void quantize_bfp(std::span<const float> x, std::int16_t e,
                  std::int8_t* codes) {
  if (e == QuantizedRowStore::kZeroExp) {
    std::fill(codes, codes + x.size(), std::int8_t{0});
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double q = std::round(std::ldexp(static_cast<double>(x[i]), -e));
    codes[i] = static_cast<std::int8_t>(std::clamp(q, -127.0, 127.0));
  }
}

void quantize_int8(std::span<const float> x, float scale,
                   std::int8_t* codes) {
  if (scale == 0.0f) {
    std::fill(codes, codes + x.size(), std::int8_t{0});
    return;
  }
  const float inv = 1.0f / scale;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float q = std::round(x[i] * inv);
    codes[i] = static_cast<std::int8_t>(
        std::clamp(q, -127.0f, 127.0f));
  }
}

}  // namespace

QuantizedRowStore::QuantizedRowStore(const MatrixF& rows,
                                     const QuantConfig& cfg)
    : cfg_(cfg), rows_(rows.rows()), dims_(rows.cols()) {
  codes_.resize(rows_ * dims_);
  if (cfg_.bfp) {
    exps_.resize(rows_);
  } else {
    scales_.resize(rows_);
  }
  for (std::size_t r = 0; r < rows_; ++r) requantize_row(r, rows.row(r));
}

void QuantizedRowStore::requantize_row(std::size_t r,
                                       std::span<const float> row) {
  assert(r < rows_ && row.size() == dims_);
  std::int8_t* codes = codes_.data() + r * dims_;
  if (cfg_.bfp) {
    exps_[r] = row_exp(row);
    quantize_bfp(row, exps_[r], codes);
  } else {
    scales_[r] = row_scale(row);
    quantize_int8(row, scales_[r], codes);
  }
}

QuantizedRowStore::QuantizedQuery QuantizedRowStore::quantize_query(
    std::span<const float> q, const QuantConfig& cfg) {
  QuantizedQuery out;
  out.codes.resize(q.size());
  if (cfg.bfp) {
    out.exp = row_exp(q);
    quantize_bfp(q, out.exp, out.codes.data());
  } else {
    out.scale = row_scale(q);
    quantize_int8(q, out.scale, out.codes.data());
  }
  return out;
}

float QuantizedRowStore::score(std::size_t r,
                               const QuantizedQuery& q) const {
  assert(r < rows_ && q.codes.size() == dims_);
  const std::int32_t d =
      simd::dot_i8(codes_.data() + r * dims_, q.codes.data(), dims_);
  // A zero row on either side yields d == 0 (its codes are all zero),
  // so the sentinel exponents never reach ldexp with a nonzero mantissa.
  if (cfg_.bfp) {
    return static_cast<float>(
        std::ldexp(static_cast<double>(d), exps_[r] + q.exp));
  }
  return static_cast<float>(d) * scales_[r] * q.scale;
}

void QuantizedRowStore::dequantize_row(std::size_t r,
                                       std::span<float> out) const {
  assert(r < rows_ && out.size() == dims_);
  const std::int8_t* codes = codes_.data() + r * dims_;
  if (cfg_.bfp) {
    const std::int16_t e = exps_[r];
    for (std::size_t i = 0; i < dims_; ++i) {
      out[i] = e == kZeroExp
                   ? 0.0f
                   : static_cast<float>(
                         std::ldexp(static_cast<double>(codes[i]), e));
    }
    return;
  }
  for (std::size_t i = 0; i < dims_; ++i) {
    out[i] = static_cast<float>(codes[i]) * scales_[r];
  }
}

}  // namespace seqge::serve
