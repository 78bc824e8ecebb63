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

QuantizedRowStore::QuantizedRowStore(const MatrixF& rows)
    : rows_(rows.rows()), dims_(rows.cols()) {
  codes_.resize(rows_ * dims_);
  scales_.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) requantize_row(r, rows.row(r));
}

void QuantizedRowStore::requantize_row(std::size_t r,
                                       std::span<const float> row) {
  assert(r < rows_ && row.size() == dims_);
  std::int8_t* codes = codes_.data() + r * dims_;
  scales_[r] = row_scale(row);
  quantize_int8(row, scales_[r], codes);
}

QuantizedRowStore::QuantizedQuery QuantizedRowStore::quantize_query(
    std::span<const float> q) {
  QuantizedQuery out;
  out.codes.resize(q.size());
  out.scale = row_scale(q);
  quantize_int8(q, out.scale, out.codes.data());
  return out;
}

float QuantizedRowStore::score(std::size_t r,
                               const QuantizedQuery& q) const {
  assert(r < rows_ && q.codes.size() == dims_);
  const std::int32_t d =
      simd::dot_i8(codes_.data() + r * dims_, q.codes.data(), dims_);
  return static_cast<float>(d) * scales_[r] * q.scale;
}

void QuantizedRowStore::dequantize_row(std::size_t r,
                                       std::span<float> out) const {
  assert(r < rows_ && out.size() == dims_);
  const std::int8_t* codes = codes_.data() + r * dims_;
  for (std::size_t i = 0; i < dims_; ++i) {
    out[i] = static_cast<float>(codes[i]) * scales_[r];
  }
}

}  // namespace seqge::serve
