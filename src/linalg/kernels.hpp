#pragma once
// Free-function dense kernels over std::span. These are the complete set
// of primitives used by the skip-gram/OS-ELM trainers; each is written as
// a simple auto-vectorizable loop, run on the calling thread.
//
// The float instantiations of dot/axpy/scale/l2_norm and of the matrix
// kernels matvec/matvec_transposed/rank1_update are specialized to the
// ISA-dispatched kernels in linalg/simd.hpp (AVX2/NEON at runtime,
// exact scalar reference under SEQGE_DISABLE_SIMD); every other type
// keeps the plain loops below.

#include <cmath>
#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace seqge {

/// dot(x, y) = sum_i x_i * y_i
template <typename T>
[[nodiscard]] T dot(std::span<const T> x, std::span<const T> y) noexcept {
  assert(x.size() == y.size());
  T acc{};
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

/// y += a * x
template <typename T>
void axpy(T a, std::span<const T> x, std::span<T> y) noexcept {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

/// x *= a
template <typename T>
void scale(T a, std::span<T> x) noexcept {
  for (auto& v : x) v *= a;
}

template <>
[[nodiscard]] inline float dot<float>(std::span<const float> x,
                                      std::span<const float> y) noexcept {
  assert(x.size() == y.size());
  return simd::dot(x.data(), y.data(), x.size());
}

template <>
inline void axpy<float>(float a, std::span<const float> x,
                        std::span<float> y) noexcept {
  assert(x.size() == y.size());
  simd::axpy(a, x.data(), y.data(), x.size());
}

template <>
inline void scale<float>(float a, std::span<float> x) noexcept {
  simd::scale(a, x.data(), x.size());
}

/// y = x
template <typename T>
void copy(std::span<const T> x, std::span<T> y) noexcept {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i];
}

/// out = M * v  (M is rows x cols, v has cols entries, out has rows).
template <typename T>
void matvec(const Matrix<T>& m, std::span<const T> v,
            std::span<T> out) noexcept {
  assert(v.size() == m.cols() && out.size() == m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) out[r] = dot(m.row(r), v);
}

/// out = M^T * v  (v has rows entries, out has cols).
template <typename T>
void matvec_transposed(const Matrix<T>& m, std::span<const T> v,
                       std::span<T> out) noexcept {
  assert(v.size() == m.rows() && out.size() == m.cols());
  for (auto& o : out) o = T{};
  for (std::size_t r = 0; r < m.rows(); ++r) {
    axpy(v[r], m.row(r), out);
  }
}

/// M += a * x * y^T  (rank-1 update; x has rows entries, y has cols).
template <typename T>
void rank1_update(Matrix<T>& m, T a, std::span<const T> x,
                  std::span<const T> y) noexcept {
  assert(x.size() == m.rows() && y.size() == m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    axpy(a * x[r], y, m.row(r));
  }
}

// Float specializations of the matrix kernels route to the fused
// ISA-dispatched implementations (one dispatch per call instead of one
// per row; bit-identical to the per-row composition on every ISA).

template <>
inline void matvec<float>(const Matrix<float>& m, std::span<const float> v,
                          std::span<float> out) noexcept {
  assert(v.size() == m.cols() && out.size() == m.rows());
  simd::dot_batch(m.data(), m.rows(), m.cols(), v.data(), out.data());
}

template <>
inline void matvec_transposed<float>(const Matrix<float>& m,
                                     std::span<const float> v,
                                     std::span<float> out) noexcept {
  assert(v.size() == m.rows() && out.size() == m.cols());
  simd::matvec_t(m.data(), m.rows(), m.cols(), v.data(), out.data());
}

template <>
inline void rank1_update<float>(Matrix<float>& m, float a,
                                std::span<const float> x,
                                std::span<const float> y) noexcept {
  assert(x.size() == m.rows() && y.size() == m.cols());
  simd::rank1_update(m.data(), m.rows(), m.cols(), a, x.data(), y.data());
}

/// ||x||_2
template <typename T>
[[nodiscard]] double l2_norm(std::span<const T> x) noexcept {
  double acc = 0.0;
  for (auto v : x) acc += static_cast<double>(v) * static_cast<double>(v);
  return std::sqrt(acc);
}

template <>
[[nodiscard]] inline double l2_norm<float>(
    std::span<const float> x) noexcept {
  return simd::l2_norm(x.data(), x.size());
}

/// Frobenius norm of a matrix.
template <typename T>
[[nodiscard]] double frobenius_norm(const Matrix<T>& m) noexcept {
  return l2_norm(m.flat());
}

/// Numerically-stable logistic sigmoid.
[[nodiscard]] inline double sigmoid(double x) noexcept {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

/// Max absolute element-wise difference between two equal-shape matrices.
template <typename T>
[[nodiscard]] double max_abs_diff(const Matrix<T>& a,
                                  const Matrix<T>& b) noexcept {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  auto fa = a.flat();
  auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(fa[i]) -
                             static_cast<double>(fb[i])));
  }
  return m;
}

/// Cosine similarity between two vectors (0 if either is all-zero).
template <typename T>
[[nodiscard]] double cosine_similarity(std::span<const T> x,
                                       std::span<const T> y) noexcept {
  const double nx = l2_norm(x);
  const double ny = l2_norm(y);
  if (nx == 0.0 || ny == 0.0) return 0.0;
  return static_cast<double>(dot(x, y)) / (nx * ny);
}

}  // namespace seqge
