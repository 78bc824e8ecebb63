#pragma once
// Dense row-major matrix with a contiguous buffer. This is deliberately a
// thin owning container plus free-function kernels (linalg/kernels.hpp)
// rather than an expression-template library: the OS-ELM update touches
// only N x N and n x N shapes with N <= 128, so clarity and predictable
// memory layout beat genericity.

#include <cassert>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace seqge {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const T& operator()(std::size_t r,
                                    std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Contiguous view of one row.
  [[nodiscard]] std::span<T> row(std::size_t r) noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const noexcept {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<T> flat() noexcept { return {data_}; }
  [[nodiscard]] std::span<const T> flat() const noexcept { return {data_}; }
  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Change the shape, keeping the buffer's capacity: a scratch matrix
  /// reshaped to at most its largest shape so far allocates nothing.
  /// Element values are unspecified afterwards.
  void reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Set to a scaled identity (requires square shape).
  void set_identity(T diag) {
    if (rows_ != cols_) throw std::invalid_argument("set_identity: not square");
    fill(T{});
    for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) = diag;
  }

  /// Fill with uniform random values in [lo, hi) — the classic skip-gram
  /// init is U(-0.5/dim, 0.5/dim).
  void fill_uniform(Rng& rng, double lo, double hi) {
    for (auto& v : data_) v = static_cast<T>(rng.uniform(lo, hi));
  }

  /// Fill with N(0, sigma^2) — used for the fixed random alpha of
  /// classic OS-ELM (Fig. 7 "alpha" baseline).
  void fill_gaussian(Rng& rng, double sigma) {
    for (auto& v : data_) v = static_cast<T>(rng.gaussian() * sigma);
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixF = Matrix<float>;
using MatrixD = Matrix<double>;

}  // namespace seqge
