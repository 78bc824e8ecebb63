// Unit tests for the dense matrix container and the BLAS-lite kernels
// the trainers are built on.

#include <gtest/gtest.h>

#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace seqge {
namespace {

TEST(Matrix, ShapeAndIndexing) {
  MatrixF m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  m(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(m(0, 0), 1.5f);
}

TEST(Matrix, RowSpanIsContiguousView) {
  MatrixF m(2, 3);
  auto r1 = m.row(1);
  r1[0] = 9.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 9.0f);
  EXPECT_EQ(r1.size(), 3u);
}

TEST(Matrix, SetIdentity) {
  MatrixF m(3, 3);
  m.set_identity(2.0f);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(m(i, j), i == j ? 2.0f : 0.0f);
    }
  }
  MatrixF rect(2, 3);
  EXPECT_THROW(rect.set_identity(1.0f), std::invalid_argument);
}

TEST(Matrix, FillUniformRange) {
  Rng rng(1);
  MatrixF m(50, 50);
  m.fill_uniform(rng, -0.25, 0.25);
  float lo = 1.0f, hi = -1.0f;
  for (float v : m.flat()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(lo, -0.25f);
  EXPECT_LT(hi, 0.25f);
  EXPECT_LT(lo, -0.2f);  // range is actually exercised
  EXPECT_GT(hi, 0.2f);
}

TEST(Kernels, DotAxpyScale) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {4, 5, 6};
  EXPECT_FLOAT_EQ(dot<float>(x, y), 32.0f);

  axpy<float>(2.0f, x, y);  // y = {6, 9, 12}
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[2], 12.0f);

  scale<float>(0.5f, y);
  EXPECT_FLOAT_EQ(y[1], 4.5f);
}

TEST(Kernels, MatvecAgainstHandComputed) {
  MatrixF m(2, 3);
  // [1 2 3; 4 5 6]
  float vals[] = {1, 2, 3, 4, 5, 6};
  std::copy(std::begin(vals), std::end(vals), m.flat().begin());
  std::vector<float> v = {1, 0, -1};
  std::vector<float> out(2);
  matvec(m, std::span<const float>(v), std::span<float>(out));
  EXPECT_FLOAT_EQ(out[0], -2.0f);
  EXPECT_FLOAT_EQ(out[1], -2.0f);
}

TEST(Kernels, MatvecTransposedAgainstHandComputed) {
  MatrixF m(2, 3);
  float vals[] = {1, 2, 3, 4, 5, 6};
  std::copy(std::begin(vals), std::end(vals), m.flat().begin());
  std::vector<float> v = {1, -1};
  std::vector<float> out(3);
  matvec_transposed(m, std::span<const float>(v), std::span<float>(out));
  EXPECT_FLOAT_EQ(out[0], -3.0f);
  EXPECT_FLOAT_EQ(out[1], -3.0f);
  EXPECT_FLOAT_EQ(out[2], -3.0f);
}

TEST(Kernels, MatvecTransposedConsistentWithMatvecOfTranspose) {
  Rng rng(3);
  MatrixF m(7, 5);
  m.fill_uniform(rng, -1.0, 1.0);
  MatrixF mt(5, 7);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 5; ++c) mt(c, r) = m(r, c);
  }
  std::vector<float> v(7);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> a(5), b(5);
  matvec_transposed(m, std::span<const float>(v), std::span<float>(a));
  matvec(mt, std::span<const float>(v), std::span<float>(b));
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(a[i], b[i], 1e-5);
}

TEST(Kernels, Rank1Update) {
  MatrixF m(2, 2);
  std::vector<float> x = {1, 2};
  std::vector<float> y = {3, 4};
  rank1_update<float>(m, 2.0f, x, y);
  EXPECT_FLOAT_EQ(m(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 12.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 16.0f);
}

TEST(Kernels, FloatSpecializationsMatchPerRowSimdCallsExactly) {
  // The float matvec/matvec_transposed/rank1_update specializations
  // route through the fused SIMD kernels; their contract is bit
  // identity with the per-row dot()/axpy() composition they replaced.
  // Odd shape exercises every tail.
  Rng rng(7);
  MatrixF m(13, 37);
  m.fill_uniform(rng, -1.0, 1.0);
  std::vector<float> v13(13), v37(37);
  for (auto& x : v13) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : v37) x = static_cast<float>(rng.uniform(-1, 1));

  std::vector<float> out(13);
  matvec(m, std::span<const float>(v37), std::span<float>(out));
  for (std::size_t r = 0; r < 13; ++r) {
    EXPECT_EQ(out[r], simd::dot(m.row(r).data(), v37.data(), 37)) << r;
  }

  std::vector<float> out_t(37);
  matvec_transposed(m, std::span<const float>(v13), std::span<float>(out_t));
  std::vector<float> ref_t(37, 0.0f);
  for (std::size_t r = 0; r < 13; ++r) {
    simd::axpy(v13[r], m.row(r).data(), ref_t.data(), 37);
  }
  for (std::size_t c = 0; c < 37; ++c) EXPECT_EQ(out_t[c], ref_t[c]) << c;

  MatrixF got = m;
  MatrixF ref = m;
  rank1_update<float>(got, 0.75f, v13, v37);
  for (std::size_t r = 0; r < 13; ++r) {
    simd::axpy(0.75f * v13[r], v37.data(), ref.row(r).data(), 37);
  }
  for (std::size_t i = 0; i < got.flat().size(); ++i) {
    EXPECT_EQ(got.flat()[i], ref.flat()[i]) << i;
  }
}

TEST(Kernels, FloatMatvecAtVocabularyScaleMatchesPerRowDot) {
  // A vocabulary-sized matrix goes through dot_batch's row blocking;
  // each row is still one canonical dot().
  Rng rng(8);
  MatrixF m(2100, 9);
  m.fill_uniform(rng, -1.0, 1.0);
  std::vector<float> v(9);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> out(2100);
  matvec(m, std::span<const float>(v), std::span<float>(out));
  for (std::size_t r = 0; r < 2100; ++r) {
    EXPECT_EQ(out[r], simd::dot(m.row(r).data(), v.data(), 9)) << r;
  }
}

TEST(Kernels, Norms) {
  std::vector<float> x = {3, 4};
  EXPECT_DOUBLE_EQ(l2_norm<float>(x), 5.0);
  MatrixF m(1, 2);
  m(0, 0) = 3;
  m(0, 1) = 4;
  EXPECT_DOUBLE_EQ(frobenius_norm(m), 5.0);
}

TEST(Kernels, SigmoidProperties) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
  // Symmetry: s(-x) = 1 - s(x).
  for (double x : {0.1, 1.0, 5.0, 30.0}) {
    EXPECT_NEAR(sigmoid(-x), 1.0 - sigmoid(x), 1e-12);
  }
  // No overflow at extremes.
  EXPECT_TRUE(std::isfinite(sigmoid(1e6)));
  EXPECT_TRUE(std::isfinite(sigmoid(-1e6)));
}

TEST(Kernels, CosineSimilarity) {
  std::vector<float> x = {1, 0};
  std::vector<float> y = {0, 1};
  std::vector<float> z = {2, 0};
  std::vector<float> zero = {0, 0};
  EXPECT_NEAR(cosine_similarity<float>(x, y), 0.0, 1e-7);
  EXPECT_NEAR(cosine_similarity<float>(x, z), 1.0, 1e-7);
  EXPECT_DOUBLE_EQ(cosine_similarity<float>(x, zero), 0.0);
}

TEST(Kernels, MaxAbsDiff) {
  MatrixF a(2, 2, 1.0f), b(2, 2, 1.0f);
  b(1, 1) = 3.5f;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 2.5);
}

}  // namespace
}  // namespace seqge
