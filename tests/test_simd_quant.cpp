// SIMD dispatch layer tests.
//
// The float equivalence tests compare the dispatched kernels against
// the scalar reference (simd::scalar::) on whatever ISA this build
// selects: exhaustive over lengths that exercise every vector-width
// remainder, over unaligned starting offsets, and over NaN/denormal
// payloads. Vector accumulation reorders float sums, so float checks
// use tight relative tolerances — except where the contract is exact:
// dot_batch and dot_topk_scan must match per-row dot() calls
// bit-identically on the same ISA.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "linalg/simd.hpp"
#include "util/rng.hpp"

namespace seqge {
namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng, double lo = -1.0,
                              double hi = 1.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

// Lengths covering every remainder of the widest vector step (8 for
// AVX2 floats) plus zero and large-ish sizes.
const std::size_t kLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,  15,
                                16, 17, 23, 31, 32, 33, 63, 64, 100, 257};

TEST(SimdDispatch, ReportsAConsistentIsa) {
  const simd::Isa isa = simd::active_isa();
  EXPECT_EQ(isa, simd::active_isa());  // fixed for process lifetime
  const std::string name = simd::isa_name();
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "neon");
#ifdef SEQGE_DISABLE_SIMD
  EXPECT_EQ(isa, simd::Isa::kScalar);
#endif
}

TEST(SimdFloat, DotMatchesScalarAcrossLengthsAndOffsets) {
  Rng rng(1);
  for (std::size_t n : kLengths) {
    for (std::size_t off : {0u, 1u, 3u}) {
      const auto x = random_vec(n + off, rng);
      const auto y = random_vec(n + off, rng);
      const float got = simd::dot(x.data() + off, y.data() + off, n);
      const float ref = simd::scalar::dot(x.data() + off, y.data() + off, n);
      // Vector lanes reorder the sum; error stays within a few ulps of
      // the term magnitudes.
      EXPECT_NEAR(got, ref, 1e-4f * (static_cast<float>(n) + 1.0f))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdFloat, AxpyAndScaleMatchScalarExactly) {
  // axpy/scale are elementwise — no cross-lane reassociation — so the
  // only float difference FMA contraction could introduce is in
  // a * x[i] + y[i]. GCC contracts both paths identically for the
  // scalar tail; accept 1-ulp differences on the vector body.
  Rng rng(2);
  for (std::size_t n : kLengths) {
    const auto x = random_vec(n, rng);
    const float a = static_cast<float>(rng.uniform(-2.0, 2.0));

    auto y_got = random_vec(n, rng);
    auto y_ref = y_got;
    simd::axpy(a, x.data(), y_got.data(), n);
    simd::scalar::axpy(a, x.data(), y_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y_got[i], y_ref[i], 1e-6f) << "axpy n=" << n << " i=" << i;
    }

    auto s_got = x;
    auto s_ref = x;
    simd::scale(a, s_got.data(), n);
    simd::scalar::scale(a, s_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // A pure multiply rounds once on every path: bit-identical.
      EXPECT_EQ(s_got[i], s_ref[i]) << "scale n=" << n << " i=" << i;
    }
  }
}

TEST(SimdFloat, L2NormKeepsDoublePrecisionAccumulation) {
  Rng rng(3);
  for (std::size_t n : kLengths) {
    const auto x = random_vec(n, rng);
    const double got = simd::l2_norm(x.data(), n);
    const double ref = simd::scalar::l2_norm(x.data(), n);
    // Every ISA widens lanes to double before accumulating, so the only
    // difference is double-sum ordering: near-ulp agreement.
    EXPECT_NEAR(got, ref, 1e-12 * (ref + 1.0)) << "n=" << n;
  }
}

TEST(SimdFloat, DotBatchIsBitIdenticalToPerRowDot) {
  // The canonical per-row accumulation order contract: whatever
  // cross-row blocking dot_batch uses, each row's score must equal a
  // 1-row dot() call bit-for-bit. Cover every remainder of the 4-row
  // blocking and odd dims.
  Rng rng(4);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 130u}) {
    for (std::size_t dims : {1u, 7u, 8u, 17u, 96u}) {
      const auto rows = random_vec(n * dims, rng);
      const auto q = random_vec(dims, rng);
      std::vector<float> scores(n, 0.0f);
      simd::dot_batch(rows.data(), n, dims, q.data(), scores.data());
      for (std::size_t r = 0; r < n; ++r) {
        EXPECT_EQ(scores[r], simd::dot(rows.data() + r * dims, q.data(), dims))
            << "n=" << n << " dims=" << dims << " r=" << r;
      }
    }
  }
}

TEST(SimdFloat, DotTopkScanOffersEveryRowWithBatchScores) {
  Rng rng(5);
  const std::size_t n = 300;  // crosses the 128-row scan block twice
  const std::size_t dims = 17;
  const auto rows = random_vec(n * dims, rng);
  const auto q = random_vec(dims, rng);
  std::vector<float> expect(n, 0.0f);
  simd::dot_batch(rows.data(), n, dims, q.data(), expect.data());

  std::size_t offered = 0;
  simd::dot_topk_scan(rows.data(), n, dims, q.data(),
                      [&](std::size_t r, float s) {
                        EXPECT_EQ(r, offered);  // row order
                        EXPECT_EQ(s, expect[r]);
                        ++offered;
                      });
  EXPECT_EQ(offered, n);
}

// --- fused training kernels (PR 9) -----------------------------------------
//
// The contract for every kernel below: bit-identical to the per-row
// composition of the dispatched dot()/axpy() it replaced, on the same
// ISA. That composition IS the pre-fusion training code, so these
// tests are the proof that fusing changed zero trained bits.

const std::size_t kTrainDims[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                                  23, 31, 32, 33, 63, 64, 95, 96, 97};

TEST(SimdTrainKernels, MatvecTransposedMatchesAxpyCompositionExactly) {
  Rng rng(41);
  for (std::size_t off : {0u, 1u, 3u}) {
    for (std::size_t dims : kTrainDims) {
      for (std::size_t rows : {1u, 3u, 4u, 5u, 13u}) {
        const auto m = random_vec(rows * dims + off, rng);
        const auto v = random_vec(rows + off, rng);
        std::vector<float> got(dims + off, -1.0f), ref(dims + off, -1.0f);
        simd::matvec_t(m.data() + off, rows, dims, v.data() + off,
                       got.data() + off);
        for (std::size_t c = 0; c < dims; ++c) ref[off + c] = 0.0f;
        for (std::size_t r = 0; r < rows; ++r) {
          simd::axpy(v[off + r], m.data() + off + r * dims,
                     ref.data() + off, dims);
        }
        for (std::size_t c = 0; c < dims; ++c) {
          EXPECT_EQ(got[off + c], ref[off + c])
              << "rows=" << rows << " dims=" << dims << " off=" << off;
        }
      }
    }
  }
}

TEST(SimdTrainKernels, Rank1UpdateMatchesAxpyCompositionExactly) {
  Rng rng(42);
  for (std::size_t off : {0u, 1u, 3u}) {
    for (std::size_t dims : kTrainDims) {
      for (std::size_t rows : {1u, 3u, 4u, 5u, 13u}) {
        const auto base = random_vec(rows * dims + off, rng);
        const auto x = random_vec(rows + off, rng);
        const auto y = random_vec(dims + off, rng);
        const float a = static_cast<float>(rng.uniform(-2.0, 2.0));
        auto got = base;
        auto ref = base;
        simd::rank1_update(got.data() + off, rows, dims, a, x.data() + off,
                           y.data() + off);
        for (std::size_t r = 0; r < rows; ++r) {
          simd::axpy(a * x[off + r], y.data() + off,
                     ref.data() + off + r * dims, dims);
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i], ref[i])
              << "rows=" << rows << " dims=" << dims << " off=" << off;
        }
      }
    }
  }
}

TEST(SimdTrainKernels, DotBatchGatherMatchesPerRowDotExactly) {
  Rng rng(43);
  for (std::size_t dims : kTrainDims) {
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 11u}) {
      const auto pool = random_vec((n + 2) * (dims + 1) + 7, rng);
      const auto q = random_vec(dims + 1, rng);
      // Gather rows at non-uniform, unaligned strides.
      std::vector<const float*> rows(n);
      for (std::size_t i = 0; i < n; ++i) {
        rows[i] = pool.data() + i * (dims + 1) + (i % 3);
      }
      std::vector<float> scores(n, -1.0f);
      simd::dot_batch_gather(rows.data(), n, dims, q.data(), scores.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(scores[i], simd::dot(rows[i], q.data(), dims))
            << "n=" << n << " dims=" << dims << " i=" << i;
      }
    }
  }
}

TEST(SimdTrainKernels, AxpyGatherMatchesPerRowAxpyExactly) {
  Rng rng(44);
  for (std::size_t dims : kTrainDims) {
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 11u}) {
      const auto base = random_vec(n * (dims + 1) + 3, rng);
      const auto x = random_vec(dims + 1, rng);
      const auto coeffs = random_vec(n, rng);
      auto got = base;
      auto ref = base;
      std::vector<float*> rg(n), rr(n);
      for (std::size_t i = 0; i < n; ++i) {
        rg[i] = got.data() + i * (dims + 1) + (i % 2);
        rr[i] = ref.data() + i * (dims + 1) + (i % 2);
      }
      simd::axpy_gather(rg.data(), coeffs.data(), x.data(), n, dims);
      for (std::size_t i = 0; i < n; ++i) {
        simd::axpy(coeffs[i], x.data(), rr[i], dims);
      }
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], ref[i]) << "n=" << n << " dims=" << dims;
      }
    }
  }
}

TEST(SimdTrainKernels, SgnsApplyMatchesUnfusedCompositionExactly) {
  Rng rng(45);
  for (std::size_t dims : kTrainDims) {
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 11u}) {
      const auto base = random_vec(n * dims + 1, rng);
      const auto g = random_vec(n, rng);
      const auto h0 = random_vec(dims, rng);
      const float neg_lr = static_cast<float>(rng.uniform(-0.1, -0.001));
      auto rows_got = base;
      auto rows_ref = base;
      auto h_got = h0;
      auto h_ref = h0;
      std::vector<float*> rg(n), rr(n);
      for (std::size_t i = 0; i < n; ++i) {
        rg[i] = rows_got.data() + i * dims;
        rr[i] = rows_ref.data() + i * dims;
      }
      std::vector<float> hgrad(dims, 99.0f);  // scratch: contents ignored
      simd::sgns_apply(h_got.data(), hgrad.data(), rg.data(), g.data(),
                       neg_lr, n, dims);
      // The pre-fusion sequence: accumulate h_grad over samples, update
      // each sample row against the pre-update h, apply h_grad once.
      std::vector<float> hgrad_ref(dims, 0.0f);
      for (std::size_t i = 0; i < n; ++i) {
        simd::axpy(g[i], rr[i], hgrad_ref.data(), dims);
        simd::axpy(neg_lr * g[i], h_ref.data(), rr[i], dims);
      }
      simd::axpy(neg_lr, hgrad_ref.data(), h_ref.data(), dims);
      for (std::size_t i = 0; i < rows_got.size(); ++i) {
        EXPECT_EQ(rows_got[i], rows_ref[i]) << "n=" << n << " dims=" << dims;
      }
      for (std::size_t d = 0; d < dims; ++d) {
        EXPECT_EQ(h_got[d], h_ref[d]) << "n=" << n << " dims=" << dims;
      }
    }
  }
}

TEST(SimdTrainKernels, PropagateNanAndAgreeOnDenormals) {
  // NaN in the matrix must surface in matvec_t's output and in gathered
  // scores; denormal inputs must round identically to the composition.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (std::size_t dims : {1u, 8u, 9u, 33u}) {
    std::vector<float> m(3 * dims, 1.0f);
    std::vector<float> v(3, 2.0f);
    m[dims + dims / 2] = nan;  // middle of row 1
    std::vector<float> out(dims, 0.0f);
    simd::matvec_t(m.data(), 3, dims, v.data(), out.data());
    EXPECT_TRUE(std::isnan(out[dims / 2])) << "dims=" << dims;

    std::vector<float> dm(4 * dims, denorm);
    std::vector<float> q(dims, 2.0f);
    const float* rows[] = {dm.data(), dm.data() + dims, dm.data() + 2 * dims,
                           dm.data() + 3 * dims};
    std::vector<float> scores(4, -1.0f);
    simd::dot_batch_gather(rows, 4, dims, q.data(), scores.data());
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(scores[i], simd::dot(rows[i], q.data(), dims));
    }
  }
}

TEST(SimdFloat, PropagatesNanAndHandlesDenormals) {
  // NaN anywhere in the active range must surface in the dot result on
  // every ISA (vector min/max tricks can silently drop NaN; plain
  // FMA accumulation must not).
  for (std::size_t n : {1u, 8u, 9u, 33u}) {
    for (std::size_t pos : {std::size_t{0}, n - 1}) {
      std::vector<float> x(n, 1.0f);
      std::vector<float> y(n, 2.0f);
      x[pos] = std::numeric_limits<float>::quiet_NaN();
      EXPECT_TRUE(std::isnan(simd::dot(x.data(), y.data(), n)))
          << "n=" << n << " pos=" << pos;
    }
  }

  // Denormal inputs: products flush toward zero identically in scalar
  // and vector paths under the default FP environment.
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> x(16, denorm);
  std::vector<float> y(16, 2.0f);
  const float got = simd::dot(x.data(), y.data(), 16);
  const float ref = simd::scalar::dot(x.data(), y.data(), 16);
  EXPECT_EQ(got, ref);
}

}  // namespace
}  // namespace seqge
