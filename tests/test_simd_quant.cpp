// SIMD dispatch layer + int8 quantized store tests.
//
// The float equivalence tests compare the dispatched kernels against
// the scalar reference (simd::scalar::) on whatever ISA this build
// selects: exhaustive over lengths that exercise every vector-width
// remainder, over unaligned starting offsets, and over NaN/denormal
// payloads. Vector accumulation reorders float sums, so float checks
// use tight relative tolerances — except where the contract is exact:
// dot_batch and dot_topk_scan must match per-row dot() calls
// bit-identically on the same ISA, and the int8 kernels are integer
// arithmetic, bit-exact across every implementation.
//
// The quantized-store tests pin the quantization contract: round-trip
// error bounded by scale/2 per element, ~4x size, deterministic scans,
// and recall@10 >= 0.95 for the int8 and BFP engine paths vs. the
// float engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "linalg/simd.hpp"
#include "serve/quantized_store.hpp"
#include "serve/sharded_query.hpp"
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
// AVX2 floats, 16 for int8) plus zero and large-ish sizes.
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

TEST(SimdInt8, DotIsBitExactAgainstScalarEverywhere) {
  Rng rng(6);
  for (std::size_t n : kLengths) {
    for (std::size_t off : {0u, 1u, 5u}) {
      std::vector<std::int8_t> x(n + off);
      std::vector<std::int8_t> y(n + off);
      for (auto& v : x) {
        v = static_cast<std::int8_t>(
            static_cast<int>(rng.bounded(255)) - 127);
      }
      for (auto& v : y) {
        v = static_cast<std::int8_t>(
            static_cast<int>(rng.bounded(255)) - 127);
      }
      EXPECT_EQ(simd::dot_i8(x.data() + off, y.data() + off, n),
                simd::scalar::dot_i8(x.data() + off, y.data() + off, n))
          << "n=" << n << " off=" << off;
    }
  }

  // Saturation-adjacent extremes: +-127 everywhere, odd length.
  std::vector<std::int8_t> lo(33, -127);
  std::vector<std::int8_t> hi(33, 127);
  EXPECT_EQ(simd::dot_i8(lo.data(), hi.data(), 33), -127 * 127 * 33);
}

TEST(SimdInt8, BatchMatchesPerRowDot) {
  Rng rng(7);
  const std::size_t n = 37;
  const std::size_t dims = 19;
  std::vector<std::int8_t> rows(n * dims);
  std::vector<std::int8_t> q(dims);
  for (auto& v : rows) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.bounded(255)) - 127);
  }
  for (auto& v : q) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.bounded(255)) - 127);
  }
  std::vector<std::int32_t> out(n, 0);
  simd::dot_i8_batch(rows.data(), n, dims, q.data(), out.data());
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_EQ(out[r], simd::dot_i8(rows.data() + r * dims, q.data(), dims));
  }
}

// --- quantized store --------------------------------------------------------

using serve::QuantConfig;
using serve::QuantizedRowStore;

MatrixF random_rows(std::size_t n, std::size_t dims, std::uint64_t seed) {
  MatrixF m(n, dims);
  Rng rng(seed);
  m.fill_uniform(rng, -1.0, 1.0);
  return m;
}

TEST(QuantizedRowStore, RoundTripErrorIsBoundedByHalfScale) {
  for (const QuantConfig cfg :
       {QuantConfig{0, false}, QuantConfig{16, false}, QuantConfig{0, true},
        QuantConfig{16, true}}) {
    const MatrixF rows = random_rows(50, 48, 11);
    const QuantizedRowStore store(rows, cfg);
    std::vector<float> back(48);
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      store.dequantize_row(r, back);
      float max_abs = 0.0f;
      for (float v : rows.row(r)) max_abs = std::max(max_abs, std::abs(v));
      // Per-row scale bound; per-block scales are only tighter. pow2
      // rounding at most doubles the scale.
      float bound = max_abs / 127.0f / 2.0f;
      if (cfg.pow2_scales) bound *= 2.0f;
      bound += 1e-7f;
      for (std::size_t i = 0; i < rows.cols(); ++i) {
        EXPECT_LE(std::abs(back[i] - rows.row(r)[i]), bound)
            << "block=" << cfg.block << " pow2=" << cfg.pow2_scales
            << " r=" << r << " i=" << i;
      }
    }
  }
}

TEST(QuantizedRowStore, AllZeroRowsQuantizeToZero) {
  MatrixF rows(4, 8);
  rows.fill(0.0f);
  const QuantizedRowStore store(rows, {});
  std::vector<float> back(8, 1.0f);
  store.dequantize_row(2, back);
  for (float v : back) EXPECT_EQ(v, 0.0f);

  const auto qq = QuantizedRowStore::quantize_query(
      std::vector<float>(8, 0.5f), {});
  EXPECT_EQ(store.score(2, qq), 0.0f);
}

TEST(QuantizedRowStore, IsRoughlyFourTimesSmallerThanFloat) {
  const std::size_t n = 200;
  const std::size_t dims = 64;
  const QuantizedRowStore store(random_rows(n, dims, 13), {});
  const std::size_t float_bytes = n * dims * sizeof(float);
  EXPECT_LT(store.bytes(), float_bytes / 3);  // codes + 1 scale per row
}

TEST(QuantizedRowStore, ScanMatchesPerRowScoresExactly) {
  // The fused scan and score() must agree bit-for-bit: both route the
  // integer dot through the same dispatched kernel and apply the same
  // float scaling. Check per-row and per-block layouts.
  for (const std::size_t block : {std::size_t{0}, std::size_t{16}}) {
    const MatrixF rows = random_rows(300, 48, 17);
    const QuantConfig cfg{block, false};
    const QuantizedRowStore store(rows, cfg);
    Rng rng(19);
    std::vector<float> q(48);
    for (auto& v : q) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const auto qq = QuantizedRowStore::quantize_query(q, cfg);

    std::size_t offered = 0;
    store.scan(qq, [&](std::size_t r, float s) {
      EXPECT_EQ(r, offered);
      EXPECT_EQ(s, store.score(r, qq));
      ++offered;
    });
    EXPECT_EQ(offered, store.num_rows());
  }
}

TEST(QuantizedRowStore, ApproximateScoresTrackFloatDots) {
  // Unit rows vs unit query: the int8 approximation must stay within ~2%
  // absolute of the float dot (the margin the re-rank stage absorbs).
  MatrixF rows = random_rows(100, 32, 23);
  serve::l2_normalize_rows(rows);
  const QuantizedRowStore store(rows, {});
  Rng rng(29);
  std::vector<float> q(32);
  for (auto& v : q) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  serve::l2_normalize(q);
  const auto qq = QuantizedRowStore::quantize_query(q, {});
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    const float exact = simd::dot(rows.row(r).data(), q.data(), 32);
    EXPECT_NEAR(store.score(r, qq), exact, 0.02f) << "r=" << r;
  }
}

// --- block floating point ---------------------------------------------------

TEST(QuantizedRowStoreBfp, RoundTripErrorBoundedByHalfStep) {
  // BFP scale is 2^ceil(log2(max|x|/127)) — at most 2x the exact
  // symmetric scale, so the per-element error bound is one exact step.
  for (const QuantConfig cfg :
       {QuantConfig{0, false, true}, QuantConfig{16, false, true}}) {
    const MatrixF rows = random_rows(50, 48, 11);
    const QuantizedRowStore store(rows, cfg);
    std::vector<float> back(48);
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      store.dequantize_row(r, back);
      float max_abs = 0.0f;
      for (float v : rows.row(r)) max_abs = std::max(max_abs, std::abs(v));
      const float bound = max_abs / 127.0f + 1e-7f;
      for (std::size_t i = 0; i < rows.cols(); ++i) {
        EXPECT_LE(std::abs(back[i] - rows.row(r)[i]), bound)
            << "block=" << cfg.block << " r=" << r << " i=" << i;
      }
    }
  }
}

TEST(QuantizedRowStoreBfp, MatchesPow2ScaleQuantizationExactly) {
  // bfp stores the same power-of-two scale as pow2_scales, just as an
  // int16 exponent: identical codes, identical dequantized values,
  // smaller metadata.
  const MatrixF rows = random_rows(80, 33, 19);
  const QuantizedRowStore pow2(rows, {0, true, false});
  const QuantizedRowStore bfp(rows, {0, false, true});
  EXPECT_LT(bfp.bytes(), pow2.bytes());
  std::vector<float> a(33), b(33);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    pow2.dequantize_row(r, a);
    bfp.dequantize_row(r, b);
    for (std::size_t i = 0; i < 33; ++i) {
      EXPECT_EQ(a[i], b[i]) << "r=" << r << " i=" << i;
    }
  }
}

TEST(QuantizedRowStoreBfp, ScanMatchesPerRowScoresExactly) {
  for (const std::size_t block : {std::size_t{0}, std::size_t{16}}) {
    const MatrixF rows = random_rows(300, 48, 17);
    const QuantConfig cfg{block, false, true};
    const QuantizedRowStore store(rows, cfg);
    Rng rng(19);
    std::vector<float> q(48);
    for (auto& v : q) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const auto qq = QuantizedRowStore::quantize_query(q, cfg);
    ASSERT_EQ(qq.exps.size(), block == 0 ? 1u : 3u);
    ASSERT_TRUE(qq.scales.empty());

    std::size_t offered = 0;
    store.scan(qq, [&](std::size_t r, float s) {
      EXPECT_EQ(r, offered);
      EXPECT_EQ(s, store.score(r, qq));
      ++offered;
    });
    EXPECT_EQ(offered, store.num_rows());
  }
}

TEST(QuantizedRowStoreBfp, AllZeroRowsAndDenormalsAreSafe) {
  MatrixF rows(4, 8);
  rows.fill(0.0f);
  // Row 2: true float denormals. The shared exponent is ~-149; a
  // float-typed 2^|e| would overflow to inf and corrupt the codes —
  // the ldexp-based path must round-trip them exactly (the values are
  // powers of two).
  const float denorm = std::numeric_limits<float>::denorm_min() * 64;
  // Row 3: tiny but with a float-representable self-dot, to check
  // deeply negative exponents still score (exponent ~-73).
  const float tiny = 1e-20f;
  for (std::size_t i = 0; i < 8; ++i) {
    rows(2, i) = (i % 2 ? denorm : -denorm);
    rows(3, i) = (i % 2 ? tiny : -tiny);
  }
  const QuantConfig cfg{0, false, true};
  const QuantizedRowStore store(rows, cfg);
  std::vector<float> back(8, 1.0f);
  store.dequantize_row(1, back);
  for (float v : back) EXPECT_EQ(v, 0.0f);
  store.dequantize_row(2, back);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(back[i], rows(2, i)) << i;  // exact: powers of two
  }
  const auto qz = QuantizedRowStore::quantize_query(
      std::vector<float>(8, 0.0f), cfg);
  EXPECT_EQ(store.score(3, qz), 0.0f);
  const auto qd = QuantizedRowStore::quantize_query(
      std::vector<float>(rows.row(3).begin(), rows.row(3).end()), cfg);
  EXPECT_GT(store.score(3, qd), 0.0f);  // self-similarity positive
  EXPECT_EQ(store.score(1, qd), 0.0f);  // zero row scores zero
}

TEST(QuantizedRowStoreBfp, ApproximateScoresTrackFloatDots) {
  MatrixF rows = random_rows(100, 32, 23);
  serve::l2_normalize_rows(rows);
  const QuantizedRowStore store(rows, {0, false, true});
  Rng rng(29);
  std::vector<float> q(32);
  for (auto& v : q) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  serve::l2_normalize(q);
  const auto qq = QuantizedRowStore::quantize_query(q, {0, false, true});
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    const float exact = simd::dot(rows.row(r).data(), q.data(), 32);
    // pow2 round-up costs up to 1 bit on each side vs plain int8's 2%.
    EXPECT_NEAR(store.score(r, qq), exact, 0.05f) << "r=" << r;
  }
}

TEST(QuantizedSearchBfp, HoldsRecallAgainstExactFloatScan) {
  using namespace serve;
  const std::size_t n = 2000;
  const std::size_t dims = 32;
  const std::size_t k = 10;
  ShardedEmbeddingStore store;
  store.publish(random_rows(n, dims, 37));

  for (const auto kind :
       {IndexConfig::Kind::kBruteForce, IndexConfig::Kind::kIvf}) {
    IndexConfig cfg;
    cfg.kind = kind;
    cfg.nprobe = 12;
    cfg.quant = QuantMode::kBfp;
    cfg.quant_rerank = 4;
    const ShardedQueryEngine quant(store, {cfg});
    const ShardedQueryEngine float_same_kind(store, {{kind, 0, 12}});

    double recall_sum = 0.0;
    const NodeId probes[] = {1, 42, 500, 999, 1500, 1999};
    for (NodeId u : probes) {
      recall_sum += recall_at_k(float_same_kind.topk(u, k), quant.topk(u, k));
    }
    EXPECT_GE(recall_sum / 6.0, 0.95) << "kind=" << static_cast<int>(kind);
  }
}

TEST(QuantizedSearch, HoldsRecallAgainstExactFloatScan) {
  using namespace serve;
  const std::size_t n = 2000;
  const std::size_t dims = 32;
  const std::size_t k = 10;
  ShardedEmbeddingStore store;
  store.publish(random_rows(n, dims, 37));

  const ShardedQueryEngine exact(store);

  for (const auto kind :
       {IndexConfig::Kind::kBruteForce, IndexConfig::Kind::kIvf}) {
    IndexConfig cfg;
    cfg.kind = kind;
    cfg.nprobe = 12;
    cfg.quant = QuantMode::kInt8;
    cfg.quant_rerank = 4;
    const ShardedQueryEngine quant(store, {cfg});

    // IVF prunes cells on top of quantization; compare against the
    // float engine of the same kind so the recall measured is the
    // quantization loss alone.
    const ShardedQueryEngine float_same_kind(store, {{kind, 0, 12}});

    double recall_sum = 0.0;
    const NodeId probes[] = {1, 42, 500, 999, 1500, 1999};
    for (NodeId u : probes) {
      const auto expect = float_same_kind.topk(u, k);
      const auto got = quant.topk(u, k);
      recall_sum += recall_at_k(expect, got);
    }
    EXPECT_GE(recall_sum / 6.0, 0.95) << "kind=" << static_cast<int>(kind);
  }

  // Dot similarity bypasses quantization (cosine-only contract): the
  // results must be bit-identical to the exact engine's.
  IndexConfig bf_quant;
  bf_quant.quant = QuantMode::kInt8;
  const ShardedQueryEngine quant_bf(store, {bf_quant});
  const auto expect = exact.topk(7, k, Similarity::kDot);
  const auto got = quant_bf.topk(7, k, Similarity::kDot);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i].node, expect[i].node);
    EXPECT_EQ(got[i].score, expect[i].score);
  }
}

}  // namespace
}  // namespace seqge
