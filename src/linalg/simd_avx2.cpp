// AVX2+FMA kernels. This TU (and only this TU) is compiled with
// -mavx2 -mfma on x86-64 builds; everything here is self-guarded with
// __AVX2__ so the file compiles to nothing if the flags are absent.
// Selection happens at runtime in simd.cpp via avx2::supported(), so
// the binary still runs on pre-AVX2 machines.
//
// Accumulation-order contract (see simd.hpp): dot uses ONE 8-wide
// accumulator stepped 8 floats at a time, a fixed-order horizontal
// reduction, and a scalar tail; dot_batch applies exactly that order
// to each row, whatever its cross-row blocking. l2_norm widens every
// lane to double before accumulating, matching the scalar baseline's
// double accumulator precision.

#include "linalg/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

namespace seqge::simd::avx2 {

namespace {

// Fixed-order horizontal sum: (lo128 + hi128), then pairwise within
// the 128-bit half — same tree for every call site so row scores are
// reproducible.
inline float hsum256(__m256 v) noexcept {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);            // [a0+a4, a1+a5, a2+a6, a3+a7]
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));   // [a0+a4+a2+a6, a1+a5+a3+a7, ..]
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

inline double hsum256d(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d s = _mm_add_pd(lo, hi);
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

}  // namespace

bool supported() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

float dot(const float* x, const float* y, std::size_t n) noexcept {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i), acc);
  }
  float sum = hsum256(acc);
  // std::fmaf pins the tail to one rounding per element (a single
  // vfmadd), so dot_batch's tails below are bit-identical to this one
  // no matter how the compiler contracts or SLP-vectorizes either loop.
  for (; i < n; ++i) sum = std::fmaf(x[i], y[i], sum);
  return sum;
}

void axpy(float a, const float* x, float* y, std::size_t n) noexcept {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 r =
        _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, r);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale(float a, float* x, std::size_t n) noexcept {
  const __m256 av = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), av));
  }
  for (; i < n; ++i) x[i] *= a;
}

double l2_norm(const float* x, std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  double sum = hsum256d(acc0) + hsum256d(acc1);
  for (; i < n; ++i) {
    sum += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return std::sqrt(sum);
}

void dot_batch(const float* rows, std::size_t n, std::size_t dims,
               const float* q, float* scores) noexcept {
  std::size_t r = 0;
  // Four rows per pass share each load of q. Each row keeps its own
  // single 8-wide accumulator and its own scalar tail — the canonical
  // per-row order — so scores match 1-row dot() calls exactly.
  for (; r + 4 <= n; r += 4) {
    const float* r0 = rows + (r + 0) * dims;
    const float* r1 = rows + (r + 1) * dims;
    const float* r2 = rows + (r + 2) * dims;
    const float* r3 = rows + (r + 3) * dims;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= dims; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      a0 = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i), qv, a0);
      a1 = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i), qv, a1);
      a2 = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + i), qv, a2);
      a3 = _mm256_fmadd_ps(_mm256_loadu_ps(r3 + i), qv, a3);
    }
    float s0 = hsum256(a0);
    float s1 = hsum256(a1);
    float s2 = hsum256(a2);
    float s3 = hsum256(a3);
    for (; i < dims; ++i) {
      s0 = std::fmaf(r0[i], q[i], s0);
      s1 = std::fmaf(r1[i], q[i], s1);
      s2 = std::fmaf(r2[i], q[i], s2);
      s3 = std::fmaf(r3[i], q[i], s3);
    }
    scores[r + 0] = s0;
    scores[r + 1] = s1;
    scores[r + 2] = s2;
    scores[r + 3] = s3;
  }
  for (; r < n; ++r) scores[r] = dot(rows + r * dims, q, dims);
}

// --- fused training kernels --------------------------------------------------
// Bit-identity contract (simd.hpp): each kernel reproduces the float
// sequence of the per-row avx2 calls it replaces. Column-blocked loops
// keep accumulators in registers, but every output element's chain of
// FMAs runs over rows/samples in the same ascending order with the
// same one-rounding-per-step arithmetic, so the results are the same
// bits. Scalar tails are written in the same expression form as
// axpy/dot tails in this TU so the compiler contracts them identically.

void matvec_t(const float* m, std::size_t rows, std::size_t cols,
              const float* v, float* out) noexcept {
  std::size_t c = 0;
  // 32 columns per pass: one v[r] broadcast feeds four FMAs.
  for (; c + 32 <= cols; c += 32) {
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    for (std::size_t r = 0; r < rows; ++r) {
      const __m256 vr = _mm256_set1_ps(v[r]);
      const float* row = m + r * cols + c;
      a0 = _mm256_fmadd_ps(vr, _mm256_loadu_ps(row + 0), a0);
      a1 = _mm256_fmadd_ps(vr, _mm256_loadu_ps(row + 8), a1);
      a2 = _mm256_fmadd_ps(vr, _mm256_loadu_ps(row + 16), a2);
      a3 = _mm256_fmadd_ps(vr, _mm256_loadu_ps(row + 24), a3);
    }
    _mm256_storeu_ps(out + c + 0, a0);
    _mm256_storeu_ps(out + c + 8, a1);
    _mm256_storeu_ps(out + c + 16, a2);
    _mm256_storeu_ps(out + c + 24, a3);
  }
  for (; c + 8 <= cols; c += 8) {
    __m256 a0 = _mm256_setzero_ps();
    for (std::size_t r = 0; r < rows; ++r) {
      a0 = _mm256_fmadd_ps(_mm256_set1_ps(v[r]),
                           _mm256_loadu_ps(m + r * cols + c), a0);
    }
    _mm256_storeu_ps(out + c, a0);
  }
  for (; c < cols; ++c) {
    out[c] = 0.0f;
    for (std::size_t r = 0; r < rows; ++r) {
      out[c] += v[r] * m[r * cols + c];
    }
  }
}

void rank1_update(float* m, std::size_t rows, std::size_t cols, float a,
                  const float* x, const float* y) noexcept {
  std::size_t r = 0;
  // Four rows per pass share each load of y. Per-row coefficients are
  // rounded once up front, exactly like axpy(a * x[r], y, row).
  for (; r + 4 <= rows; r += 4) {
    float* m0 = m + (r + 0) * cols;
    float* m1 = m + (r + 1) * cols;
    float* m2 = m + (r + 2) * cols;
    float* m3 = m + (r + 3) * cols;
    const float c0 = a * x[r + 0];
    const float c1 = a * x[r + 1];
    const float c2 = a * x[r + 2];
    const float c3 = a * x[r + 3];
    const __m256 cv0 = _mm256_set1_ps(c0);
    const __m256 cv1 = _mm256_set1_ps(c1);
    const __m256 cv2 = _mm256_set1_ps(c2);
    const __m256 cv3 = _mm256_set1_ps(c3);
    std::size_t i = 0;
    for (; i + 8 <= cols; i += 8) {
      const __m256 yv = _mm256_loadu_ps(y + i);
      _mm256_storeu_ps(m0 + i,
                       _mm256_fmadd_ps(cv0, yv, _mm256_loadu_ps(m0 + i)));
      _mm256_storeu_ps(m1 + i,
                       _mm256_fmadd_ps(cv1, yv, _mm256_loadu_ps(m1 + i)));
      _mm256_storeu_ps(m2 + i,
                       _mm256_fmadd_ps(cv2, yv, _mm256_loadu_ps(m2 + i)));
      _mm256_storeu_ps(m3 + i,
                       _mm256_fmadd_ps(cv3, yv, _mm256_loadu_ps(m3 + i)));
    }
    for (; i < cols; ++i) {
      m0[i] += c0 * y[i];
      m1[i] += c1 * y[i];
      m2[i] += c2 * y[i];
      m3[i] += c3 * y[i];
    }
  }
  for (; r < rows; ++r) {
    axpy(a * x[r], y, m + r * cols, cols);
  }
}

void matvec_both(const float* m, std::size_t n, const float* v,
                 float* out_mv, float* out_mtv) noexcept {
  // One pass over the square matrix produces both products: four rows
  // per quad share each load of v; each m-row block feeds that row's
  // dot accumulator (canonical per-row order) AND the M^T v memory
  // accumulator. Per out_mtv element the FMA chain runs rows in
  // ascending order — a register accumulator (matvec_t) and this
  // load-fma-store sequence round identically, so both outputs match
  // separate dot_batch + matvec_t calls bit for bit.
  for (std::size_t c = 0; c < n; ++c) out_mtv[c] = 0.0f;
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const float* r0 = m + (r + 0) * n;
    const float* r1 = m + (r + 1) * n;
    const float* r2 = m + (r + 2) * n;
    const float* r3 = m + (r + 3) * n;
    const __m256 vr0 = _mm256_set1_ps(v[r + 0]);
    const __m256 vr1 = _mm256_set1_ps(v[r + 1]);
    const __m256 vr2 = _mm256_set1_ps(v[r + 2]);
    const __m256 vr3 = _mm256_set1_ps(v[r + 3]);
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    std::size_t i = 0;
    // Two column blocks per step: the two out_mtv chains are
    // independent, which hides the 4-deep FMA latency of each; the dot
    // accumulators still take their blocks in ascending order (one
    // serial chain per row — the canonical order — regardless of the
    // unroll).
    for (; i + 16 <= n; i += 16) {
      const __m256 qa = _mm256_loadu_ps(v + i);
      const __m256 qb = _mm256_loadu_ps(v + i + 8);
      const __m256 m0a = _mm256_loadu_ps(r0 + i);
      const __m256 m0b = _mm256_loadu_ps(r0 + i + 8);
      const __m256 m1a = _mm256_loadu_ps(r1 + i);
      const __m256 m1b = _mm256_loadu_ps(r1 + i + 8);
      const __m256 m2a = _mm256_loadu_ps(r2 + i);
      const __m256 m2b = _mm256_loadu_ps(r2 + i + 8);
      const __m256 m3a = _mm256_loadu_ps(r3 + i);
      const __m256 m3b = _mm256_loadu_ps(r3 + i + 8);
      a0 = _mm256_fmadd_ps(m0a, qa, a0);
      a0 = _mm256_fmadd_ps(m0b, qb, a0);
      a1 = _mm256_fmadd_ps(m1a, qa, a1);
      a1 = _mm256_fmadd_ps(m1b, qb, a1);
      a2 = _mm256_fmadd_ps(m2a, qa, a2);
      a2 = _mm256_fmadd_ps(m2b, qb, a2);
      a3 = _mm256_fmadd_ps(m3a, qa, a3);
      a3 = _mm256_fmadd_ps(m3b, qb, a3);
      __m256 ta = _mm256_loadu_ps(out_mtv + i);
      __m256 tb = _mm256_loadu_ps(out_mtv + i + 8);
      ta = _mm256_fmadd_ps(vr0, m0a, ta);
      tb = _mm256_fmadd_ps(vr0, m0b, tb);
      ta = _mm256_fmadd_ps(vr1, m1a, ta);
      tb = _mm256_fmadd_ps(vr1, m1b, tb);
      ta = _mm256_fmadd_ps(vr2, m2a, ta);
      tb = _mm256_fmadd_ps(vr2, m2b, tb);
      ta = _mm256_fmadd_ps(vr3, m3a, ta);
      tb = _mm256_fmadd_ps(vr3, m3b, tb);
      _mm256_storeu_ps(out_mtv + i, ta);
      _mm256_storeu_ps(out_mtv + i + 8, tb);
    }
    for (; i + 8 <= n; i += 8) {
      const __m256 qv = _mm256_loadu_ps(v + i);
      const __m256 m0 = _mm256_loadu_ps(r0 + i);
      const __m256 m1 = _mm256_loadu_ps(r1 + i);
      const __m256 m2 = _mm256_loadu_ps(r2 + i);
      const __m256 m3 = _mm256_loadu_ps(r3 + i);
      a0 = _mm256_fmadd_ps(m0, qv, a0);
      a1 = _mm256_fmadd_ps(m1, qv, a1);
      a2 = _mm256_fmadd_ps(m2, qv, a2);
      a3 = _mm256_fmadd_ps(m3, qv, a3);
      __m256 t = _mm256_loadu_ps(out_mtv + i);
      t = _mm256_fmadd_ps(vr0, m0, t);
      t = _mm256_fmadd_ps(vr1, m1, t);
      t = _mm256_fmadd_ps(vr2, m2, t);
      t = _mm256_fmadd_ps(vr3, m3, t);
      _mm256_storeu_ps(out_mtv + i, t);
    }
    float s0 = hsum256(a0);
    float s1 = hsum256(a1);
    float s2 = hsum256(a2);
    float s3 = hsum256(a3);
    for (; i < n; ++i) {
      s0 = std::fmaf(r0[i], v[i], s0);
      s1 = std::fmaf(r1[i], v[i], s1);
      s2 = std::fmaf(r2[i], v[i], s2);
      s3 = std::fmaf(r3[i], v[i], s3);
      out_mtv[i] += v[r + 0] * r0[i];
      out_mtv[i] += v[r + 1] * r1[i];
      out_mtv[i] += v[r + 2] * r2[i];
      out_mtv[i] += v[r + 3] * r3[i];
    }
    out_mv[r + 0] = s0;
    out_mv[r + 1] = s1;
    out_mv[r + 2] = s2;
    out_mv[r + 3] = s3;
  }
  for (; r < n; ++r) {
    const float* row = m + r * n;
    out_mv[r] = dot(row, v, n);
    axpy(v[r], row, out_mtv, n);
  }
}

void rank1_matvec(float* m, std::size_t n, float a, const float* x,
                  const float* y, const float* v, float* out) noexcept {
  // One pass over the square matrix for update + re-score: per quad of
  // rows the freshly updated block feeds the dot accumulator directly,
  // so each row is read and written once instead of twice. Coefficients
  // round once up front (rank1_update's contract); each dot follows the
  // canonical per-row order over the updated values — bit-identical to
  // rank1_update followed by dot_batch.
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    float* m0 = m + (r + 0) * n;
    float* m1 = m + (r + 1) * n;
    float* m2 = m + (r + 2) * n;
    float* m3 = m + (r + 3) * n;
    const float c0 = a * x[r + 0];
    const float c1 = a * x[r + 1];
    const float c2 = a * x[r + 2];
    const float c3 = a * x[r + 3];
    const __m256 cv0 = _mm256_set1_ps(c0);
    const __m256 cv1 = _mm256_set1_ps(c1);
    const __m256 cv2 = _mm256_set1_ps(c2);
    const __m256 cv3 = _mm256_set1_ps(c3);
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 yv = _mm256_loadu_ps(y + i);
      const __m256 vv = _mm256_loadu_ps(v + i);
      const __m256 n0 = _mm256_fmadd_ps(cv0, yv, _mm256_loadu_ps(m0 + i));
      const __m256 n1 = _mm256_fmadd_ps(cv1, yv, _mm256_loadu_ps(m1 + i));
      const __m256 n2 = _mm256_fmadd_ps(cv2, yv, _mm256_loadu_ps(m2 + i));
      const __m256 n3 = _mm256_fmadd_ps(cv3, yv, _mm256_loadu_ps(m3 + i));
      _mm256_storeu_ps(m0 + i, n0);
      _mm256_storeu_ps(m1 + i, n1);
      _mm256_storeu_ps(m2 + i, n2);
      _mm256_storeu_ps(m3 + i, n3);
      a0 = _mm256_fmadd_ps(n0, vv, a0);
      a1 = _mm256_fmadd_ps(n1, vv, a1);
      a2 = _mm256_fmadd_ps(n2, vv, a2);
      a3 = _mm256_fmadd_ps(n3, vv, a3);
    }
    float s0 = hsum256(a0);
    float s1 = hsum256(a1);
    float s2 = hsum256(a2);
    float s3 = hsum256(a3);
    for (; i < n; ++i) {
      m0[i] += c0 * y[i];
      m1[i] += c1 * y[i];
      m2[i] += c2 * y[i];
      m3[i] += c3 * y[i];
      s0 = std::fmaf(m0[i], v[i], s0);
      s1 = std::fmaf(m1[i], v[i], s1);
      s2 = std::fmaf(m2[i], v[i], s2);
      s3 = std::fmaf(m3[i], v[i], s3);
    }
    out[r + 0] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < n; ++r) {
    float* row = m + r * n;
    axpy(a * x[r], y, row, n);
    out[r] = dot(row, v, n);
  }
}

void dot_batch_gather(const float* const* rows, std::size_t n,
                      std::size_t dims, const float* q,
                      float* scores) noexcept {
  // dot_batch's blocking over a gather list: four rows per pass share
  // each load of q, each row in the canonical per-row order.
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const float* r0 = rows[r + 0];
    const float* r1 = rows[r + 1];
    const float* r2 = rows[r + 2];
    const float* r3 = rows[r + 3];
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= dims; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      a0 = _mm256_fmadd_ps(_mm256_loadu_ps(r0 + i), qv, a0);
      a1 = _mm256_fmadd_ps(_mm256_loadu_ps(r1 + i), qv, a1);
      a2 = _mm256_fmadd_ps(_mm256_loadu_ps(r2 + i), qv, a2);
      a3 = _mm256_fmadd_ps(_mm256_loadu_ps(r3 + i), qv, a3);
    }
    float s0 = hsum256(a0);
    float s1 = hsum256(a1);
    float s2 = hsum256(a2);
    float s3 = hsum256(a3);
    for (; i < dims; ++i) {
      s0 = std::fmaf(r0[i], q[i], s0);
      s1 = std::fmaf(r1[i], q[i], s1);
      s2 = std::fmaf(r2[i], q[i], s2);
      s3 = std::fmaf(r3[i], q[i], s3);
    }
    scores[r + 0] = s0;
    scores[r + 1] = s1;
    scores[r + 2] = s2;
    scores[r + 3] = s3;
  }
  for (; r < n; ++r) scores[r] = dot(rows[r], q, dims);
}

void axpy_gather(float* const* rows, const float* coeffs, const float* x,
                 std::size_t n, std::size_t dims) noexcept {
  // Four rows per pass share each load of x. Duplicate row pointers in
  // a quad would lose updates (all four pre-values load before any
  // store) — callers guarantee distinct rows (simd.hpp contract).
  std::size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    float* r0 = rows[r + 0];
    float* r1 = rows[r + 1];
    float* r2 = rows[r + 2];
    float* r3 = rows[r + 3];
    const float c0 = coeffs[r + 0];
    const float c1 = coeffs[r + 1];
    const float c2 = coeffs[r + 2];
    const float c3 = coeffs[r + 3];
    const __m256 cv0 = _mm256_set1_ps(c0);
    const __m256 cv1 = _mm256_set1_ps(c1);
    const __m256 cv2 = _mm256_set1_ps(c2);
    const __m256 cv3 = _mm256_set1_ps(c3);
    std::size_t i = 0;
    for (; i + 8 <= dims; i += 8) {
      const __m256 xv = _mm256_loadu_ps(x + i);
      _mm256_storeu_ps(r0 + i,
                       _mm256_fmadd_ps(cv0, xv, _mm256_loadu_ps(r0 + i)));
      _mm256_storeu_ps(r1 + i,
                       _mm256_fmadd_ps(cv1, xv, _mm256_loadu_ps(r1 + i)));
      _mm256_storeu_ps(r2 + i,
                       _mm256_fmadd_ps(cv2, xv, _mm256_loadu_ps(r2 + i)));
      _mm256_storeu_ps(r3 + i,
                       _mm256_fmadd_ps(cv3, xv, _mm256_loadu_ps(r3 + i)));
    }
    for (; i < dims; ++i) {
      r0[i] += c0 * x[i];
      r1[i] += c1 * x[i];
      r2[i] += c2 * x[i];
      r3[i] += c3 * x[i];
    }
  }
  for (; r < n; ++r) axpy(coeffs[r], x, rows[r], dims);
}

void sgns_apply(float* h, float* hgrad, float* const* rows, const float* g,
                float neg_lr, std::size_t n, std::size_t dims) noexcept {
  // Column-blocked: h and the h_grad accumulator stay in registers for
  // a whole 8-column block while every sample row streams through once.
  // Per column, the float chain is the unfused sequence: h_grad FMA
  // from zero over samples (each reading the pre-update row), one
  // rounded neg_lr * g[i] coefficient per sample for the row update
  // against pre-update h, then one final FMA into h. hgrad is bypassed
  // (the accumulator never leaves registers).
  (void)hgrad;
  const __m256 nl = _mm256_set1_ps(neg_lr);
  std::size_t d = 0;
  // 32 columns per pass: the sample loop carries four independent
  // h_grad accumulator chains (the 8-wide version's single chain is
  // FMA-latency-bound at training dims), and one g[i] broadcast plus
  // one neg_lr * g[i] product serve all four blocks. Each column's
  // chain of operations is unchanged, so the results are the same bits.
  for (; d + 32 <= dims; d += 32) {
    const __m256 hb0 = _mm256_loadu_ps(h + d + 0);
    const __m256 hb1 = _mm256_loadu_ps(h + d + 8);
    const __m256 hb2 = _mm256_loadu_ps(h + d + 16);
    const __m256 hb3 = _mm256_loadu_ps(h + d + 24);
    __m256 ac0 = _mm256_setzero_ps();
    __m256 ac1 = _mm256_setzero_ps();
    __m256 ac2 = _mm256_setzero_ps();
    __m256 ac3 = _mm256_setzero_ps();
    for (std::size_t i = 0; i < n; ++i) {
      float* rp = rows[i] + d;
      const __m256 gv = _mm256_set1_ps(g[i]);
      const __m256 cv = _mm256_mul_ps(nl, gv);
      const __m256 r0 = _mm256_loadu_ps(rp + 0);
      const __m256 r1 = _mm256_loadu_ps(rp + 8);
      const __m256 r2 = _mm256_loadu_ps(rp + 16);
      const __m256 r3 = _mm256_loadu_ps(rp + 24);
      ac0 = _mm256_fmadd_ps(gv, r0, ac0);
      ac1 = _mm256_fmadd_ps(gv, r1, ac1);
      ac2 = _mm256_fmadd_ps(gv, r2, ac2);
      ac3 = _mm256_fmadd_ps(gv, r3, ac3);
      _mm256_storeu_ps(rp + 0, _mm256_fmadd_ps(cv, hb0, r0));
      _mm256_storeu_ps(rp + 8, _mm256_fmadd_ps(cv, hb1, r1));
      _mm256_storeu_ps(rp + 16, _mm256_fmadd_ps(cv, hb2, r2));
      _mm256_storeu_ps(rp + 24, _mm256_fmadd_ps(cv, hb3, r3));
    }
    _mm256_storeu_ps(h + d + 0, _mm256_fmadd_ps(nl, ac0, hb0));
    _mm256_storeu_ps(h + d + 8, _mm256_fmadd_ps(nl, ac1, hb1));
    _mm256_storeu_ps(h + d + 16, _mm256_fmadd_ps(nl, ac2, hb2));
    _mm256_storeu_ps(h + d + 24, _mm256_fmadd_ps(nl, ac3, hb3));
  }
  for (; d + 8 <= dims; d += 8) {
    const __m256 hb = _mm256_loadu_ps(h + d);
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t i = 0; i < n; ++i) {
      float* rp = rows[i] + d;
      const __m256 gv = _mm256_set1_ps(g[i]);
      const __m256 rv = _mm256_loadu_ps(rp);
      acc = _mm256_fmadd_ps(gv, rv, acc);
      const __m256 cv = _mm256_mul_ps(nl, gv);
      _mm256_storeu_ps(rp, _mm256_fmadd_ps(cv, hb, rv));
    }
    _mm256_storeu_ps(h + d, _mm256_fmadd_ps(nl, acc, hb));
  }
  for (; d < dims; ++d) {
    float hg = 0.0f;
    const float hd = h[d];
    for (std::size_t i = 0; i < n; ++i) {
      const float c = neg_lr * g[i];
      hg += g[i] * rows[i][d];
      rows[i][d] += c * hd;
    }
    h[d] += neg_lr * hg;
  }
}

}  // namespace seqge::simd::avx2

#endif  // __AVX2__ && __FMA__
