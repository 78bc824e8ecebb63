#pragma once
// ISA-dispatched dense kernels for the float serving/training hot paths
// and the int8 quantized scan (serve/quantized_store.hpp).
//
// Three implementations sit behind one function-pointer table:
//  * scalar  — always built, bit-identical to the plain loops that
//    linalg/kernels.hpp shipped before vectorization (the fallback and
//    the reference the equivalence tests compare against);
//  * AVX2+FMA — built on x86-64 as a separate translation unit compiled
//    with -mavx2 -mfma (the rest of the library keeps the baseline
//    ISA), selected at runtime via cpuid so one binary runs on any
//    x86-64 machine;
//  * NEON — selected at compile time on aarch64 (NEON is baseline
//    there).
//
// The table is chosen once, at first use, and never changes: results
// are deterministic for a given ISA. Across ISAs, float results may
// differ in the last ulps (vector accumulation reorders the sum; FMA
// contracts rounding steps) — every float kernel here documents its
// accumulation order so "deterministic per ISA" is a checkable claim.
// The int8 kernels are integer arithmetic and therefore bit-identical
// across every implementation (the tests assert exact equality).
//
// Per-row canonical order: dot_batch computes row i's score with
// exactly the same accumulation order as a 1-row call would, whatever
// blocking the implementation uses across rows. That is what makes the
// sharded fan-out scan (per-shard row blocks) bit-identical at every
// shard count to a naive per-row scan — the serving tests gate on it.
//
// Build knobs: -DSEQGE_DISABLE_SIMD (CMake option of the same name)
// forces the scalar table at compile time — the "no SIMD" CI leg.

#include <cstddef>
#include <cstdint>
#include <span>

namespace seqge::simd {

enum class Isa { kScalar, kAvx2, kNeon };

/// The ISA the dispatch table resolved to (fixed for process lifetime).
[[nodiscard]] Isa active_isa() noexcept;
/// "scalar" | "avx2" | "neon" — for bench/JSON reporting.
[[nodiscard]] const char* isa_name() noexcept;

// --- float kernels (dispatched) ---------------------------------------------

/// sum_i x[i] * y[i]. Vector ISAs: one W-wide accumulator stepped W at
/// a time, fixed-order horizontal reduction, scalar tail.
[[nodiscard]] float dot(const float* x, const float* y,
                        std::size_t n) noexcept;

/// y[i] += a * x[i] (elementwise; no cross-lane reassociation).
void axpy(float a, const float* x, float* y, std::size_t n) noexcept;

/// x[i] *= a.
void scale(float a, float* x, std::size_t n) noexcept;

/// sqrt(sum x[i]^2), accumulated in double on every ISA (the scalar
/// baseline always accumulated in double; the vector paths widen each
/// lane before accumulating so precision does not regress).
[[nodiscard]] double l2_norm(const float* x, std::size_t n) noexcept;

/// scores[i] = dot(rows + i * dims, q) for i in [0, n) — the batched
/// rows-vs-query kernel behind every exact/IVF scan. Row results are
/// bit-identical to per-row dot() calls on the same ISA regardless of
/// how the implementation blocks across rows.
void dot_batch(const float* rows, std::size_t n, std::size_t dims,
               const float* q, float* scores) noexcept;

// --- float training kernels (dispatched) ------------------------------------
// The fused batched kernels behind the three CPU training backends
// (skip-gram SGD and the two OS-ELM variants). Each documents its
// accumulation order; every one is bit-identical to the composition of
// per-row scalar-namespace calls it replaces *on the same ISA*, which
// is what lets the backends swap the per-sample loops for one fused
// call without changing a single trained float (the fused-vs-unfused
// model tests gate on exact equality).

/// out[c] = sum_r v[r] * m[r * cols + c]  (out = M^T v, M row-major).
/// Accumulation order per output element: rows in ascending order, one
/// rounding per step (FMA on vector ISAs) — exactly the order the old
/// zero-then-axpy-per-row composition produced.
void matvec_t(const float* m, std::size_t rows, std::size_t cols,
              const float* v, float* out) noexcept;

/// m[r] += (a * x[r]) * y for every row r (rank-1 update M += a x y^T).
/// The per-row coefficient a * x[r] is rounded to float once, then the
/// row update follows axpy's element order — identical to calling
/// axpy(a * x[r], y, row r) row by row.
void rank1_update(float* m, std::size_t rows, std::size_t cols, float a,
                  const float* x, const float* y) noexcept;

/// Fused square-matrix pair out_mv = M v, out_mtv = M^T v (M is n x n,
/// one pass over M instead of two). out_mv rows follow the canonical
/// dot() order; out_mtv columns accumulate rows in ascending order like
/// matvec_t — both outputs are bit-identical to separate dot_batch and
/// matvec_t calls on the same ISA. This is the OS-ELM "ph = P h,
/// hp = h P" pair, where P is square and h is shared, fused so each P
/// row is read once. v must alias neither output.
void matvec_both(const float* m, std::size_t n, const float* v,
                 float* out_mv, float* out_mtv) noexcept;

/// Fused rank-1 update + matvec for a square n x n matrix: for each row
/// r in ascending order, m[r] += (a * x[r]) * y (coefficient rounded
/// once, axpy element order), then out[r] = dot(m[r], v) in the
/// canonical order — bit-identical to rank1_update followed by a full
/// dot_batch, because each row's score depends only on that row's
/// update. This is OS-ELM's "P -= k ph hp^T; ph2 = P h" pair, fused so
/// each P row makes one trip through the cache instead of two.
void rank1_matvec(float* m, std::size_t n, float a, const float* x,
                  const float* y, const float* v, float* out) noexcept;

/// scores[i] = dot(rows[i], q) over a gather list of row pointers (the
/// scattered w_out_/beta rows of one training context). Per-row order
/// is the canonical dot() order, same as dot_batch.
void dot_batch_gather(const float* const* rows, std::size_t n,
                      std::size_t dims, const float* q,
                      float* scores) noexcept;

/// rows[i] += coeffs[i] * x for each gathered row. Element order per
/// row matches axpy. Duplicate row pointers are NOT supported (updates
/// could be lost under cross-row blocking); callers fall back to
/// sequential axpy calls when the sample list contains duplicates.
void axpy_gather(float* const* rows, const float* coeffs, const float* x,
                 std::size_t n, std::size_t dims) noexcept;

/// Fused SGNS gradient application over one (center, samples) group:
///   for i in [0, n): rows[i] += (neg_lr * g[i]) * h      (output rows)
///   h += neg_lr * sum_i g[i] * rows_pre[i]               (input row)
/// where rows_pre are the row values before this call. `hgrad` is a
/// dims-sized caller scratch (contents unspecified on return). The
/// float sequence matches the unfused reference exactly: h_grad
/// accumulates g[i] * row in ascending i before each row update, the
/// per-row coefficient neg_lr * g[i] is rounded once, and the final h
/// update is one axpy(neg_lr, h_grad, h). h must not alias any row
/// (w_in vs w_out — guaranteed by the model layout); duplicate row
/// pointers are NOT supported (see axpy_gather).
void sgns_apply(float* h, float* hgrad, float* const* rows, const float* g,
                float neg_lr, std::size_t n, std::size_t dims) noexcept;

// --- int8 kernels (dispatched, bit-exact across ISAs) -----------------------

/// sum_i int32(x[i]) * int32(y[i]).
[[nodiscard]] std::int32_t dot_i8(const std::int8_t* x, const std::int8_t* y,
                                  std::size_t n) noexcept;

/// out[i] = dot_i8(rows + i * dims, q) for i in [0, n).
void dot_i8_batch(const std::int8_t* rows, std::size_t n, std::size_t dims,
                  const std::int8_t* q, std::int32_t* out) noexcept;

// --- scalar reference (always available) ------------------------------------
// The exact pre-vectorization loops. The dispatched functions above
// resolve to these on Isa::kScalar; tests compare against them
// directly, whatever ISA is active.
namespace scalar {
[[nodiscard]] float dot(const float* x, const float* y,
                        std::size_t n) noexcept;
void axpy(float a, const float* x, float* y, std::size_t n) noexcept;
void scale(float a, float* x, std::size_t n) noexcept;
[[nodiscard]] double l2_norm(const float* x, std::size_t n) noexcept;
void dot_batch(const float* rows, std::size_t n, std::size_t dims,
               const float* q, float* scores) noexcept;
void matvec_t(const float* m, std::size_t rows, std::size_t cols,
              const float* v, float* out) noexcept;
void rank1_update(float* m, std::size_t rows, std::size_t cols, float a,
                  const float* x, const float* y) noexcept;
void matvec_both(const float* m, std::size_t n, const float* v,
                 float* out_mv, float* out_mtv) noexcept;
void rank1_matvec(float* m, std::size_t n, float a, const float* x,
                  const float* y, const float* v, float* out) noexcept;
void dot_batch_gather(const float* const* rows, std::size_t n,
                      std::size_t dims, const float* q,
                      float* scores) noexcept;
void axpy_gather(float* const* rows, const float* coeffs, const float* x,
                 std::size_t n, std::size_t dims) noexcept;
void sgns_apply(float* h, float* hgrad, float* const* rows, const float* g,
                float neg_lr, std::size_t n, std::size_t dims) noexcept;
[[nodiscard]] std::int32_t dot_i8(const std::int8_t* x, const std::int8_t* y,
                                  std::size_t n) noexcept;
void dot_i8_batch(const std::int8_t* rows, std::size_t n, std::size_t dims,
                  const std::int8_t* q, std::int32_t* out) noexcept;
}  // namespace scalar

// --- fused scan --------------------------------------------------------------

/// Fused rows-vs-query top-k scan: computes dot_batch block by block
/// into a stack buffer and hands (row_index, score) to `offer` — the
/// caller plugs in its TopKAccumulator (and its exclusion test) without
/// this header depending on serve/. Scores are identical to a full
/// dot_batch over [0, n).
template <typename Offer>
void dot_topk_scan(const float* rows, std::size_t n, std::size_t dims,
                   const float* q, Offer&& offer) {
  constexpr std::size_t kBlock = 128;
  float scores[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t count = n - base < kBlock ? n - base : kBlock;
    dot_batch(rows + base * dims, count, dims, q, scores);
    for (std::size_t i = 0; i < count; ++i) offer(base + i, scores[i]);
  }
}

/// Int8 variant of the fused scan: offers raw int32 dot products; the
/// caller applies its scale factors.
template <typename Offer>
void dot_i8_topk_scan(const std::int8_t* rows, std::size_t n,
                      std::size_t dims, const std::int8_t* q,
                      Offer&& offer) {
  constexpr std::size_t kBlock = 128;
  std::int32_t acc[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t count = n - base < kBlock ? n - base : kBlock;
    dot_i8_batch(rows + base * dims, count, dims, q, acc);
    for (std::size_t i = 0; i < count; ++i) offer(base + i, acc[i]);
  }
}

// --- span conveniences --------------------------------------------------------

[[nodiscard]] inline float dot(std::span<const float> x,
                               std::span<const float> y) noexcept {
  return dot(x.data(), y.data(), x.size());
}
[[nodiscard]] inline double l2_norm(std::span<const float> x) noexcept {
  return l2_norm(x.data(), x.size());
}

}  // namespace seqge::simd
