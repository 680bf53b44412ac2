/**
 * @file
 * Dense math kernels for the functional transformer runtime: matmul,
 * softmax, RMSNorm, SiLU, rotary position embedding, similarity and
 * top-k helpers.
 */

#ifndef VREX_TENSOR_OPS_HH
#define VREX_TENSOR_OPS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.hh"

namespace vrex
{

namespace detail
{

/** Canonical 8-lane dot kernel (see dot() for the order). */
using DotF32Fn = float (*)(const float *a, const float *b, uint32_t n);

/**
 * Row-group GEMM kernel: out[i * ldo + j] = dot(a + i * lda,
 * b + j * ldb, k) for i < rows, j < cols, every element one
 * canonical dot.
 */
using GemmRowsF32Fn = void (*)(const float *a, size_t lda, uint32_t rows,
                               const float *b, size_t ldb, uint32_t cols,
                               uint32_t k, float *out, size_t ldo);

/**
 * Row-group GEMM fused with a column max-pool: raw[j] =
 * std::max(raw[j], dot(a + i * lda, b + j * ldb, k) * scale) for
 * j < cols, over i < rows in order. Every score is one canonical dot.
 */
using GemmRowsMaxF32Fn = void (*)(const float *a, size_t lda,
                                  uint32_t rows, const float *b,
                                  size_t ldb, uint32_t cols, uint32_t k,
                                  float scale, float *raw);

/**
 * Gathered scoring kernel: out[i] = dot(q, base + idx[i] * stride, n)
 * for i < count, every score one canonical dot.
 */
using DotGatherF32Fn = void (*)(const float *q, const float *base,
                                size_t stride, const uint32_t *idx,
                                size_t count, uint32_t n, float *out);

/**
 * Gathered accumulation kernel: out[d] += p[i] * (base + idx[i] *
 * stride)[d] for d < n, i < count, in i order, skipping p[i] == 0.
 * Each out[d] is one sequential sum over the keys (multiply, then
 * add), not the canonical 8-lane order.
 */
using AxpyGatherF32Fn = void (*)(const float *p, const float *base,
                                 size_t stride, const uint32_t *idx,
                                 size_t count, uint32_t n, float *out);

/**
 * Scalar references: they define the bits (the canonical order for
 * the dot kernels, the sequential order for the gathered axpy).
 */
float dotF32Scalar(const float *a, const float *b, uint32_t n);
void gemmRowsF32Scalar(const float *a, size_t lda, uint32_t rows,
                       const float *b, size_t ldb, uint32_t cols,
                       uint32_t k, float *out, size_t ldo);
void gemmRowsMaxF32Scalar(const float *a, size_t lda, uint32_t rows,
                          const float *b, size_t ldb, uint32_t cols,
                          uint32_t k, float scale, float *raw);
void dotGatherF32Scalar(const float *q, const float *base, size_t stride,
                        const uint32_t *idx, size_t count, uint32_t n,
                        float *out);
void axpyGatherF32Scalar(const float *p, const float *base, size_t stride,
                         const uint32_t *idx, size_t count, uint32_t n,
                         float *out);

/**
 * Active dense kernels. They default to the scalar references; the
 * core/kernels dispatch layer installs the runtime-selected SIMD
 * variants at init (or when a test forces an ISA), the way it
 * installs bitsigHammingHook. Relaxed atomics, for the same reason:
 * every installed variant is bit-identical to the reference, so any
 * interleaving of a swap with a call computes the same value.
 */
extern std::atomic<DotF32Fn> dotF32Hook;
extern std::atomic<GemmRowsF32Fn> gemmRowsF32Hook;
extern std::atomic<GemmRowsMaxF32Fn> gemmRowsMaxF32Hook;
extern std::atomic<DotGatherF32Fn> dotGatherF32Hook;
extern std::atomic<AxpyGatherF32Fn> axpyGatherF32Hook;

} // namespace detail

/**
 * One contiguous run of `a` rows sharing a weight matrix in
 * matmulTransposedGrouped(): rows [rowBegin, rowEnd) multiply
 * against @p bT. Groups must tile a's rows in order without gaps.
 */
struct RowGroup
{
    uint32_t rowBegin = 0;
    uint32_t rowEnd = 0;
    const Matrix *bT = nullptr;
};

/**
 * Row-grouped out = a * b^T: every group's rows multiply against
 * that group's weight matrix (all groups must agree on bT shape).
 * Each group runs through the dispatched GEMM kernel
 * (detail::gemmRowsF32Hook): weight rows outer, four at a time with
 * eight lanes each in registers, batch row inner, so streamed weight
 * rows serve every row of their group. Each output element is
 * bit-identical to one dot() of an `a` row and a weight row, so no
 * row's bytes depend on its group or its peers. This is the one
 * dense kernel under both block prefill and cross-session
 * generation.
 */
void matmulTransposedGrouped(const Matrix &a,
                             const std::vector<RowGroup> &groups,
                             Matrix &out);

/** out = a (m×k) * b^T (n×k): the one-group matmulTransposedGrouped(). */
void matmulTransposed(const Matrix &a, const Matrix &bT, Matrix &out);

/** Row-wise in-place softmax (same contract as softmax()). */
void softmaxRows(Matrix &m);

/**
 * Numerically stable softmax of one row buffer.
 *
 * Contract for degenerate rows: a fully masked row (every entry
 * -inf, e.g. a score row whose tokens were all masked out) becomes
 * the uniform distribution 1/n — not NaN. Rows containing NaN stay
 * untouched garbage-in-garbage-out; rows whose exp-sum underflows to
 * zero are left as the (all-zero) exponentials.
 */
void softmax(float *row, uint32_t n);

/** RMSNorm of @p x (length n) with learned gain @p weight, in place. */
void rmsNorm(float *x, const float *weight, uint32_t n, float eps = 1e-5f);

/** SiLU activation in place. */
void silu(float *x, uint32_t n);

/** Elementwise product: x *= y. */
void hadamard(float *x, const float *y, uint32_t n);

/** x += y. */
void addInPlace(float *x, const float *y, uint32_t n);

/**
 * The cos/sin of every RoPE angle (llama convention) at position
 * @p pos: @p c and @p s each receive dim / 2 values. Compute them once
 * per row and apply them to every head of that row.
 */
void ropeAngles(uint32_t dim, uint32_t pos, float thetaBase, float *c,
                float *s);

/** Rotate one head of even length @p dim by precomputed angles. */
void applyRopeAngles(float *head, uint32_t dim, const float *c,
                     const float *s);

/** Invert the RoPE rotation at @p pos (rotate by the negative angle). */
void applyRopeInverse(float *head, uint32_t dim, uint32_t pos,
                      float thetaBase = 10000.0f);

/**
 * Dot product of two float vectors, in the canonical 8-lane order
 * that every dense kernel shares: lane l sums a[8i+l] * b[8i+l]
 * (unfused multiply, then add) over the full blocks; the ragged tail
 * i >= n & ~7 adds into lanes 0..(n % 8) - 1; a fixed tree combines
 * the lanes, ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)). Dispatched
 * through detail::dotF32Hook; every variant matches
 * detail::dotF32Scalar bit for bit.
 */
inline float
dot(const float *a, const float *b, uint32_t n)
{
    return detail::dotF32Hook.load(std::memory_order_relaxed)(a, b, n);
}

/**
 * Row-group GEMM: out[i * ldo + j] = dot(a + i * lda, b + j * ldb, k)
 * for i < rows, j < cols. Dispatched through detail::gemmRowsF32Hook;
 * each element is bit-identical to dot().
 */
inline void
gemmRows(const float *a, size_t lda, uint32_t rows, const float *b,
         size_t ldb, uint32_t cols, uint32_t k, float *out, size_t ldo)
{
    detail::gemmRowsF32Hook.load(std::memory_order_relaxed)(
        a, lda, rows, b, ldb, cols, k, out, ldo);
}

/**
 * Max-pooled row-group scores: raw[j] = std::max(raw[j], dot(a + i *
 * lda, b + j * ldb, k) * scale) for j < cols, over i < rows in order —
 * ReSV's candidate scoring, pooled over the block's queries without a
 * score matrix. std::max keeps raw[j] on ties (±0) and on NaN.
 * Dispatched through detail::gemmRowsMaxF32Hook; every variant
 * matches detail::gemmRowsMaxF32Scalar bit for bit.
 */
inline void
gemmRowsMax(const float *a, size_t lda, uint32_t rows, const float *b,
            size_t ldb, uint32_t cols, uint32_t k, float scale, float *raw)
{
    detail::gemmRowsMaxF32Hook.load(std::memory_order_relaxed)(
        a, lda, rows, b, ldb, cols, k, scale, raw);
}

/**
 * Score one query against gathered rows: out[i] = dot(q, base +
 * idx[i] * stride, n) for i < count. Dispatched through
 * detail::dotGatherF32Hook; each score is bit-identical to dot().
 */
inline void
dotGather(const float *q, const float *base, size_t stride,
          const uint32_t *idx, size_t count, uint32_t n, float *out)
{
    detail::dotGatherF32Hook.load(std::memory_order_relaxed)(
        q, base, stride, idx, count, n, out);
}

/**
 * Accumulate probability-weighted gathered rows: out[d] += p[i] *
 * (base + idx[i] * stride)[d] for d < n and i < count, keys in i
 * order, keys with p[i] == 0 skipped — attention's p·V. Dispatched
 * through detail::axpyGatherF32Hook; every variant matches
 * detail::axpyGatherF32Scalar bit for bit.
 */
inline void
axpyGather(const float *p, const float *base, size_t stride,
           const uint32_t *idx, size_t count, uint32_t n, float *out)
{
    detail::axpyGatherF32Hook.load(std::memory_order_relaxed)(
        p, base, stride, idx, count, n, out);
}

/** L2 norm. */
float norm2(const float *a, uint32_t n);

/** Cosine similarity (0 if either vector is zero). */
float cosineSimilarity(const float *a, const float *b, uint32_t n);

/**
 * Indices of the @p k largest values in @p scores, in descending score
 * order. k is clamped to scores.size().
 */
std::vector<uint32_t> topkIndices(const std::vector<float> &scores,
                                  uint32_t k);

} // namespace vrex

#endif // VREX_TENSOR_OPS_HH
