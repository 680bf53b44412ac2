/**
 * @file
 * Dense math kernels for the functional transformer runtime: matmul,
 * softmax, RMSNorm, SiLU, rotary position embedding, similarity and
 * top-k helpers.
 */

#ifndef VREX_TENSOR_OPS_HH
#define VREX_TENSOR_OPS_HH

#include <cstdint>
#include <vector>

#include "tensor/matrix.hh"

namespace vrex
{

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
 * Each output element is bit-identical to one dot() of an `a` row
 * and a weight row; the loop runs weight rows outer (four at a time,
 * as four independent sequential sums), batch row inner, so streamed
 * weight rows serve every row of their group. This is the one dense
 * kernel under both block prefill and cross-session generation.
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
 * Apply rotary position embedding to one head vector of even length
 * @p dim at sequence position @p pos (llama convention, theta=10000).
 */
void applyRope(float *head, uint32_t dim, uint32_t pos,
               float thetaBase = 10000.0f);

/** Invert applyRope (rotate by the negative angle). */
void applyRopeInverse(float *head, uint32_t dim, uint32_t pos,
                      float thetaBase = 10000.0f);

/** Dot product of two float vectors. */
float dot(const float *a, const float *b, uint32_t n);

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
