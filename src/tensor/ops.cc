#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace vrex
{

namespace detail
{

float
dotF32Scalar(const float *a, const float *b, uint32_t n)
{
    float s[8] = {};
    const uint32_t body = n & ~7u;
    for (uint32_t i = 0; i < body; i += 8)
        for (uint32_t l = 0; l < 8; ++l)
            s[l] += a[i + l] * b[i + l];
    for (uint32_t i = body; i < n; ++i)
        s[i - body] += a[i] * b[i];
    return ((s[0] + s[4]) + (s[2] + s[6])) +
        ((s[1] + s[5]) + (s[3] + s[7]));
}

void
gemmRowsF32Scalar(const float *a, size_t lda, uint32_t rows,
                  const float *b, size_t ldb, uint32_t cols, uint32_t k,
                  float *out, size_t ldo)
{
    for (uint32_t j = 0; j < cols; ++j)
        for (uint32_t i = 0; i < rows; ++i)
            out[i * ldo + j] = dotF32Scalar(a + i * lda, b + j * ldb, k);
}

void
gemmRowsMaxF32Scalar(const float *a, size_t lda, uint32_t rows,
                     const float *b, size_t ldb, uint32_t cols, uint32_t k,
                     float scale, float *raw)
{
    for (uint32_t j = 0; j < cols; ++j)
        for (uint32_t i = 0; i < rows; ++i)
            raw[j] = std::max(raw[j],
                              dotF32Scalar(a + i * lda, b + j * ldb, k) *
                                  scale);
}

void
dotGatherF32Scalar(const float *q, const float *base, size_t stride,
                   const uint32_t *idx, size_t count, uint32_t n,
                   float *out)
{
    for (size_t i = 0; i < count; ++i)
        out[i] = dotF32Scalar(q, base + idx[i] * stride, n);
}

void
axpyGatherF32Scalar(const float *p, const float *base, size_t stride,
                    const uint32_t *idx, size_t count, uint32_t n,
                    float *out)
{
    for (size_t i = 0; i < count; ++i) {
        const float pi = p[i];
        if (pi == 0.0f)
            continue;
        const float *row = base + idx[i] * stride;
        for (uint32_t d = 0; d < n; ++d)
            out[d] += pi * row[d];
    }
}

std::atomic<DotF32Fn> dotF32Hook{&dotF32Scalar};
std::atomic<GemmRowsF32Fn> gemmRowsF32Hook{&gemmRowsF32Scalar};
std::atomic<GemmRowsMaxF32Fn> gemmRowsMaxF32Hook{&gemmRowsMaxF32Scalar};
std::atomic<DotGatherF32Fn> dotGatherF32Hook{&dotGatherF32Scalar};
std::atomic<AxpyGatherF32Fn> axpyGatherF32Hook{&axpyGatherF32Scalar};

} // namespace detail

void
matmulTransposedGrouped(const Matrix &a,
                        const std::vector<RowGroup> &groups,
                        Matrix &out)
{
    VREX_ASSERT(!groups.empty(), "grouped matmulT needs groups");
    const Matrix *first = groups.front().bT;
    VREX_ASSERT(first != nullptr, "grouped matmulT null weights");
    out = Matrix(a.rows(), first->rows());
    uint32_t next_row = 0;
    for (const RowGroup &g : groups) {
        VREX_ASSERT(g.bT != nullptr, "grouped matmulT null weights");
        VREX_ASSERT(g.bT->rows() == first->rows() &&
                        g.bT->cols() == a.cols(),
                    "grouped matmulT shape mismatch");
        VREX_ASSERT(g.rowBegin == next_row && g.rowEnd >= g.rowBegin &&
                        g.rowEnd <= a.rows(),
                    "grouped matmulT groups must tile the rows");
        next_row = g.rowEnd;
        if (g.rowEnd > g.rowBegin)
            gemmRows(a.row(g.rowBegin), a.cols(), g.rowEnd - g.rowBegin,
                     g.bT->raw(), g.bT->cols(), g.bT->rows(), a.cols(),
                     out.row(g.rowBegin), out.cols());
    }
    VREX_ASSERT(next_row == a.rows(),
                "grouped matmulT groups must cover every row");
}

void
matmulTransposed(const Matrix &a, const Matrix &bT, Matrix &out)
{
    matmulTransposedGrouped(a, {{0, a.rows(), &bT}}, out);
}

void
softmax(float *row, uint32_t n)
{
    if (n == 0)
        return;
    float mx = row[0];
    for (uint32_t i = 1; i < n; ++i)
        mx = std::max(mx, row[i]);
    if (mx == -std::numeric_limits<float>::infinity()) {
        // Fully masked row (all -inf): exp(-inf - -inf) would turn
        // every entry into NaN and the sum<=0 guard below cannot
        // catch NaN. Contract: a fully masked row is uniform.
        const float u = 1.0f / static_cast<float>(n);
        for (uint32_t i = 0; i < n; ++i)
            row[i] = u;
        return;
    }
    float sum = 0.0f;
    for (uint32_t i = 0; i < n; ++i) {
        row[i] = std::exp(row[i] - mx);
        sum += row[i];
    }
    if (sum <= 0.0f)
        return;
    float inv = 1.0f / sum;
    for (uint32_t i = 0; i < n; ++i)
        row[i] *= inv;
}

void
softmaxRows(Matrix &m)
{
    for (uint32_t r = 0; r < m.rows(); ++r)
        softmax(m.row(r), m.cols());
}

void
rmsNorm(float *x, const float *weight, uint32_t n, float eps)
{
    double ss = 0.0;
    for (uint32_t i = 0; i < n; ++i)
        ss += double(x[i]) * x[i];
    float scale = 1.0f /
        std::sqrt(static_cast<float>(ss / n) + eps);
    for (uint32_t i = 0; i < n; ++i)
        x[i] = x[i] * scale * weight[i];
}

void
silu(float *x, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        x[i] = x[i] / (1.0f + std::exp(-x[i]));
}

void
hadamard(float *x, const float *y, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        x[i] *= y[i];
}

void
addInPlace(float *x, const float *y, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i)
        x[i] += y[i];
}

void
ropeAngles(uint32_t dim, uint32_t pos, float thetaBase, float *c,
           float *s)
{
    VREX_ASSERT(dim % 2 == 0, "RoPE needs an even head dimension");
    for (uint32_t i = 0; i < dim / 2; ++i) {
        float freq = std::pow(thetaBase,
                              -2.0f * static_cast<float>(i) / dim);
        float angle = static_cast<float>(pos) * freq;
        c[i] = std::cos(angle);
        s[i] = std::sin(angle);
    }
}

void
applyRopeAngles(float *head, uint32_t dim, const float *c,
                const float *s)
{
    VREX_ASSERT(dim % 2 == 0, "RoPE needs an even head dimension");
    const uint32_t half = dim / 2;
    for (uint32_t i = 0; i < half; ++i) {
        float x0 = head[i];
        float x1 = head[i + half];
        head[i] = x0 * c[i] - x1 * s[i];
        head[i + half] = x0 * s[i] + x1 * c[i];
    }
}

void
applyRopeInverse(float *head, uint32_t dim, uint32_t pos,
                 float thetaBase)
{
    VREX_ASSERT(dim % 2 == 0, "RoPE needs an even head dimension");
    const uint32_t half = dim / 2;
    for (uint32_t i = 0; i < half; ++i) {
        float freq = std::pow(thetaBase,
                              -2.0f * static_cast<float>(i) / dim);
        float angle = -static_cast<float>(pos) * freq;
        float c = std::cos(angle), s = std::sin(angle);
        float x0 = head[i];
        float x1 = head[i + half];
        head[i] = x0 * c - x1 * s;
        head[i + half] = x0 * s + x1 * c;
    }
}

float
norm2(const float *a, uint32_t n)
{
    return std::sqrt(dot(a, a, n));
}

float
cosineSimilarity(const float *a, const float *b, uint32_t n)
{
    float na = norm2(a, n), nb = norm2(b, n);
    if (na <= 0.0f || nb <= 0.0f)
        return 0.0f;
    return dot(a, b, n) / (na * nb);
}

std::vector<uint32_t>
topkIndices(const std::vector<float> &scores, uint32_t k)
{
    std::vector<uint32_t> idx(scores.size());
    std::iota(idx.begin(), idx.end(), 0u);
    k = std::min<uint32_t>(k, static_cast<uint32_t>(scores.size()));
    std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                      [&](uint32_t a, uint32_t b) {
                          if (scores[a] != scores[b])
                              return scores[a] > scores[b];
                          return a < b;
                      });
    idx.resize(k);
    return idx;
}

} // namespace vrex
