#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace vrex
{

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
        // Weight rows outer, batch row inner: streamed weight rows
        // serve every row of the group. Four weight rows at a time
        // give four independent sums, so the adds overlap instead of
        // waiting on one chain; each sum is still dot()'s sequential
        // sum, so every element keeps its bytes.
        const uint32_t n = a.cols(), m = g.bT->rows();
        uint32_t j = 0;
        for (; j + 4 <= m; j += 4) {
            const float *b0 = g.bT->row(j), *b1 = g.bT->row(j + 1),
                        *b2 = g.bT->row(j + 2), *b3 = g.bT->row(j + 3);
            for (uint32_t i = g.rowBegin; i < g.rowEnd; ++i) {
                const float *x = a.row(i);
                float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
                for (uint32_t k = 0; k < n; ++k) {
                    s0 += x[k] * b0[k];
                    s1 += x[k] * b1[k];
                    s2 += x[k] * b2[k];
                    s3 += x[k] * b3[k];
                }
                float *o = out.row(i) + j;
                o[0] = s0;
                o[1] = s1;
                o[2] = s2;
                o[3] = s3;
            }
        }
        for (; j < m; ++j)
            for (uint32_t i = g.rowBegin; i < g.rowEnd; ++i)
                out.row(i)[j] = dot(a.row(i), g.bT->row(j), n);
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
applyRope(float *head, uint32_t dim, uint32_t pos, float thetaBase)
{
    VREX_ASSERT(dim % 2 == 0, "RoPE needs an even head dimension");
    const uint32_t half = dim / 2;
    for (uint32_t i = 0; i < half; ++i) {
        float freq = std::pow(thetaBase,
                              -2.0f * static_cast<float>(i) / dim);
        float angle = static_cast<float>(pos) * freq;
        float c = std::cos(angle), s = std::sin(angle);
        float x0 = head[i];
        float x1 = head[i + half];
        head[i] = x0 * c - x1 * s;
        head[i + half] = x0 * s + x1 * c;
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
dot(const float *a, const float *b, uint32_t n)
{
    float s = 0.0f;
    for (uint32_t i = 0; i < n; ++i)
        s += a[i] * b[i];
    return s;
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
