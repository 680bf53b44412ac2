/**
 * @file
 * Parameterized property tests for the tensor kernels: matmul shape
 * sweeps against naive and per-element dot() references, RoPE
 * round-trip/relative-position properties across dimensions and
 * positions, and softmax invariants.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "tensor/matrix.hh"
#include "tensor/ops.hh"

using namespace vrex;

namespace
{

/** RoPE at @p pos the way the decoder applies it: angles once, then
 *  the rotation. */
void
rope(float *head, uint32_t dim, uint32_t pos)
{
    std::vector<float> c(dim / 2), s(dim / 2);
    ropeAngles(dim, pos, 10000.0f, c.data(), s.data());
    applyRopeAngles(head, dim, c.data(), s.data());
}


Matrix
randomMatrix(uint32_t r, uint32_t c, uint64_t seed)
{
    Matrix m(r, c);
    Rng rng(seed);
    rng.fillGaussian(m.raw(), m.size(), 1.0f);
    return m;
}

/** Naive triple-loop reference matmul. */
Matrix
naiveMatmul(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.cols());
    for (uint32_t i = 0; i < a.rows(); ++i)
        for (uint32_t j = 0; j < b.cols(); ++j) {
            double s = 0.0;
            for (uint32_t k = 0; k < a.cols(); ++k)
                s += double(a.at(i, k)) * b.at(k, j);
            out.at(i, j) = static_cast<float>(s);
        }
    return out;
}

/** b^T of @p b. */
Matrix
transposed(const Matrix &b)
{
    Matrix t(b.cols(), b.rows());
    for (uint32_t r = 0; r < b.rows(); ++r)
        for (uint32_t c = 0; c < b.cols(); ++c)
            t.at(c, r) = b.at(r, c);
    return t;
}

/** The grouped kernel's contract, element by element: out[i][j] is
 *  one dot() of a's row i and row j of row i's group weights. */
void
expectEqualsDotReference(const Matrix &a,
                         const std::vector<RowGroup> &groups,
                         const Matrix &out)
{
    for (const RowGroup &g : groups) {
        ASSERT_EQ(out.cols(), g.bT->rows());
        for (uint32_t r = g.rowBegin; r < g.rowEnd; ++r)
            for (uint32_t c = 0; c < g.bT->rows(); ++c)
                EXPECT_EQ(out.at(r, c), dot(a.row(r), g.bT->row(c), a.cols()))
                    << "row " << r << " col " << c;
    }
}

} // namespace

class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatmulShapes, MatchesNaiveReference)
{
    auto [m, k, n] = GetParam();
    Matrix a = randomMatrix(m, k, 1000 + m);
    Matrix b = randomMatrix(k, n, 2000 + n);
    Matrix fast;
    matmulTransposed(a, transposed(b), fast);
    Matrix slow = naiveMatmul(a, b);
    ASSERT_TRUE(fast.sameShape(slow));
    for (uint32_t i = 0; i < fast.size(); ++i)
        EXPECT_NEAR(fast.raw()[i], slow.raw()[i],
                    1e-3f * (1.0f + std::abs(slow.raw()[i])));
}

TEST_P(MatmulShapes, TransposedVariantAgrees)
{
    // Bit-exact against one dot() per output element.
    auto [m, k, n] = GetParam();
    Matrix a = randomMatrix(m, k, 3000 + m);
    Matrix bT = randomMatrix(n, k, 4000 + n);
    Matrix out;
    matmulTransposed(a, bT, out);
    ASSERT_EQ(out.rows(), a.rows());
    expectEqualsDotReference(
        a, {{0, static_cast<uint32_t>(m), &bT}}, out);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(1, 17, 3),
                      std::make_tuple(5, 8, 13),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(7, 33, 2),
                      std::make_tuple(32, 5, 40),
                      std::make_tuple(3, 64, 64)));

class RopeDims : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(RopeDims, InverseRoundTrip)
{
    const uint32_t dim = GetParam();
    Rng rng(7);
    std::vector<float> head(dim), orig(dim);
    rng.fillGaussian(head.data(), dim, 1.0f);
    orig = head;
    for (uint32_t pos : {0u, 1u, 17u, 900u}) {
        std::vector<float> work = orig;
        rope(work.data(), dim, pos);
        applyRopeInverse(work.data(), dim, pos);
        for (uint32_t d = 0; d < dim; ++d)
            EXPECT_NEAR(work[d], orig[d], 2e-4f)
                << "dim=" << dim << " pos=" << pos;
    }
}

TEST_P(RopeDims, NormPreservedAtAnyPosition)
{
    const uint32_t dim = GetParam();
    Rng rng(8);
    std::vector<float> head(dim);
    rng.fillGaussian(head.data(), dim, 1.0f);
    const float before = norm2(head.data(), dim);
    for (uint32_t pos : {3u, 111u, 4096u}) {
        std::vector<float> work = head;
        rope(work.data(), dim, pos);
        EXPECT_NEAR(norm2(work.data(), dim), before, 2e-3f);
    }
}

TEST_P(RopeDims, RelativePositionProperty)
{
    const uint32_t dim = GetParam();
    Rng rng(9);
    std::vector<float> q(dim), k(dim);
    rng.fillGaussian(q.data(), dim, 1.0f);
    rng.fillGaussian(k.data(), dim, 1.0f);
    auto dot_at = [&](uint32_t pq, uint32_t pk) {
        std::vector<float> qq = q, kk = k;
        rope(qq.data(), dim, pq);
        rope(kk.data(), dim, pk);
        return dot(qq.data(), kk.data(), dim);
    };
    EXPECT_NEAR(dot_at(12, 4), dot_at(112, 104), 5e-3f);
    EXPECT_NEAR(dot_at(40, 40), dot_at(7, 7), 5e-3f);
}

INSTANTIATE_TEST_SUITE_P(Dims, RopeDims,
                         ::testing::Values(2u, 8u, 16u, 32u, 64u,
                                           128u));

class SoftmaxSizes : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(SoftmaxSizes, SumsToOneAndOrderPreserving)
{
    const uint32_t n = GetParam();
    Rng rng(10 + n);
    std::vector<float> row(n);
    rng.fillGaussian(row.data(), n, 3.0f);
    std::vector<float> before = row;
    softmax(row.data(), n);
    float sum = 0.0f;
    for (float v : row)
        sum += v;
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
    for (uint32_t i = 1; i < n; ++i) {
        if (before[i] > before[i - 1])
            EXPECT_GE(row[i], row[i - 1]);
        else
            EXPECT_LE(row[i], row[i - 1] + 1e-7f);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoftmaxSizes,
                         ::testing::Values(1u, 2u, 5u, 64u, 511u));

// Regression: a fully masked row (every score -inf, as a selection
// policy that drops all past tokens would produce) used to become
// all-NaN — exp(-inf - -inf) — and the NaN slipped past the
// `sum <= 0` renormalization guard. The contract is now uniform.
TEST_P(SoftmaxSizes, FullyMaskedRowIsUniformNotNaN)
{
    const uint32_t n = GetParam();
    const float ninf = -std::numeric_limits<float>::infinity();
    std::vector<float> row(n, ninf);
    softmax(row.data(), n);
    for (uint32_t i = 0; i < n; ++i)
        EXPECT_FLOAT_EQ(row[i], 1.0f / static_cast<float>(n)) << i;
}

TEST(SoftmaxMasked, PartiallyMaskedRowIgnoresMaskedEntries)
{
    const float ninf = -std::numeric_limits<float>::infinity();
    std::vector<float> row = {ninf, 0.0f, ninf, 0.0f};
    softmax(row.data(), 4);
    EXPECT_FLOAT_EQ(row[0], 0.0f);
    EXPECT_FLOAT_EQ(row[2], 0.0f);
    EXPECT_FLOAT_EQ(row[1], 0.5f);
    EXPECT_FLOAT_EQ(row[3], 0.5f);
}

TEST(SoftmaxMasked, SoftmaxRowsHandlesMixedMaskedRows)
{
    const float ninf = -std::numeric_limits<float>::infinity();
    Matrix m(2, 3);
    m.at(0, 0) = ninf;
    m.at(0, 1) = ninf;
    m.at(0, 2) = ninf;
    m.at(1, 0) = 1.0f;
    m.at(1, 1) = 1.0f;
    m.at(1, 2) = ninf;
    softmaxRows(m);
    for (uint32_t j = 0; j < 3; ++j)
        EXPECT_FLOAT_EQ(m.at(0, j), 1.0f / 3.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 0.5f);
    EXPECT_FLOAT_EQ(m.at(1, 1), 0.5f);
    EXPECT_FLOAT_EQ(m.at(1, 2), 0.0f);
}

// The one dense kernel: every output element of the grouped matmul
// is exactly one dot() of its row and its group's weight row — the
// property that keeps a batched row independent of its peers.
TEST(MatmulGrouped, BitIdenticalToPerGroupTransposed)
{
    const uint32_t k = 24, n = 10;
    Matrix a = randomMatrix(7, k, 501);
    Matrix w0 = randomMatrix(n, k, 502);
    Matrix w1 = randomMatrix(n, k, 503);
    // Four groups over two distinct weight matrices (a shared one
    // reappearing, as equal-seed sessions produce), one empty.
    std::vector<RowGroup> groups = {
        {0, 3, &w0}, {3, 4, &w1}, {4, 4, &w1}, {4, 7, &w0}};
    Matrix fused;
    matmulTransposedGrouped(a, groups, fused);
    ASSERT_EQ(fused.rows(), 7u);
    ASSERT_EQ(fused.cols(), n);
    expectEqualsDotReference(a, groups, fused);
}

TEST(MatmulGrouped, SingleGroupMatchesMatmulTransposedExactly)
{
    Matrix a = randomMatrix(5, 16, 601);
    Matrix w = randomMatrix(9, 16, 602);
    Matrix fused, solo;
    matmulTransposedGrouped(a, {{0, 5, &w}}, fused);
    matmulTransposed(a, w, solo);
    ASSERT_TRUE(fused.sameShape(solo));
    for (uint32_t i = 0; i < fused.size(); ++i)
        EXPECT_EQ(fused.raw()[i], solo.raw()[i]) << i;
}

TEST(MatmulGroupedDeathTest, RejectsGappyOrShortTiling)
{
    Matrix a = randomMatrix(4, 8, 701);
    Matrix w = randomMatrix(3, 8, 702);
    Matrix out;
    EXPECT_DEATH(
        matmulTransposedGrouped(a, {{0, 2, &w}, {3, 4, &w}}, out),
        "tile");
    EXPECT_DEATH(matmulTransposedGrouped(a, {{0, 3, &w}}, out),
                 "cover every row");
    Matrix bad = randomMatrix(3, 9, 703); // Wrong inner dim.
    EXPECT_DEATH(
        matmulTransposedGrouped(a, {{0, 4, &bad}}, out), "");
}
