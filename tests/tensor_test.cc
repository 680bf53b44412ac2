/**
 * @file
 * Unit tests for the tensor kernels: matmulTransposed, softmax,
 * RMSNorm, SiLU, RoPE, similarity and top-k.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

} // namespace

TEST(Matrix, ShapeAndAccess)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    m.at(1, 2) = 5.0f;
    EXPECT_EQ(m.at(1, 2), 5.0f);
    EXPECT_EQ(m.row(1)[2], 5.0f);
}

TEST(Matrix, AppendRow)
{
    Matrix m(0, 3);
    float row[3] = {1, 2, 3};
    m.appendRow(row);
    m.appendRow(row);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.at(1, 0), 1.0f);
}

TEST(Matrix, Fill)
{
    Matrix m(2, 2);
    m.fill(7.0f);
    for (uint32_t r = 0; r < 2; ++r)
        for (uint32_t c = 0; c < 2; ++c)
            EXPECT_EQ(m.at(r, c), 7.0f);
}

TEST(Ops, MatmulIdentity)
{
    Matrix a(2, 2), eye(2, 2), out;
    a.at(0, 0) = 1; a.at(0, 1) = 2;
    a.at(1, 0) = 3; a.at(1, 1) = 4;
    eye.at(0, 0) = 1; eye.at(1, 1) = 1;
    matmulTransposed(a, eye, out);
    EXPECT_TRUE(out.sameShape(a));
    EXPECT_EQ(out.at(0, 1), 2.0f);
    EXPECT_EQ(out.at(1, 0), 3.0f);
}

TEST(Ops, MatmulKnownValues)
{
    Matrix a(1, 3), bT(2, 3), out;
    for (uint32_t i = 0; i < 3; ++i)
        a.at(0, i) = static_cast<float>(i + 1);
    // b = [[1,2],[3,4],[5,6]], stored transposed.
    float vals[6] = {1, 3, 5, 2, 4, 6};
    std::copy(vals, vals + 6, bT.raw());
    matmulTransposed(a, bT, out);
    EXPECT_EQ(out.at(0, 0), 22.0f);  // 1*1+2*3+3*5.
    EXPECT_EQ(out.at(0, 1), 28.0f);
}

TEST(Ops, MatmulTransposedMatchesMatmul)
{
    Matrix a(3, 4), b(4, 5), bT(5, 4), out;
    for (uint32_t i = 0; i < a.size(); ++i)
        a.raw()[i] = static_cast<float>(i) * 0.25f - 1.0f;
    for (uint32_t r = 0; r < 4; ++r)
        for (uint32_t c = 0; c < 5; ++c) {
            b.at(r, c) = static_cast<float>(r * 5 + c) * 0.1f;
            bT.at(c, r) = b.at(r, c);
        }
    matmulTransposed(a, bT, out);
    ASSERT_EQ(out.rows(), 3u);
    ASSERT_EQ(out.cols(), 5u);
    // Against the plain a * b product.
    for (uint32_t i = 0; i < 3; ++i)
        for (uint32_t j = 0; j < 5; ++j) {
            float ref = 0.0f;
            for (uint32_t p = 0; p < 4; ++p)
                ref += a.at(i, p) * b.at(p, j);
            EXPECT_NEAR(out.at(i, j), ref, 1e-4f);
        }
}

TEST(Ops, SoftmaxSumsToOne)
{
    float row[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    softmax(row, 4);
    float sum = 0.0f;
    for (float v : row)
        sum += v;
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_GT(row[3], row[0]);
}

TEST(Ops, SoftmaxStableForLargeInputs)
{
    float row[2] = {1000.0f, 1001.0f};
    softmax(row, 2);
    EXPECT_NEAR(row[0] + row[1], 1.0f, 1e-6f);
    EXPECT_FALSE(std::isnan(row[0]));
}

TEST(Ops, SoftmaxUniform)
{
    float row[5] = {2, 2, 2, 2, 2};
    softmax(row, 5);
    for (float v : row)
        EXPECT_NEAR(v, 0.2f, 1e-6f);
}

TEST(Ops, RmsNormUnitOutput)
{
    float x[4] = {3.0f, -3.0f, 3.0f, -3.0f};
    float w[4] = {1.0f, 1.0f, 1.0f, 1.0f};
    rmsNorm(x, w, 4);
    // RMS of the output should be ~1.
    float ss = 0.0f;
    for (float v : x)
        ss += v * v;
    EXPECT_NEAR(std::sqrt(ss / 4.0f), 1.0f, 1e-3f);
}

TEST(Ops, RmsNormAppliesGain)
{
    float x[2] = {1.0f, 1.0f};
    float w[2] = {2.0f, 0.5f};
    rmsNorm(x, w, 2);
    EXPECT_NEAR(x[0] / x[1], 4.0f, 1e-4f);
}

TEST(Ops, Silu)
{
    float x[3] = {0.0f, 10.0f, -10.0f};
    silu(x, 3);
    EXPECT_EQ(x[0], 0.0f);
    EXPECT_NEAR(x[1], 10.0f, 1e-3f);
    EXPECT_NEAR(x[2], 0.0f, 1e-3f);
}

TEST(Ops, HadamardAndAdd)
{
    float x[3] = {1, 2, 3}, y[3] = {2, 3, 4};
    hadamard(x, y, 3);
    EXPECT_EQ(x[1], 6.0f);
    addInPlace(x, y, 3);
    EXPECT_EQ(x[1], 9.0f);
}

TEST(Ops, RopePreservesNorm)
{
    float head[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    float before = norm2(head, 8);
    rope(head, 8, 17);
    EXPECT_NEAR(norm2(head, 8), before, 1e-4f);
}

TEST(Ops, RopeIdentityAtPositionZero)
{
    float head[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    float copy[8];
    std::copy(head, head + 8, copy);
    rope(head, 8, 0);
    for (int i = 0; i < 8; ++i)
        EXPECT_NEAR(head[i], copy[i], 1e-6f);
}

TEST(Ops, RopeRelativePropertyDotDependsOnDistance)
{
    // q at position p and k at position p+d: dot depends only on d.
    float q[8] = {1, 0.5f, -1, 2, 0.3f, -0.7f, 1.1f, 0.9f};
    float k[8] = {0.2f, 1, 0.7f, -0.5f, 1.3f, 0.1f, -0.2f, 0.8f};

    auto dot_at = [&](uint32_t pq, uint32_t pk) {
        float qq[8], kk[8];
        std::copy(q, q + 8, qq);
        std::copy(k, k + 8, kk);
        rope(qq, 8, pq);
        rope(kk, 8, pk);
        return dot(qq, kk, 8);
    };
    EXPECT_NEAR(dot_at(5, 2), dot_at(25, 22), 1e-3f);
    EXPECT_NEAR(dot_at(10, 10), dot_at(3, 3), 1e-3f);
}

// dot()'s contract is the canonical 8-lane order, not a running sum.
// These inputs round differently under the two, and the expected
// value is the lane sums and fixed tree written out by hand, so the
// order cannot drift without this test noticing.
TEST(Ops, DotFollowsCanonicalEightLaneOrder)
{
    // n = 11: one full block plus a ragged tail of three.
    const float a[11] = {1e8f, 1, 1, 1, -1e8f, 1, 1, 1, 1, 1, 1};
    const float b[11] = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};

    float seq = 0.0f;
    for (int i = 0; i < 11; ++i)
        seq += a[i] * b[i];

    // Lanes: s_l = a[l] * b[l], then the tail adds a[8 + l] * b[8 + l]
    // into lanes 0..2.
    const float s0 = 1e8f + 1.0f, s1 = 1.0f + 1.0f, s2 = 1.0f + 1.0f;
    const float s3 = 1.0f, s4 = -1e8f, s5 = 1.0f, s6 = 1.0f, s7 = 1.0f;
    const float tree = ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7));

    // Sequentially the three 1s added onto 1e8 are absorbed; in lanes
    // only the tail's 1 in lane 0 is.
    EXPECT_EQ(seq, 6.0f);
    EXPECT_EQ(tree, 8.0f);
    EXPECT_EQ(dot(a, b, 11), tree);
    EXPECT_EQ(detail::dotF32Scalar(a, b, 11), tree);

    // The tree, not a left-to-right fold of the lanes: with the big
    // pair in lanes 0 and 1, a fold cancels it first and keeps the
    // ones (6), while the tree adds ones onto each big lane and loses
    // them (0).
    const float c[8] = {1e8f, -1e8f, 1, 1, 1, 1, 1, 1};
    const float lanes = ((c[0] + c[4]) + (c[2] + c[6])) +
        ((c[1] + c[5]) + (c[3] + c[7]));
    float fold = 0.0f;
    for (float x : c)
        fold += x;
    EXPECT_NE(lanes, fold);
    EXPECT_EQ(dot(c, b, 8), lanes);
}

TEST(Ops, CosineSimilarity)
{
    float a[3] = {1, 0, 0}, b[3] = {0, 1, 0}, c[3] = {2, 0, 0};
    EXPECT_NEAR(cosineSimilarity(a, b, 3), 0.0f, 1e-6f);
    EXPECT_NEAR(cosineSimilarity(a, c, 3), 1.0f, 1e-6f);
    float z[3] = {0, 0, 0};
    EXPECT_EQ(cosineSimilarity(a, z, 3), 0.0f);
}

TEST(Ops, TopkIndices)
{
    std::vector<float> scores = {0.1f, 0.9f, 0.5f, 0.7f};
    auto top2 = topkIndices(scores, 2);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0], 1u);
    EXPECT_EQ(top2[1], 3u);
}

TEST(Ops, TopkClampsK)
{
    std::vector<float> scores = {0.3f, 0.1f};
    auto top = topkIndices(scores, 10);
    EXPECT_EQ(top.size(), 2u);
}

TEST(Ops, TopkTiesStable)
{
    std::vector<float> scores = {0.5f, 0.5f, 0.5f};
    auto top = topkIndices(scores, 2);
    EXPECT_EQ(top[0], 0u);
    EXPECT_EQ(top[1], 1u);
}
