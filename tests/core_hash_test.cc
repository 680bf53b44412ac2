/**
 * @file
 * Unit + property tests for hash-bit generation (SimHash encoder) and
 * the HC table's incremental Hamming clustering.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "core/hash_encoder.hh"
#include "core/hc_table.hh"
#include "common/stats.hh"
#include "tensor/ops.hh"

using namespace vrex;

TEST(HashEncoder, DeterministicAndShaped)
{
    HashEncoder e1(32, 16, 7), e2(32, 16, 7);
    std::vector<float> key(32);
    Rng rng(1);
    rng.fillGaussian(key.data(), key.size(), 1.0f);
    EXPECT_EQ(e1.encode(key.data()), e2.encode(key.data()));
    EXPECT_EQ(e1.encode(key.data()).size(), 16u);
    EXPECT_EQ(e1.bits(), 16u);
    EXPECT_EQ(e1.keyDim(), 32u);
}

TEST(HashEncoder, OppositeVectorsMaxDistance)
{
    HashEncoder enc(16, 32, 7);
    std::vector<float> a(16), b(16);
    Rng rng(2);
    rng.fillGaussian(a.data(), a.size(), 1.0f);
    for (size_t i = 0; i < a.size(); ++i)
        b[i] = -a[i];
    // Antipodal points flip every hyperplane sign.
    EXPECT_EQ(enc.encode(a.data()).hamming(enc.encode(b.data())),
              32u);
}

TEST(HashEncoder, IdenticalVectorsZeroDistance)
{
    HashEncoder enc(16, 32, 7);
    std::vector<float> a(16);
    Rng rng(3);
    rng.fillGaussian(a.data(), a.size(), 1.0f);
    EXPECT_EQ(enc.encode(a.data()).hamming(enc.encode(a.data())), 0u);
}

TEST(HashEncoder, ScaleInvariant)
{
    HashEncoder enc(16, 32, 7);
    std::vector<float> a(16), b(16);
    Rng rng(4);
    rng.fillGaussian(a.data(), a.size(), 1.0f);
    for (size_t i = 0; i < a.size(); ++i)
        b[i] = 3.5f * a[i];
    EXPECT_EQ(enc.encode(a.data()).hamming(enc.encode(b.data())), 0u);
}

TEST(HashEncoder, EncodeRowsMatchesEncode)
{
    HashEncoder enc(8, 16, 7);
    Matrix keys(4, 8);
    Rng rng(5);
    rng.fillGaussian(keys.raw(), keys.size(), 1.0f);
    auto sigs = enc.encodeRows(keys);
    ASSERT_EQ(sigs.size(), 4u);
    for (uint32_t r = 0; r < 4; ++r)
        EXPECT_EQ(sigs[r], enc.encode(keys.row(r)));
}

/**
 * The SimHash property the paper's Fig. 7b measures: Hamming distance
 * correlates strongly (negatively) with cosine similarity. The paper
 * reports |rho| ~ 0.8 on COIN keys with N_hp = 32.
 */
TEST(HashEncoder, HammingTracksCosineSimilarity)
{
    const uint32_t dim = 64, bits = 32;
    HashEncoder enc(dim, bits, 7);
    Rng rng(6);

    std::vector<double> cosines, distances;
    std::vector<float> base(dim);
    rng.fillGaussian(base.data(), dim, 1.0f);
    for (int i = 0; i < 400; ++i) {
        // Mix of near and far vectors.
        std::vector<float> other(dim);
        double alpha = rng.uniform();
        for (uint32_t d = 0; d < dim; ++d) {
            other[d] = static_cast<float>(
                alpha * base[d] +
                (1.0 - alpha) * rng.gaussian());
        }
        cosines.push_back(
            cosineSimilarity(base.data(), other.data(), dim));
        distances.push_back(
            enc.encode(base.data()).hamming(enc.encode(other.data())));
    }
    double rho = pearson(cosines, distances);
    EXPECT_LT(rho, -0.7);  // Strong negative correlation.
}

TEST(HCTable, FirstInsertCreatesCluster)
{
    HCTable tab(4, 8, 2);
    float key[4] = {1, 0, 0, 0};
    BitSig sig(8);
    EXPECT_EQ(tab.insert(0, key, sig), 0u);
    EXPECT_EQ(tab.clusterCount(), 1u);
    EXPECT_EQ(tab.tokenCount(), 1u);
    EXPECT_EQ(tab.tokens(0)[0], 0u);
}

TEST(HCTable, CloseSignaturesJoin)
{
    HCTable tab(2, 8, 2);
    float key[2] = {1, 1};
    BitSig a(8), b(8);
    b.set(0, true);  // Distance 1 <= threshold 2.
    tab.insert(0, key, a);
    EXPECT_EQ(tab.insert(1, key, b), 0u);
    EXPECT_EQ(tab.clusterCount(), 1u);
    EXPECT_EQ(tab.clusterSize(0), 2u);
}

TEST(HCTable, FarSignaturesSplit)
{
    HCTable tab(2, 8, 2);
    float key[2] = {1, 1};
    BitSig a(8), b(8);
    for (uint32_t i = 0; i < 6; ++i)
        b.set(i, true);  // Distance 6 > threshold 2.
    tab.insert(0, key, a);
    EXPECT_EQ(tab.insert(1, key, b), 1u);
    EXPECT_EQ(tab.clusterCount(), 2u);
}

TEST(HCTable, CentroidIsRunningMean)
{
    HCTable tab(2, 8, 8);  // Generous threshold: all join.
    BitSig sig(8);
    float k1[2] = {1.0f, 0.0f};
    float k2[2] = {3.0f, 2.0f};
    tab.insert(0, k1, sig);
    tab.insert(1, k2, sig);
    EXPECT_NEAR(tab.centroid(0)[0], 2.0f, 1e-6f);
    EXPECT_NEAR(tab.centroid(0)[1], 1.0f, 1e-6f);
}

TEST(HCTable, MajoritySignatureUpdates)
{
    HCTable tab(1, 4, 4);
    float key[1] = {0.0f};
    BitSig zero(4), one(4);
    for (uint32_t i = 0; i < 4; ++i)
        one.set(i, true);
    tab.insert(0, key, zero);
    tab.insert(1, key, one);
    tab.insert(2, key, one);
    // Majority of {0000, 1111, 1111} = 1111.
    ASSERT_EQ(tab.sigWords(), 1u);
    EXPECT_EQ(tab.signature(0)[0], one.raw()[0]);
}

TEST(HCTable, TieBreakPrefersLowestCluster)
{
    HCTable tab(1, 8, 4);
    float key[1] = {0.0f};
    BitSig a(8), b(8);
    b.set(0, true);
    b.set(1, true);
    b.set(2, true);
    b.set(3, true);
    b.set(4, true);  // Distance 5 from a: separate cluster.
    tab.insert(0, key, a);
    tab.insert(1, key, b);
    ASSERT_EQ(tab.clusterCount(), 2u);
    // A sig equidistant from both clusters joins the first.
    BitSig mid(8);
    mid.set(0, true);
    mid.set(1, true);
    // d(mid, a) = 2, d(mid, b) = 3 -> joins cluster 0.
    EXPECT_EQ(tab.insert(2, key, mid), 0u);
}

TEST(HCTable, AvgClusterSizeAndMemory)
{
    HCTable tab(4, 8, 8);
    BitSig sig(8);
    float key[4] = {0, 0, 0, 0};
    for (uint32_t t = 0; t < 6; ++t)
        tab.insert(t, key, sig);
    EXPECT_DOUBLE_EQ(tab.avgClusterSize(), 6.0);
    EXPECT_GT(tab.memoryBytes(), 0u);
    EXPECT_GT(tab.hammingComparisons(), 0u);
    tab.clear();
    EXPECT_EQ(tab.clusterCount(), 0u);
    EXPECT_DOUBLE_EQ(tab.avgClusterSize(), 0.0);
}

/** Property: similar synthetic keys cluster far below 1 per token. */
TEST(HCTable, CompressesSimilarStreams)
{
    const uint32_t dim = 32;
    HashEncoder enc(dim, 32, 7);
    HCTable tab(dim, 32, 7);
    Rng rng(9);
    std::vector<float> base(dim);
    rng.fillGaussian(base.data(), dim, 1.0f);
    for (uint32_t t = 0; t < 200; ++t) {
        std::vector<float> key(dim);
        for (uint32_t d = 0; d < dim; ++d)
            key[d] = base[d] +
                static_cast<float>(rng.gaussian(0.0, 0.07));
        tab.insert(t, key.data(), enc.encode(key.data()));
    }
    EXPECT_GT(tab.avgClusterSize(), 4.0);
}

/** Property: unrelated keys mostly stay separate. */
TEST(HCTable, DoesNotMergeRandomStreams)
{
    const uint32_t dim = 32;
    HashEncoder enc(dim, 32, 4);
    HCTable tab(dim, 32, 4);
    Rng rng(10);
    for (uint32_t t = 0; t < 100; ++t) {
        std::vector<float> key(dim);
        rng.fillGaussian(key.data(), dim, 1.0f);
        tab.insert(t, key.data(), enc.encode(key.data()));
    }
    EXPECT_LT(tab.avgClusterSize(), 2.0);
}
