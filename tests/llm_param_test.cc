/**
 * @file
 * Parameterized sweeps of the LLM runtime across attention
 * geometries (MHA / GQA / MQA) and block sizes: the runtime must be
 * correct for any head grouping, and sparse selection must converge
 * to full attention as the selection approaches the full set.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "llm/attention.hh"
#include "llm/model.hh"
#include "retrieval/oaken.hh"
#include "testutil.hh"

using namespace vrex;

namespace
{

ModelConfig
makeConfig(uint32_t n_heads, uint32_t n_kv_heads, uint32_t head_dim)
{
    ModelConfig c;
    c.name = "sweep";
    c.nLayers = 2;
    c.nHeads = n_heads;
    c.nKvHeads = n_kv_heads;
    c.dModel = n_heads * head_dim;
    c.ffnDim = 2 * c.dModel;
    c.vocabSize = 64;
    return c;
}

} // namespace

class GqaGeometry
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, uint32_t>>
{
};

TEST_P(GqaGeometry, ModelRunsAndSelectsAll)
{
    auto [heads, kv_heads, head_dim] = GetParam();
    ModelConfig cfg = makeConfig(heads, kv_heads, head_dim);
    Model model(cfg, 42);
    Rng rng(1);
    Matrix frame(3, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    model.prefillFrame(frame, 0);
    const BlockStats stats = model.prefillFrame(frame, 1);
    EXPECT_EQ(model.cache().tokenCount(), 6u);
    auto ids = testutil::greedyDecode(model, 2);
    EXPECT_EQ(ids.size(), 2u);
    EXPECT_EQ(stats.selectedPerHead[0].size(), kv_heads);
}

TEST_P(GqaGeometry, SparseFullSelectionMatchesDense)
{
    auto [heads, kv_heads, head_dim] = GetParam();
    ModelConfig cfg = makeConfig(heads, kv_heads, head_dim);
    KVCache kv(cfg);
    Rng rng(2);
    testutil::fillLayer(kv, cfg, 5, rng);

    Matrix q = testutil::randomMatrix(rng, 2, heads * head_dim);

    LayerSelection all_explicit;
    all_explicit.kvHeads.resize(kv_heads);
    for (auto &h : all_explicit.kvHeads) {
        h.selectAll = false;
        for (uint32_t t = 0; t < 3; ++t)
            h.indices.push_back(t);
    }
    Matrix dense, sparse;
    attentionForward(cfg, q, {{&kv.layer(0), 3, nullptr, 2}}, dense);
    attentionForward(cfg, q, {{&kv.layer(0), 3, &all_explicit, 2}},
                     sparse);
    for (uint32_t i = 0; i < dense.size(); ++i)
        EXPECT_NEAR(dense.raw()[i], sparse.raw()[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GqaGeometry,
    ::testing::Values(std::make_tuple(4u, 4u, 8u),    // MHA.
                      std::make_tuple(8u, 4u, 8u),    // GQA 2:1.
                      std::make_tuple(8u, 2u, 16u),   // GQA 4:1.
                      std::make_tuple(8u, 1u, 8u),    // MQA.
                      std::make_tuple(16u, 4u, 4u))); // GQA 4:1 wide.

class BlockSizes : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BlockSizes, SplitPrefillMatchesJointPrefill)
{
    // Iterative prefill invariant: feeding one block of 2N tokens or
    // two blocks of N tokens yields the same cache and final state.
    const uint32_t n = GetParam();
    ModelConfig cfg = ModelConfig::tiny();
    Rng rng(3);
    Matrix big(2 * n, cfg.dModel);
    rng.fillGaussian(big.raw(), big.size(), 1.0f);
    Matrix first(n, cfg.dModel), second(n, cfg.dModel);
    for (uint32_t t = 0; t < n; ++t) {
        std::copy_n(big.row(t), cfg.dModel, first.row(t));
        std::copy_n(big.row(n + t), cfg.dModel, second.row(t));
    }

    Model joint(cfg, 42), split(cfg, 42);
    joint.forwardBlock(big, 0, TokenStage::VideoFrame);
    split.forwardBlock(first, 0, TokenStage::VideoFrame);
    split.forwardBlock(second, 0, TokenStage::VideoFrame);

    ASSERT_EQ(joint.cache().tokenCount(), split.cache().tokenCount());
    const Matrix &jk = joint.cache().layer(cfg.nLayers - 1).keys;
    const Matrix &sk = split.cache().layer(cfg.nLayers - 1).keys;
    for (uint32_t i = 0; i < jk.size(); ++i)
        EXPECT_NEAR(jk.raw()[i], sk.raw()[i], 1e-3f);
    for (uint32_t d = 0; d < cfg.dModel; ++d)
        EXPECT_NEAR(joint.lastHidden()[d], split.lastHidden()[d],
                    1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockSizes,
                         ::testing::Values(1u, 2u, 4u, 8u));

class OakenGroups : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(OakenGroups, ErrorShrinksWithSmallerGroups)
{
    OakenConfig small_cfg, big_cfg;
    small_cfg.groupSize = GetParam();
    big_cfg.groupSize = GetParam() * 4;
    Rng rng(4);
    Matrix a(16, 128), b(16, 128);
    rng.fillGaussian(a.raw(), a.size(), 1.0f);
    std::copy_n(a.raw(), a.size(), b.raw());
    double err_small = oakenRoundTrip(a, small_cfg);
    double err_big = oakenRoundTrip(b, big_cfg);
    EXPECT_LE(err_small, err_big * 1.05);
    // And smaller groups cost more metadata.
    EXPECT_GT(small_cfg.bytesPerElem(), big_cfg.bytesPerElem());
}

INSTANTIATE_TEST_SUITE_P(Groups, OakenGroups,
                         ::testing::Values(8u, 16u, 32u));
