/**
 * @file
 * Tests for the baseline retrieval policies (FlexGen, InfiniGen,
 * InfiniGenP, ReKV) and the Oaken int4 quantizer.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "llm/model.hh"
#include "retrieval/oaken.hh"
#include "retrieval/policies.hh"
#include "testutil.hh"

using namespace vrex;

namespace
{

std::vector<BlockStats>
streamFrames(Model &model, uint32_t frames, uint32_t tokens_per_frame,
             uint64_t seed)
{
    return testutil::streamRandomFrames(model, frames, tokens_per_frame,
                                        seed);
}

} // namespace

TEST(FlexGen, AlwaysSelectsAll)
{
    ModelConfig cfg = ModelConfig::tiny();
    FlexGenPolicy policy;
    Model model(cfg, 42);
    model.setPolicy(&policy);
    for (const auto &stats : streamFrames(model, 3, 4, 1))
        for (double r : stats.layerRatios)
            EXPECT_DOUBLE_EQ(r, 1.0);
    EXPECT_DOUBLE_EQ(policy.frameCounters().selectedRatio(), 1.0);
}

TEST(InfiniGen, NoSelectionDuringPrefill)
{
    ModelConfig cfg = ModelConfig::tiny();
    InfiniGenConfig ic;
    ic.ratio = 0.25f;
    InfiniGenPolicy policy(cfg, ic);
    Model model(cfg, 42);
    model.setPolicy(&policy);
    // Prefill stage: full attention (ratio 1).
    for (const auto &stats : streamFrames(model, 4, 4, 2)) {
        if (stats.pastLen > 0) {
            EXPECT_DOUBLE_EQ(stats.meanRatio(), 1.0);
        }
    }
}

TEST(InfiniGen, SelectsDuringGeneration)
{
    ModelConfig cfg = ModelConfig::tiny();
    InfiniGenConfig ic;
    ic.ratio = 0.25f;
    InfiniGenPolicy policy(cfg, ic);
    Model model(cfg, 42);
    model.setPolicy(&policy);
    streamFrames(model, 6, 4, 3);
    model.prefillText({1, 2});
    testutil::greedyDecode(model, 3);
    double gen_ratio = policy.textCounters().selectedRatio();
    EXPECT_LT(gen_ratio, 0.5);
    EXPECT_GT(gen_ratio, 0.0);
}

TEST(InfiniGenP, FixedRatioDuringPrefill)
{
    ModelConfig cfg = ModelConfig::tiny();
    InfiniGenConfig ic;
    ic.ratio = 0.5f;
    ic.prefill = true;
    InfiniGenPolicy policy(cfg, ic);
    Model model(cfg, 42);
    model.setPolicy(&policy);
    // Fixed top-k: every layer/head selects exactly ratio * past.
    const BlockStats stats = streamFrames(model, 6, 4, 4).back();
    EXPECT_NEAR(stats.meanRatio(), 0.5, 0.05);
    // And it is UNIFORM across layers (the inflexibility ReSV fixes).
    for (double r : stats.layerRatios)
        EXPECT_NEAR(r, stats.layerRatios[0], 1e-9);
}

TEST(InfiniGenP, PredictionCountsWork)
{
    ModelConfig cfg = ModelConfig::tiny();
    InfiniGenConfig ic;
    ic.prefill = true;
    InfiniGenPolicy policy(cfg, ic);
    Model model(cfg, 42);
    model.setPolicy(&policy);
    streamFrames(model, 4, 4, 5);
    EXPECT_GT(policy.frameCounters().predictionMacs, 0u);
}

TEST(ReKV, SelectsWholeFrames)
{
    ModelConfig cfg = ModelConfig::tiny();
    ReKVConfig rc;
    rc.ratio = 0.5f;
    ReKVPolicy policy(cfg, rc);
    Model model(cfg, 42);
    model.setPolicy(&policy);
    // Frame-granular: per-head selected counts are multiples of the
    // frame size (4), since no text tokens exist yet.
    const BlockStats stats = streamFrames(model, 6, 4, 6).back();
    for (const auto &per_head : stats.selectedPerHead)
        for (uint32_t count : per_head)
            EXPECT_EQ(count % 4, 0u);
}

TEST(ReKV, KeepsTextTokens)
{
    ModelConfig cfg = ModelConfig::tiny();
    ReKVConfig rc;
    rc.ratio = 0.3f;
    ReKVPolicy policy(cfg, rc);
    Model model(cfg, 42);
    model.setPolicy(&policy);
    streamFrames(model, 5, 4, 7);
    model.prefillText({1, 2, 3});
    testutil::greedyDecode(model, 1);
    // Generation over cache containing text: ratio > 0.
    EXPECT_GT(policy.textCounters().selectedRatio(), 0.0);
}

TEST(ReKV, RespectsBudgetApproximately)
{
    ModelConfig cfg = ModelConfig::tiny();
    ReKVConfig rc;
    rc.ratio = 0.5f;
    ReKVPolicy policy(cfg, rc);
    Model model(cfg, 42);
    model.setPolicy(&policy);
    streamFrames(model, 10, 4, 8);
    double ratio = policy.frameCounters().selectedRatio();
    // Whole-frame rounding can overshoot by up to one frame.
    EXPECT_GT(ratio, 0.3);
    EXPECT_LT(ratio, 0.75);
}

TEST(Policies, ResetClearsCounters)
{
    ModelConfig cfg = ModelConfig::tiny();
    InfiniGenConfig ic;
    ic.prefill = true;
    InfiniGenPolicy policy(cfg, ic);
    Model model(cfg, 42);
    model.setPolicy(&policy);
    streamFrames(model, 3, 4, 9);
    policy.reset();
    EXPECT_EQ(policy.frameCounters().selectCalls, 0u);
}

TEST(Oaken, QuantizeDequantizeBounds)
{
    OakenConfig cfg;
    Rng rng(10);
    std::vector<float> data(128);
    rng.fillGaussian(data.data(), data.size(), 2.0f);
    auto groups = oakenQuantize(data.data(), 128, cfg);
    auto rec = oakenDequantize(groups, 128, cfg);
    ASSERT_EQ(rec.size(), 128u);
    // Max error bounded by half a quantization step per group.
    for (size_t g = 0; g < groups.size(); ++g) {
        for (uint32_t i = 0; i < cfg.groupSize; ++i) {
            size_t idx = g * cfg.groupSize + i;
            EXPECT_NEAR(rec[idx], data[idx],
                        groups[g].scale * 0.51f);
        }
    }
}

TEST(Oaken, ConstantVectorExact)
{
    OakenConfig cfg;
    std::vector<float> data(64, 3.25f);
    auto groups = oakenQuantize(data.data(), 64, cfg);
    auto rec = oakenDequantize(groups, 64, cfg);
    for (float v : rec)
        EXPECT_FLOAT_EQ(v, 3.25f);
}

TEST(Oaken, PartialGroupHandled)
{
    OakenConfig cfg;
    cfg.groupSize = 32;
    std::vector<float> data(40);
    Rng rng(11);
    rng.fillGaussian(data.data(), data.size(), 1.0f);
    auto groups = oakenQuantize(data.data(), 40, cfg);
    EXPECT_EQ(groups.size(), 2u);
    auto rec = oakenDequantize(groups, 40, cfg);
    EXPECT_EQ(rec.size(), 40u);
}

TEST(Oaken, RoundTripReportsRmsError)
{
    OakenConfig cfg;
    Matrix m(8, 64);
    Rng rng(12);
    rng.fillGaussian(m.raw(), m.size(), 1.0f);
    Matrix orig = m;
    double rms = oakenRoundTrip(m, cfg);
    EXPECT_GT(rms, 0.0);
    EXPECT_LT(rms, 0.2);  // int4 with group scales is decent.
    // Matrix actually changed to quantized values.
    bool changed = false;
    for (uint32_t i = 0; i < m.size(); ++i)
        changed |= m.raw()[i] != orig.raw()[i];
    EXPECT_TRUE(changed);
}

TEST(Oaken, BytesPerElem)
{
    OakenConfig cfg;
    cfg.groupSize = 32;
    EXPECT_NEAR(cfg.bytesPerElem(), 0.625, 1e-9);
    cfg.groupSize = 128;
    EXPECT_LT(cfg.bytesPerElem(), 0.6);
}
