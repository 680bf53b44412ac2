/**
 * @file
 * Unit tests for the LLM runtime: config arithmetic, KV cache
 * bookkeeping, attention (full vs. selected), and the iterative
 * prefill / generation workflow.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "common/rng.hh"
#include "llm/attention.hh"
#include "llm/config.hh"
#include "llm/kv_cache.hh"
#include "llm/model.hh"
#include "testutil.hh"

using namespace vrex;

TEST(ModelConfig, Llama3Geometry)
{
    ModelConfig c = ModelConfig::llama3_8b();
    EXPECT_EQ(c.headDim(), 128u);
    EXPECT_EQ(c.groupSize(), 4u);
    // ~8B parameters.
    EXPECT_GT(c.paramCount(), 7'000'000'000ull);
    EXPECT_LT(c.paramCount(), 9'000'000'000ull);
    // GQA KV: 2 * 8 heads * 128 dims * 2 bytes = 4 KiB/token/layer.
    EXPECT_EQ(c.kvBytesPerTokenPerLayer(2.0), 4096u);
    EXPECT_EQ(c.kvBytesPerToken(2.0), 4096u * 32u);
}

TEST(ModelConfig, FlopsScaleLinearly)
{
    ModelConfig c = ModelConfig::tiny();
    EXPECT_DOUBLE_EQ(c.denseFlops(10), 10.0 * c.denseFlops(1));
    EXPECT_DOUBLE_EQ(c.attentionFlops(2, 6),
                     12.0 * c.attentionFlops(1, 1));
}

TEST(KVCache, AppendAndMeta)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    EXPECT_EQ(kv.tokenCount(), 0u);

    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    Matrix k(3, kv_dim), v(3, kv_dim);
    kv.beginTokens(3, 0, TokenStage::VideoFrame);
    for (uint32_t l = 0; l < cfg.nLayers; ++l)
        kv.appendLayer(l, k, v);

    EXPECT_EQ(kv.tokenCount(), 3u);
    EXPECT_EQ(kv.frameCount(), 1u);
    EXPECT_EQ(kv.tokenMeta(0).frameId, 0);
    EXPECT_EQ(kv.tokenMeta(2).position, 2u);
    EXPECT_EQ(kv.layer(0).keys.rows(), 3u);

    kv.beginTokens(2, -1, TokenStage::QuestionText);
    Matrix k2(2, kv_dim), v2(2, kv_dim);
    for (uint32_t l = 0; l < cfg.nLayers; ++l)
        kv.appendLayer(l, k2, v2);
    EXPECT_EQ(kv.tokenCount(), 5u);
    EXPECT_EQ(kv.tokenMeta(3).frameId, -1);
    EXPECT_EQ(kv.frameCount(), 1u);
}

TEST(KVCache, FrameTokenRange)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    Matrix blk(4, kv_dim);
    for (int f = 0; f < 3; ++f) {
        kv.beginTokens(4, f, TokenStage::VideoFrame);
        for (uint32_t l = 0; l < cfg.nLayers; ++l)
            kv.appendLayer(l, blk, blk);
    }
    auto [first, last] = kv.frameTokenRange(1);
    EXPECT_EQ(first, 4u);
    EXPECT_EQ(last, 8u);
    auto [f0, l0] = kv.frameTokenRange(99);
    EXPECT_EQ(f0, 0u);
    EXPECT_EQ(l0, 0u);
}

TEST(KVCache, TotalBytesAndClear)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    Matrix blk(5, kv_dim);
    kv.beginTokens(5, 0, TokenStage::VideoFrame);
    for (uint32_t l = 0; l < cfg.nLayers; ++l)
        kv.appendLayer(l, blk, blk);
    EXPECT_EQ(kv.totalBytes(2.0), 5u * cfg.kvBytesPerToken(2.0));
    kv.clear();
    EXPECT_EQ(kv.tokenCount(), 0u);
    EXPECT_EQ(kv.frameCount(), 0u);
}

using testutil::fillLayer;

TEST(Attention, SelectAllMatchesNullSelection)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(1);
    fillLayer(kv, cfg, 6, rng);

    Matrix q(2, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);

    Matrix out1, out2;
    LayerSelection all = LayerSelection::full(cfg.nKvHeads);
    attentionForward(cfg, q, {{&kv.layer(0), 4, nullptr, 2}}, out1);
    attentionForward(cfg, q, {{&kv.layer(0), 4, &all, 2}}, out2);
    for (uint32_t i = 0; i < out1.size(); ++i)
        EXPECT_FLOAT_EQ(out1.raw()[i], out2.raw()[i]);
}

TEST(Attention, ExplicitFullIndicesMatchSelectAll)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(2);
    fillLayer(kv, cfg, 7, rng);

    Matrix q(1, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);

    LayerSelection explicit_sel;
    explicit_sel.kvHeads.resize(cfg.nKvHeads);
    for (auto &h : explicit_sel.kvHeads) {
        h.selectAll = false;
        for (uint32_t i = 0; i < 6; ++i)
            h.indices.push_back(i);
    }
    Matrix out1, out2;
    attentionForward(cfg, q, {{&kv.layer(0), 6, nullptr, 1}}, out1);
    attentionForward(cfg, q, {{&kv.layer(0), 6, &explicit_sel, 1}}, out2);
    for (uint32_t i = 0; i < out1.size(); ++i)
        EXPECT_NEAR(out1.raw()[i], out2.raw()[i], 1e-5f);
}

TEST(Attention, EmptySelectionAttendsOnlyBlock)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(3);
    fillLayer(kv, cfg, 5, rng);

    Matrix q(1, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);

    LayerSelection none;
    none.kvHeads.resize(cfg.nKvHeads);
    for (auto &h : none.kvHeads)
        h.selectAll = false;

    Matrix out;
    attentionForward(cfg, q, {{&kv.layer(0), 4, &none, 1}}, out);
    // The single block token attends only itself: output head h
    // equals V row 4 for that head.
    for (uint32_t h = 0; h < cfg.nHeads; ++h) {
        uint32_t kv_head = h / cfg.groupSize();
        const float *vvec =
            kv.layer(0).values.row(4) + kv_head * cfg.headDim();
        for (uint32_t d = 0; d < cfg.headDim(); ++d)
            EXPECT_NEAR(out.at(0, h * cfg.headDim() + d), vvec[d],
                        1e-5f);
    }
}

TEST(Attention, ZeroLengthQueryBlockYieldsEmptyOutput)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg); // Empty: T == 0 must not read the cache.
    Matrix q(0, cfg.nHeads * cfg.headDim());
    Matrix out(3, 3); // Stale shape, must be replaced.
    attentionForward(cfg, q, {{&kv.layer(0), 0, nullptr, 0}}, out);
    EXPECT_EQ(out.rows(), 0u);
    EXPECT_EQ(out.cols(), cfg.dModel);
}

TEST(AttentionDeathTest, RejectsCacheMissingTheBlock)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(20);
    fillLayer(kv, cfg, 5, rng);
    Matrix q(1, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);
    Matrix out;
    // The cache holds 5 rows; past_len 5 + block 1 claims 6.
    EXPECT_DEATH(
        attentionForward(cfg, q, {{&kv.layer(0), 5, nullptr, 1}}, out),
        "block appended to the cache");
    // And past_len 2 + block 1 leaves 2 unexplained trailing rows.
    EXPECT_DEATH(
        attentionForward(cfg, q, {{&kv.layer(0), 2, nullptr, 1}}, out),
        "block appended to the cache");
    // A bad member is caught behind a good (empty) one, and member
    // rows must tile q exactly.
    EXPECT_DEATH(attentionForward(cfg, q,
                                  {{nullptr, 0, nullptr, 0},
                                   {&kv.layer(0), 5, nullptr, 1}},
                                  out),
                 "block appended to the cache");
    EXPECT_DEATH(
        attentionForward(cfg, q, {{&kv.layer(0), 3, nullptr, 2}}, out),
        "rows must tile the members");
}

TEST(AttentionDeathTest, RejectsMalformedSelection)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(21);
    fillLayer(kv, cfg, 1, rng);
    Matrix q(1, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);
    Matrix out;

    LayerSelection wrong_heads;
    wrong_heads.kvHeads.resize(cfg.nKvHeads + 1);
    EXPECT_DEATH(
        attentionForward(cfg, q, {{&kv.layer(0), 0, &wrong_heads, 1}}, out),
        "wrong head count");

    // past_len == 0: only selectAll or an empty index list is legal.
    LayerSelection stale;
    stale.kvHeads.resize(cfg.nKvHeads);
    for (auto &h : stale.kvHeads) {
        h.selectAll = false;
        h.indices = {0};
    }
    EXPECT_DEATH(
        attentionForward(cfg, q, {{&kv.layer(0), 0, &stale, 1}}, out),
        "beyond the past");
}

TEST(Attention, BatchedStepMatchesSoloBitExact)
{
    ModelConfig cfg = ModelConfig::tiny();
    Rng rng(22);
    // Three ragged members with distinct cache depths and selections.
    KVCache kv_a(cfg), kv_b(cfg), kv_c(cfg);
    fillLayer(kv_a, cfg, 6, rng);
    fillLayer(kv_b, cfg, 10, rng);
    fillLayer(kv_c, cfg, 3, rng); // A freshly started session.

    LayerSelection partial;
    partial.kvHeads.resize(cfg.nKvHeads);
    for (auto &h : partial.kvHeads) {
        h.selectAll = false;
        h.indices = {0, 2, 4};
    }
    LayerSelection all = LayerSelection::full(cfg.nKvHeads);

    Matrix q(6, cfg.nHeads * cfg.headDim());
    rng.fillGaussian(q.raw(), q.size(), 1.0f);

    const std::vector<AttentionMember> members = {
        {&kv_a.layer(0), 4, nullptr, 2},
        {&kv_b.layer(0), 9, &partial, 1},
        {&kv_c.layer(0), 0, &all, 3},
    };
    Matrix fused;
    attentionForward(cfg, q, members, fused);
    ASSERT_EQ(fused.rows(), 6u);
    ASSERT_EQ(fused.cols(), cfg.dModel);

    uint32_t row = 0;
    for (uint32_t i = 0; i < members.size(); ++i) {
        Matrix qi(members[i].rows, q.cols());
        for (uint32_t t = 0; t < qi.rows(); ++t)
            std::copy_n(q.row(row + t), q.cols(), qi.row(t));
        Matrix solo;
        attentionForward(cfg, qi, {members[i]}, solo);
        for (uint32_t t = 0; t < qi.rows(); ++t, ++row)
            for (uint32_t c = 0; c < cfg.dModel; ++c)
                EXPECT_EQ(fused.at(row, c), solo.at(t, c))
                    << "member " << i << " row " << t << " col " << c;
    }
}

TEST(LayerSelection, SelectedRatio)
{
    LayerSelection sel;
    sel.kvHeads.resize(2);
    sel.kvHeads[0].selectAll = true;
    sel.kvHeads[1].selectAll = false;
    sel.kvHeads[1].indices = {0, 1};
    EXPECT_DOUBLE_EQ(sel.selectedRatio(4), (1.0 + 0.5) / 2.0);
    EXPECT_DOUBLE_EQ(sel.selectedRatio(0), 1.0);
}

TEST(Model, IterativePrefillGrowsCache)
{
    ModelConfig cfg = ModelConfig::tiny();
    Model model(cfg, 42);
    Rng rng(4);

    Matrix frame(3, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    model.prefillFrame(frame, 0);
    EXPECT_EQ(model.cache().tokenCount(), 3u);
    model.prefillFrame(frame, 1);
    EXPECT_EQ(model.cache().tokenCount(), 6u);
    EXPECT_EQ(model.cache().frameCount(), 2u);

    model.prefillText({1, 2, 3});
    EXPECT_EQ(model.cache().tokenCount(), 9u);

    auto ids = testutil::greedyDecode(model, 4);
    EXPECT_EQ(ids.size(), 4u);
    EXPECT_EQ(model.cache().tokenCount(), 13u);
    for (uint32_t id : ids)
        EXPECT_LT(id, cfg.vocabSize);
}

TEST(Model, DeterministicAcrossInstances)
{
    ModelConfig cfg = ModelConfig::tiny();
    Model m1(cfg, 42), m2(cfg, 42);
    Rng rng(5);
    Matrix frame(2, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    m1.prefillFrame(frame, 0);
    m2.prefillFrame(frame, 0);
    m1.prefillText({7});
    m2.prefillText({7});
    auto a = testutil::greedyDecode(m1, 3);
    auto b = testutil::greedyDecode(m2, 3);
    EXPECT_EQ(a, b);
}

TEST(Model, PrefillReturnsBlockStats)
{
    ModelConfig cfg = ModelConfig::tiny();
    Model model(cfg, 42);
    Rng rng(6);
    Matrix frame(2, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    const BlockStats first = model.prefillFrame(frame, 0);
    const BlockStats second = model.prefillFrame(frame, 1);
    EXPECT_EQ(first.pastLen, 0u);
    EXPECT_EQ(second.pastLen, 2u);
    EXPECT_EQ(second.blockLen, 2u);
    EXPECT_EQ(second.stage, TokenStage::VideoFrame);
    EXPECT_EQ(second.layerRatios.size(), cfg.nLayers);
    EXPECT_EQ(second.selectedPerHead.size(), cfg.nLayers);
}

TEST(Model, ResetSessionClearsState)
{
    ModelConfig cfg = ModelConfig::tiny();
    Model model(cfg, 42);
    Rng rng(7);
    Matrix frame(2, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    model.prefillFrame(frame, 0);
    model.resetSession();
    EXPECT_EQ(model.cache().tokenCount(), 0u);
    EXPECT_EQ(model.lastHidden(), std::vector<float>(cfg.dModel, 0.0f));
}

TEST(Model, LogitsMatchVocab)
{
    ModelConfig cfg = ModelConfig::tiny();
    Model model(cfg, 42);
    Rng rng(8);
    Matrix frame(1, cfg.dModel);
    rng.fillGaussian(frame.raw(), frame.size(), 1.0f);
    model.prefillFrame(frame, 0);
    auto logits = model.lastLogits();
    EXPECT_EQ(logits.size(), cfg.vocabSize);
}

TEST(Model, RaggedForwardMatchesSoloBitExact)
{
    // Six ragged members (T = 3, 1, 2, 1, 5, 0), two of which run one
    // shared ModelWeights beside private copies of the same seed, one
    // more seed, members without a policy, and an empty member: each
    // must end exactly where a forward of that member alone ends.
    ModelConfig cfg = ModelConfig::tiny();
    Rng rng(23);
    constexpr uint32_t kMembers = 6;
    const uint32_t rows[kMembers] = {3, 1, 2, 1, 5, 0};
    const uint64_t seeds[kMembers] = {42, 42, 42, 42, 7, 7};
    const bool shared[kMembers] = {false, true, true, false, false, false};
    Matrix x(12, cfg.dModel);
    rng.fillGaussian(x.raw(), x.size(), 1.0f);

    struct Side
    {
        std::vector<std::unique_ptr<SelectionPolicy>> policies;
        std::vector<std::unique_ptr<Model>> models;
    };
    // The batched side runs members 1 and 2 on one weight set; the
    // solo side gives every member a private copy.
    auto build = [&](Side &side, bool share) {
        const auto shared_weights =
            std::make_shared<const ModelWeights>(cfg, 42);
        side.policies.push_back(
            std::make_unique<ResvPolicy>(cfg, ResvConfig{}));
        InfiniGenConfig ic;
        ic.prefill = true;
        side.policies.push_back(
            std::make_unique<InfiniGenPolicy>(cfg, ic));
        side.policies.push_back(
            std::make_unique<ResvPolicy>(cfg, ResvConfig{}));
        for (uint32_t i = 3; i < kMembers; ++i)
            side.policies.push_back(nullptr);
        for (uint32_t i = 0; i < kMembers; ++i) {
            side.models.push_back(
                share && shared[i]
                    ? std::make_unique<Model>(shared_weights)
                    : std::make_unique<Model>(cfg, seeds[i]));
            side.models[i]->setPolicy(side.policies[i].get());
            // Distinct context depths per member.
            testutil::streamRandomFrames(*side.models[i], i + 1, 4, 100 + i);
        }
    };
    Side batched, solo;
    build(batched, true);
    build(solo, false);
    ASSERT_EQ(&batched.models[1]->weights(), &batched.models[2]->weights());
    ASSERT_NE(&batched.models[0]->weights(), &batched.models[1]->weights());

    std::vector<Model::Member> members;
    for (uint32_t i = 0; i < kMembers; ++i)
        members.push_back({batched.models[i].get(), rows[i], 9,
                           TokenStage::VideoFrame});
    const std::vector<float> empty_hidden = batched.models[5]->lastHidden();
    const std::vector<BlockStats> stats = Model::forward(members, x);
    ASSERT_EQ(stats.size(), kMembers);

    // The empty member appends nothing and keeps its hidden state.
    EXPECT_EQ(stats[5].pastLen, 24u);
    EXPECT_TRUE(stats[5].layerRatios.empty());
    EXPECT_EQ(batched.models[5]->cache().tokenCount(), 24u);
    EXPECT_EQ(batched.models[5]->lastHidden(), empty_hidden);

    uint32_t row = 0;
    for (uint32_t i = 0; i < kMembers; ++i) {
        Matrix xi(rows[i], cfg.dModel);
        std::copy_n(x.row(row), size_t(rows[i]) * cfg.dModel, xi.raw());
        row += rows[i];
        const BlockStats ref =
            solo.models[i]->forwardBlock(xi, 9, TokenStage::VideoFrame);
        const Model &a = *batched.models[i], &b = *solo.models[i];
        EXPECT_EQ(stats[i].pastLen, ref.pastLen) << "member " << i;
        EXPECT_EQ(stats[i].blockLen, rows[i]);
        EXPECT_EQ(stats[i].layerRatios, ref.layerRatios);
        EXPECT_EQ(stats[i].selectedPerHead, ref.selectedPerHead);
        EXPECT_EQ(a.lastHidden(), b.lastHidden()) << "member " << i;
        ASSERT_EQ(a.cache().tokenCount(), b.cache().tokenCount());
        for (uint32_t l = 0; l < cfg.nLayers; ++l) {
            const LayerKV &ka = a.cache().layer(l), &kb = b.cache().layer(l);
            ASSERT_TRUE(ka.keys.sameShape(kb.keys));
            EXPECT_EQ(0, std::memcmp(ka.keys.raw(), kb.keys.raw(),
                                     ka.keys.size() * sizeof(float)));
            EXPECT_EQ(0, std::memcmp(ka.values.raw(), kb.values.raw(),
                                     ka.values.size() * sizeof(float)));
        }
    }

    // Logits group on the weight pointer too: one pass over all six
    // matches each model's own logits.
    std::vector<const Model *> all;
    for (const auto &m : batched.models)
        all.push_back(m.get());
    const Matrix logits = Model::logits(all);
    for (uint32_t i = 0; i < kMembers; ++i) {
        const std::vector<float> ref = solo.models[i]->lastLogits();
        EXPECT_EQ(0, std::memcmp(logits.row(i), ref.data(),
                                 ref.size() * sizeof(float)))
            << "member " << i;
    }
}
