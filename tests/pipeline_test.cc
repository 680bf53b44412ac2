/**
 * @file
 * End-to-end pipeline tests: scripted sessions under every policy,
 * the accuracy proxy, and functional-to-timing coupling.
 */

#include <gtest/gtest.h>

#include "core/resv.hh"
#include "pipeline/accuracy_eval.hh"
#include "pipeline/coupling.hh"
#include "pipeline/streaming_session.hh"
#include "retrieval/policies.hh"

using namespace vrex;

namespace
{

SessionScript
shortScript(uint64_t seed)
{
    SessionScript s = WorkloadGenerator::coinAverage(seed);
    // Shrink for unit-test speed: 8 frames, 6-token question,
    // 5 generated tokens.
    s.events.clear();
    for (int f = 0; f < 8; ++f)
        s.events.push_back({SessionEvent::Type::Frame, 0});
    s.events.push_back({SessionEvent::Type::Question, 6});
    s.events.push_back({SessionEvent::Type::Generate, 5});
    return s;
}

} // namespace

TEST(StreamingSession, FullAttentionRun)
{
    ModelConfig cfg = ModelConfig::tiny();
    StreamingSession session(cfg, nullptr, 42);
    SessionRunResult r = session.run(shortScript(1));
    EXPECT_EQ(r.frames, 8u);
    EXPECT_EQ(r.generated.size(), 5u);
    EXPECT_DOUBLE_EQ(r.frameRatio, 1.0);
    EXPECT_DOUBLE_EQ(r.textRatio, 1.0);
    // 8 frames x 16 tokens + 6 question + 5 generated.
    EXPECT_EQ(r.totalTokens,
              8 * 16 + 6 + 5u);
}

TEST(StreamingSession, Deterministic)
{
    ModelConfig cfg = ModelConfig::tiny();
    StreamingSession s1(cfg, nullptr, 42), s2(cfg, nullptr, 42);
    auto r1 = s1.run(shortScript(2));
    auto r2 = s2.run(shortScript(2));
    EXPECT_EQ(r1.generated, r2.generated);
}

TEST(StreamingSession, ResvReducesRatio)
{
    ModelConfig cfg = ModelConfig::tiny();
    ResvConfig rc;
    ResvPolicy policy(cfg, rc);
    StreamingSession session(cfg, &policy, 42);
    SessionRunResult r = session.run(shortScript(3));
    EXPECT_LT(r.frameRatio, 1.0);
    EXPECT_LT(r.textRatio, 1.0);
    EXPECT_FALSE(r.layerHeadRatio.empty());
    EXPECT_EQ(r.layerHeadRatio.size(), cfg.nLayers);
    EXPECT_EQ(r.layerHeadRatio[0].size(), cfg.nKvHeads);
}

TEST(StreamingSession, TeacherForcingConsumesTokens)
{
    ModelConfig cfg = ModelConfig::tiny();
    StreamingSession session(cfg, nullptr, 42);
    std::vector<uint32_t> forced = {1, 2, 3, 4, 5};
    SessionRunResult r = session.run(shortScript(4), forced);
    EXPECT_EQ(r.generated.size(), 5u);
}

TEST(StreamingSession, UnitEventReplayIsByteIdentical)
{
    // The serve-layer scheduler splits Generate{n} into n unit steps
    // (StreamingSession::unitEvents); applying the units in order
    // must be byte-identical to the scripted run.
    ModelConfig cfg = ModelConfig::tiny();
    ResvConfig rc;
    SessionScript script = shortScript(7);

    ResvPolicy whole_policy(cfg, rc);
    StreamingSession whole(cfg, &whole_policy, 42);
    SessionRunResult r_whole = whole.run(script);

    ResvPolicy unit_policy(cfg, rc);
    StreamingSession unit(cfg, &unit_policy, 42);
    unit.begin(script.name, script.video, script.seed);
    for (const auto &event : script.events)
        for (const auto &u : StreamingSession::unitEvents(event))
            unit.apply(u);
    SessionRunResult r_unit = unit.snapshot();

    EXPECT_EQ(r_whole.generated, r_unit.generated);
    EXPECT_EQ(r_whole.stepLogits, r_unit.stepLogits);
    EXPECT_EQ(r_whole.totalTokens, r_unit.totalTokens);
    EXPECT_DOUBLE_EQ(r_whole.frameRatio, r_unit.frameRatio);
    EXPECT_DOUBLE_EQ(r_whole.textRatio, r_unit.textRatio);
    EXPECT_EQ(r_whole.layerHeadRatio, r_unit.layerHeadRatio);
}

TEST(StreamingSession, EmptyQuestionIsANoOp)
{
    // A zero-token question forwards a zero-row block: it appends no
    // tokens, calls no policy and moves no accumulator, so the
    // session continues exactly like one that never asked it.
    ModelConfig cfg = ModelConfig::tiny();
    ResvConfig rc;
    SessionScript script = shortScript(8);
    ResvPolicy plain_policy(cfg, rc), empty_policy(cfg, rc);
    StreamingSession plain(cfg, &plain_policy, 42);
    StreamingSession empty(cfg, &empty_policy, 42);
    plain.begin(script.name, script.video, script.seed);
    empty.begin(script.name, script.video, script.seed);
    for (int f = 0; f < 4; ++f) {
        plain.feedFrame();
        empty.feedFrame();
        if (f == 1)
            empty.feedQuestion(0);
    }
    const SessionRunResult before = plain.snapshot();
    const SessionRunResult after = empty.snapshot();
    EXPECT_EQ(before.totalTokens, after.totalTokens);
    EXPECT_DOUBLE_EQ(before.frameRatio, after.frameRatio);
    EXPECT_DOUBLE_EQ(before.textRatio, after.textRatio);
    EXPECT_EQ(before.layerHeadRatio, after.layerHeadRatio);

    plain.generate(4);
    empty.generate(4);
    const SessionRunResult a = plain.snapshot(), b = empty.snapshot();
    EXPECT_EQ(a.generated.size(), 4u);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.stepLogits, b.stepLogits);
    EXPECT_EQ(a.totalTokens, b.totalTokens);
    EXPECT_DOUBLE_EQ(a.textRatio, b.textRatio);
    EXPECT_EQ(a.layerHeadRatio, b.layerHeadRatio);
}

TEST(AccuracyEval, FullAttentionPerfectAgreement)
{
    ModelConfig cfg = ModelConfig::tiny();
    FidelityResult f =
        evaluateFidelity(cfg, shortScript(5), nullptr, 42);
    EXPECT_DOUBLE_EQ(f.tokenAgreement, 1.0);
    EXPECT_EQ(f.steps, 5u);
}

TEST(AccuracyEval, FlexGenPerfectAgreement)
{
    ModelConfig cfg = ModelConfig::tiny();
    FlexGenPolicy policy;
    FidelityResult f =
        evaluateFidelity(cfg, shortScript(6), &policy, 42);
    EXPECT_DOUBLE_EQ(f.tokenAgreement, 1.0);
}

TEST(AccuracyEval, ResvHighFidelityLowRatio)
{
    ModelConfig cfg = ModelConfig::tiny();
    ResvConfig rc;
    ResvPolicy policy(cfg, rc);
    FidelityResult f =
        evaluateFidelity(cfg, shortScript(7), &policy, 42);
    // Argmax agreement is noisy over only 5 steps; the continuous
    // logit-fidelity signal is the stable check.
    EXPECT_GT(f.logitCosine, 0.85);
    EXPECT_GE(f.tokenAgreement, 0.4);
    EXPECT_LT(f.frameRatio, 1.0);
}

TEST(AccuracyEval, ProxyAccuracyMapping)
{
    FidelityResult perfect;
    EXPECT_DOUBLE_EQ(proxyAccuracy(49.0, perfect), 49.0);
    // Monotone in both fidelity components.
    FidelityResult worse_tokens = perfect;
    worse_tokens.tokenAgreement = 0.5;
    FidelityResult worst_tokens = perfect;
    worst_tokens.tokenAgreement = 0.2;
    EXPECT_LT(proxyAccuracy(49.0, worse_tokens), 49.0);
    EXPECT_LT(proxyAccuracy(49.0, worst_tokens),
              proxyAccuracy(49.0, worse_tokens));
    FidelityResult distorted = perfect;
    distorted.logitCosine = 0.9;
    EXPECT_LT(proxyAccuracy(49.0, distorted), 49.0);
    // Small distortion stays in the sub-1% drop regime of Table II.
    FidelityResult slight = perfect;
    slight.logitCosine = 0.99;
    EXPECT_GT(proxyAccuracy(49.0, slight), 48.5);
}

TEST(Coupling, RatiosOverrideMethod)
{
    SessionRunResult measured;
    measured.frameRatio = 0.31;
    measured.textRatio = 0.03;
    MethodModel m = coupleRatios(MethodModel::resvFull(), measured);
    EXPECT_DOUBLE_EQ(m.frameSelRatio, 0.31);
    EXPECT_DOUBLE_EQ(m.genSelRatio, 0.03);
    // InfiniGen does not select at prefill: frame ratio untouched.
    MethodModel ig = coupleRatios(MethodModel::infinigen(), measured);
    EXPECT_DOUBLE_EQ(ig.frameSelRatio, 1.0);
    EXPECT_DOUBLE_EQ(ig.genSelRatio, 0.03);
}

TEST(Coupling, ClusterSizeOverride)
{
    SessionRunResult measured;
    measured.frameRatio = 0.3;
    measured.textRatio = 0.02;
    MethodModel m =
        coupleResv(MethodModel::resvFull(), measured, 12.5);
    EXPECT_DOUBLE_EQ(m.tokensPerCluster, 12.5);
    // Degenerate cluster size ignored.
    MethodModel m2 =
        coupleResv(MethodModel::resvFull(), measured, 0.5);
    EXPECT_DOUBLE_EQ(m2.tokensPerCluster,
                     MethodModel::resvFull().tokensPerCluster);
}

TEST(Pipeline, BaselineComparisonOrdering)
{
    // ReSV should achieve a lower frame-stage ratio than the fixed
    // 50% top-k InfiniGenP while keeping agreement in range.
    ModelConfig cfg = ModelConfig::tiny();
    SessionScript script = shortScript(8);

    ResvConfig rc;
    ResvPolicy resv(cfg, rc);
    FidelityResult f_resv = evaluateFidelity(cfg, script, &resv, 42);

    InfiniGenConfig ic;
    ic.ratio = 0.5f;
    ic.prefill = true;
    InfiniGenPolicy infp(cfg, ic);
    FidelityResult f_inf = evaluateFidelity(cfg, script, &infp, 42);

    EXPECT_LT(f_resv.frameRatio, f_inf.frameRatio + 0.15);
    EXPECT_GT(f_resv.tokenAgreement, 0.4);
    EXPECT_GT(f_inf.tokenAgreement, 0.4);
}
