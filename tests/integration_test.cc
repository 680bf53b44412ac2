/**
 * @file
 * Cross-module integration tests: every retrieval policy driven
 * through full multi-turn streaming sessions, with a validating
 * decorator asserting the SelectionPolicy contract on every call;
 * plus a naive attention reference implementation cross-checking
 * the production kernel.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "core/resv.hh"
#include "llm/attention.hh"
#include "pipeline/streaming_session.hh"
#include "retrieval/policies.hh"
#include "tensor/ops.hh"
#include "testutil.hh"
#include "video/workload.hh"

using namespace vrex;

namespace
{

/** Decorator asserting the SelectionPolicy contract. */
class ValidatingPolicy : public SelectionPolicy
{
  public:
    explicit ValidatingPolicy(SelectionPolicy *inner) : inner(inner) {}

    void
    onBlockAppended(uint32_t layer, const KVCache &cache,
                    uint32_t block_start, uint32_t block_len,
                    TokenStage stage) override
    {
        EXPECT_EQ(cache.layer(layer).keys.rows(),
                  block_start + block_len);
        inner->onBlockAppended(layer, cache, block_start, block_len,
                               stage);
    }

    LayerSelection
    select(uint32_t layer, const Matrix &q, const KVCache &cache,
           uint32_t past_len, TokenStage stage) override
    {
        LayerSelection sel =
            inner->select(layer, q, cache, past_len, stage);
        EXPECT_EQ(sel.kvHeads.size(), cache.config().nKvHeads);
        for (const auto &h : sel.kvHeads) {
            if (h.selectAll)
                continue;
            uint32_t prev = 0;
            bool first = true;
            for (uint32_t idx : h.indices) {
                EXPECT_LT(idx, past_len);
                if (!first) {
                    EXPECT_GT(idx, prev);  // Sorted, unique.
                }
                prev = idx;
                first = false;
            }
        }
        ++calls;
        return sel;
    }

    void reset() override { inner->reset(); }

    uint32_t calls = 0;

  private:
    SelectionPolicy *inner;
};

SessionScript
multiTurnScript(uint64_t seed)
{
    return WorkloadGenerator::multiTurn(15, 3, seed);
}

void
runValidated(SelectionPolicy *policy)
{
    ModelConfig cfg = ModelConfig::tiny();
    ValidatingPolicy validating(policy);
    StreamingSession session(cfg, &validating, 42);
    SessionRunResult r = session.run(multiTurnScript(7));
    EXPECT_GT(validating.calls, 0u);
    EXPECT_GT(r.totalTokens, 0u);
    EXPECT_EQ(r.frames, 15u);
}

} // namespace

TEST(Integration, ResvContractHolds)
{
    ModelConfig cfg = ModelConfig::tiny();
    ResvConfig rc;
    ResvPolicy policy(cfg, rc);
    runValidated(&policy);
}

TEST(Integration, InfiniGenContractHolds)
{
    ModelConfig cfg = ModelConfig::tiny();
    InfiniGenConfig ic;
    InfiniGenPolicy policy(cfg, ic);
    runValidated(&policy);
}

TEST(Integration, InfiniGenPContractHolds)
{
    ModelConfig cfg = ModelConfig::tiny();
    InfiniGenConfig ic;
    ic.prefill = true;
    InfiniGenPolicy policy(cfg, ic);
    runValidated(&policy);
}

TEST(Integration, ReKVContractHolds)
{
    ModelConfig cfg = ModelConfig::tiny();
    ReKVConfig rc;
    ReKVPolicy policy(cfg, rc);
    runValidated(&policy);
}

TEST(Integration, FlexGenContractHolds)
{
    FlexGenPolicy policy;
    runValidated(&policy);
}

TEST(Integration, UnclusteredResvContractHolds)
{
    ModelConfig cfg = ModelConfig::tiny();
    ResvConfig rc;
    rc.clustering = false;
    ResvPolicy policy(cfg, rc);
    runValidated(&policy);
}

TEST(Integration, SessionsAreRepeatableAcrossPolicyKinds)
{
    // The video/question stream must be identical regardless of the
    // policy, so comparisons are apples-to-apples.
    ModelConfig cfg = ModelConfig::tiny();
    StreamingSession a(cfg, nullptr, 42);
    SessionRunResult ra = a.run(multiTurnScript(8));

    FlexGenPolicy flex;
    StreamingSession b(cfg, &flex, 42);
    SessionRunResult rb = b.run(multiTurnScript(8));

    // FlexGen == full attention: identical generations.
    EXPECT_EQ(ra.generated, rb.generated);
    EXPECT_EQ(ra.totalTokens, rb.totalTokens);
}

namespace
{

/** Naive O(T*S) single-head attention, written independently. */
void
naiveAttention(const ModelConfig &cfg, const Matrix &q,
               const LayerKV &kv, uint32_t past_len, Matrix &out)
{
    const uint32_t hd = cfg.headDim();
    out = Matrix(q.rows(), cfg.dModel);
    for (uint32_t h = 0; h < cfg.nHeads; ++h) {
        const uint32_t kvh = h / cfg.groupSize();
        for (uint32_t t = 0; t < q.rows(); ++t) {
            const uint32_t limit = past_len + t + 1;
            std::vector<float> w(limit);
            float mx = -1e30f;
            for (uint32_t s = 0; s < limit; ++s) {
                w[s] = dot(q.row(t) + h * hd,
                           kv.keys.row(s) + kvh * hd, hd) /
                    std::sqrt(static_cast<float>(hd));
                mx = std::max(mx, w[s]);
            }
            float z = 0.0f;
            for (uint32_t s = 0; s < limit; ++s) {
                w[s] = std::exp(w[s] - mx);
                z += w[s];
            }
            for (uint32_t s = 0; s < limit; ++s) {
                float p = w[s] / z;
                for (uint32_t d = 0; d < hd; ++d)
                    out.at(t, h * hd + d) +=
                        p * kv.values.row(s)[kvh * hd + d];
            }
        }
    }
}

} // namespace

TEST(Integration, AttentionMatchesNaiveReference)
{
    ModelConfig cfg = ModelConfig::tiny();
    KVCache kv(cfg);
    Rng rng(11);
    testutil::fillLayer(kv, cfg, 9, rng);

    Matrix q = testutil::randomMatrix(rng, 3, cfg.nHeads * cfg.headDim());

    Matrix fast, slow;
    attentionForward(cfg, q, {{&kv.layer(0), 6, nullptr, 3}}, fast);
    naiveAttention(cfg, q, kv.layer(0), 6, slow);
    ASSERT_TRUE(fast.sameShape(slow));
    for (uint32_t i = 0; i < fast.size(); ++i)
        EXPECT_NEAR(fast.raw()[i], slow.raw()[i], 1e-4f);
}

TEST(Integration, MultiTurnRetrievalKeepsEarlyContextAvailable)
{
    // The motivation for retrieval over pruning (paper SII-A): late
    // queries can still attend tokens from the first frames. Verify
    // ReSV actually selects early tokens in the last turn.
    ModelConfig cfg = ModelConfig::tiny();
    ResvConfig rc;
    rc.thrWics = 0.9f;  // Select generously for this check.
    ResvPolicy policy(cfg, rc);
    StreamingSession session(cfg, &policy, 42);
    const SessionScript script = multiTurnScript(9);
    session.run(script);

    // Early-context availability is structural: nothing was evicted,
    // so the cache still holds every fed token, frame 0's first.
    uint32_t fed = 0;
    for (const SessionEvent &e : script.events)
        fed += e.type == SessionEvent::Type::Frame
                   ? script.video.tokensPerFrame
                   : e.tokens;
    EXPECT_EQ(session.model().cache().tokenCount(), fed);
    EXPECT_EQ(session.model().cache().tokenMeta(0).frameId, 0);
}
