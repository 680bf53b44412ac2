/**
 * @file
 * Shared test utilities: seeded RNG fixtures, float/BF16 tolerance
 * comparators, the synthetic video-frame / KV generators that
 * several suites previously copy-pasted, and the deterministic
 * serve-layer stress harness (seeded-random verb scripts, sequential
 * ground-truth replays, instrumented policies) shared by the
 * scheduler suites.
 */

#ifndef VREX_TESTS_TESTUTIL_HH
#define VREX_TESTS_TESTUTIL_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bf16.hh"
#include "common/rng.hh"
#include "core/resv.hh"
#include "llm/kv_cache.hh"
#include "llm/model.hh"
#include "pipeline/streaming_session.hh"
#include "retrieval/policies.hh"
#include "serve/policy_factory.hh"
#include "tensor/matrix.hh"
#include "video/workload.hh"

namespace vrex::testutil
{

/**
 * Fixture with a deterministic per-test RNG. The stream is named
 * after the test so adding a test never perturbs its neighbours.
 */
class SeededRngTest : public ::testing::Test
{
  protected:
    SeededRngTest()
        : rng(0x5eedull,
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())
    {
    }

    Rng rng;
};

/** Relative tolerance matching BF16's 8-bit mantissa (2^-8). */
inline constexpr float kBf16RelTol = 1.0f / 256.0f;

/** |a - b| <= tol * max(1, |a|, |b|): absolute near zero, relative
 * away from it. */
inline ::testing::AssertionResult
nearRel(float a, float b, float tol)
{
    const float scale =
        std::max(1.0f, std::max(std::fabs(a), std::fabs(b)));
    if (std::fabs(a - b) <= tol * scale)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << a << " vs " << b << " differ by " << std::fabs(a - b)
        << " (tol " << tol * scale << ")";
}

/** Comparator for values that passed through BF16 rounding. */
inline ::testing::AssertionResult
bf16Near(float a, float b)
{
    return nearRel(a, b, kBf16RelTol);
}

/** Elementwise comparison of two same-shaped matrices. */
inline ::testing::AssertionResult
matricesNear(const Matrix &a, const Matrix &b, float tol)
{
    if (!a.sameShape(b))
        return ::testing::AssertionFailure() << "shape mismatch";
    for (uint32_t i = 0; i < a.size(); ++i) {
        auto r = nearRel(a.raw()[i], b.raw()[i], tol);
        if (!r)
            return r << " at flat index " << i;
    }
    return ::testing::AssertionSuccess();
}

/** A gaussian random (rows x cols) matrix. */
inline Matrix
randomMatrix(Rng &rng, uint32_t rows, uint32_t cols,
             float stddev = 1.0f)
{
    Matrix m(rows, cols);
    rng.fillGaussian(m.raw(), m.size(), stddev);
    return m;
}

/**
 * Prefill @p frames iid-random synthetic frames through the model
 * (no temporal correlation — each token is fresh gaussian noise).
 * Returns the BlockStats of every frame, in order.
 */
inline std::vector<BlockStats>
streamRandomFrames(Model &model, uint32_t frames,
                   uint32_t tokens_per_frame, uint64_t seed)
{
    Rng rng(seed);
    const uint32_t d = model.config().dModel;
    std::vector<BlockStats> stats;
    for (uint32_t f = 0; f < frames; ++f) {
        Matrix frame = randomMatrix(rng, tokens_per_frame, d);
        stats.push_back(model.prefillFrame(frame, static_cast<int32_t>(f)));
    }
    return stats;
}

/**
 * Prefill @p frames temporally-correlated synthetic frames: tokens
 * cluster around a shared base latent that drifts slowly between
 * frames, mimicking real video redundancy (high inter-frame
 * similarity, gradual scene drift). Returns every frame's BlockStats.
 */
inline std::vector<BlockStats>
streamCorrelatedFrames(Model &model, uint32_t frames,
                       uint32_t tokens_per_frame, uint64_t seed,
                       double token_noise = 0.15,
                       double drift = 0.05)
{
    Rng rng(seed);
    const uint32_t d = model.config().dModel;
    std::vector<float> base(d);
    rng.fillGaussian(base.data(), d, 1.0f);
    std::vector<BlockStats> stats;
    for (uint32_t f = 0; f < frames; ++f) {
        Matrix frame(tokens_per_frame, d);
        for (uint32_t t = 0; t < tokens_per_frame; ++t)
            for (uint32_t i = 0; i < d; ++i)
                frame.at(t, i) = base[i] +
                    static_cast<float>(rng.gaussian(0.0, token_noise));
        stats.push_back(model.prefillFrame(frame, static_cast<int32_t>(f)));
        // Slow drift between frames.
        for (auto &v : base)
            v += static_cast<float>(rng.gaussian(0.0, drift));
    }
    return stats;
}

/**
 * Greedy-decode @p tokens on a bare Model: argmax of lastLogits(),
 * then forward that token as a one-row GeneratedText block.
 * Returns the generated ids.
 */
inline std::vector<uint32_t>
greedyDecode(Model &model, uint32_t tokens)
{
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < tokens; ++i) {
        const std::vector<float> logits = model.lastLogits();
        const uint32_t best = static_cast<uint32_t>(
            std::max_element(logits.begin(), logits.end()) -
            logits.begin());
        out.push_back(best);
        model.forwardBlock(model.embedTokens({best}), -1,
                           TokenStage::GeneratedText);
    }
    return out;
}

/** Append one block of @p tokens random K/V to every layer. */
inline void
fillLayer(KVCache &kv, const ModelConfig &cfg, uint32_t tokens,
          Rng &rng, int32_t frame_id = 0,
          TokenStage stage = TokenStage::VideoFrame)
{
    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    Matrix k = randomMatrix(rng, tokens, kv_dim);
    Matrix v = randomMatrix(rng, tokens, kv_dim);
    kv.beginTokens(tokens, frame_id, stage);
    for (uint32_t l = 0; l < cfg.nLayers; ++l)
        kv.appendLayer(l, k, v);
}

// ----------------------------------------------------------------
// Deterministic serve-layer stress harness (serve_sched_test /
// serve_prio_test). Everything below is seeded: the same inputs
// always produce the same scripts, replays and counts.
// ----------------------------------------------------------------

/**
 * Verb mix of randomVerbScript(): per-event verb weights, event- and
 * token-count spans, and the trailing QA round. The defaults
 * reproduce the original serve_sched_test generator byte-for-byte
 * (same RNG stream, same draw order), so refactored suites keep
 * their exact event sequences.
 */
struct VerbMix
{
    /** Per-event verb weights (one draw out of the weight sum). */
    uint32_t questionWeight = 2;
    uint32_t generateWeight = 2;
    uint32_t frameWeight = 4;
    /** Events drawn in [minEvents, minEvents + eventSpan). */
    uint32_t minEvents = 8;
    uint32_t eventSpan = 6;
    /** Question tokens drawn in [1, 1 + questionTokenSpan).
     *  0 behaves as 1 (fixed single-token questions). */
    uint32_t questionTokenSpan = 5;
    /** Generate tokens drawn in [0, generateTokenSpan).
     *  0 behaves as 1 (always Generate{0}, dropped at enqueue). */
    uint32_t generateTokenSpan = 5;
    /** Append Question{4} + Generate{3} so every script generates. */
    bool endWithQa = true;
    /** Session name prefix (feeds the FrameGenerator substream). */
    const char *namePrefix = "sched-stress-";
    /** Rng stream name of the verb draws. */
    const char *rngStream = "sched-stress-script";

    /** Frame-ingest-heavy mix for Bulk-class sessions. */
    static VerbMix
    bulkIngest()
    {
        VerbMix m;
        m.questionWeight = 1;
        m.generateWeight = 1;
        m.frameWeight = 6;
        m.namePrefix = "sched-bulk-";
        return m;
    }
};

/** A seeded-random verb sequence over a task-specific stream. */
inline SessionScript
randomVerbScript(uint64_t seed, size_t index, const VerbMix &mix = {})
{
    Rng rng(seed, mix.rngStream);
    const auto &tasks = allCoinTasks();
    SessionScript s =
        WorkloadGenerator::coinTask(tasks[index % tasks.size()], seed);
    s.name = mix.namePrefix + std::to_string(index);
    s.events.clear();
    // All-zero weights degrade to all-frames instead of a %0 trap.
    const uint32_t total = std::max(
        1u, mix.questionWeight + mix.generateWeight + mix.frameWeight);
    const uint32_t n =
        mix.minEvents +
        (mix.eventSpan
             ? static_cast<uint32_t>(rng.nextU64() % mix.eventSpan)
             : 0);
    for (uint32_t i = 0; i < n; ++i) {
        const uint64_t draw = rng.nextU64() % total;
        if (draw < mix.questionWeight) {
            s.events.push_back(
                {SessionEvent::Type::Question,
                 1 + static_cast<uint32_t>(
                         rng.nextU64() %
                         std::max(1u, mix.questionTokenSpan))});
        } else if (draw < mix.questionWeight + mix.generateWeight) {
            s.events.push_back(
                {SessionEvent::Type::Generate,
                 static_cast<uint32_t>(
                     rng.nextU64() %
                     std::max(1u, mix.generateTokenSpan))});
        } else {
            s.events.push_back({SessionEvent::Type::Frame, 0});
        }
    }
    if (mix.endWithQa) {
        s.events.push_back({SessionEvent::Type::Question, 4});
        s.events.push_back({SessionEvent::Type::Generate, 3});
    }
    return s;
}

/** @p count scripts with consecutive seeds (baseSeed + i). */
inline std::vector<SessionScript>
randomVerbScripts(size_t count, uint64_t base_seed,
                  const VerbMix &mix = {})
{
    std::vector<SessionScript> scripts;
    scripts.reserve(count);
    for (size_t i = 0; i < count; ++i)
        scripts.push_back(randomVerbScript(base_seed + i, i, mix));
    return scripts;
}

/** One (workers, sliceEvents) scheduler shape of a stress pass. */
struct SchedShape
{
    uint32_t workers;
    uint32_t sliceEvents;
};

/** The canonical shape sweep: max interleaving (one item per
 *  slice), a default-ish slice, and drain-all (no time-slicing). */
inline std::vector<SchedShape>
schedShapeZoo()
{
    return {{4u, 1u}, {2u, 4u}, {3u, 0u}};
}

/** Exact structural equality of two run results. */
inline void
expectIdenticalRuns(const SessionRunResult &a,
                    const SessionRunResult &b)
{
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.stepLogits, b.stepLogits);
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.totalTokens, b.totalTokens);
    EXPECT_DOUBLE_EQ(a.frameRatio, b.frameRatio);
    EXPECT_DOUBLE_EQ(a.textRatio, b.textRatio);
    EXPECT_EQ(a.layerHeadRatio, b.layerHeadRatio);
}

/** The sequential ground truth for (script, spec, master seed). */
inline SessionRunResult
sequentialReplay(const ModelConfig &model, const SessionScript &script,
                 const serve::PolicySpec &spec, uint64_t session_seed)
{
    serve::PolicyInstance inst = serve::makePolicy(model, spec);
    StreamingSession seq(model, inst.active(), session_seed);
    return seq.run(script);
}

/** Every non-Full spec kind, with distinguishable parameters. */
inline std::vector<serve::PolicySpec>
policySpecZoo()
{
    ResvConfig rc;
    rc.thrWics = 0.4f;
    return {
        serve::PolicySpec::full(),
        serve::PolicySpec::flexgen(),
        serve::PolicySpec::infinigen(0.4f),
        serve::PolicySpec::infinigenP(0.6f),
        serve::PolicySpec::rekv(0.3f),
        serve::PolicySpec::resv(rc),
    };
}

/** Forwarding decorator that counts model blocks (= executed unit
 *  work items: one block per frame, question, or generate step).
 *  Register it via PolicyFactory::registerMaker to audit the
 *  scheduler's work-item accounting without perturbing results. */
class CountingPolicy final : public SelectionPolicy
{
  public:
    CountingPolicy(std::unique_ptr<SelectionPolicy> inner_policy,
                   std::atomic<uint64_t> *block_counter)
        : inner(std::move(inner_policy)), blocks(block_counter)
    {
    }

    void
    onBlockAppended(uint32_t layer, const KVCache &cache,
                    uint32_t block_start, uint32_t block_len,
                    TokenStage stage) override
    {
        if (layer == 0)
            blocks->fetch_add(1, std::memory_order_relaxed);
        inner->onBlockAppended(layer, cache, block_start, block_len,
                               stage);
    }

    LayerSelection
    select(uint32_t layer, const Matrix &q, const KVCache &cache,
           uint32_t past_len, TokenStage stage) override
    {
        return inner->select(layer, q, cache, past_len, stage);
    }

    void reset() override { inner->reset(); }

  private:
    std::unique_ptr<SelectionPolicy> inner;
    std::atomic<uint64_t> *blocks;
};

} // namespace vrex::testutil

#endif // VREX_TESTS_TESTUTIL_HH
