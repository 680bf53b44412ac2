/**
 * @file
 * Cross-session batched generation (PR 10): the fused dispatch path
 * must be a pure throughput optimization — per-session results stay
 * byte-identical to sequential StreamingSession replays whether or
 * not steps coalesce, across scheduler shapes, retrieval policies,
 * and seed mixes (equal seeds share weights and exercise the grouped
 * matmuls; distinct seeds exercise per-row group boundaries).
 *
 * Also locks the Stats::batch accounting: a staged same-shape burst
 * coalesces into exactly the expected fused steps, the size
 * histogram and fill ratio agree with the counters, maxBatch caps
 * the observed size, and solo Generate units are tallied when the
 * fused path is armed but a step cannot coalesce. The hibernation
 * interplay (a fused member waking from the cold store mid-burst)
 * rides the same identity check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "pipeline/streaming_session.hh"
#include "serve/engine.hh"
#include "serve/stats.hh"
#include "testutil.hh"
#include "video/workload.hh"

using namespace vrex;
using namespace vrex::serve;
using testutil::expectIdenticalRuns;
using testutil::sequentialReplay;

namespace
{

BatchConfig
batchOn(uint32_t max_batch = 16)
{
    BatchConfig b;
    b.enabled = true;
    b.maxBatch = max_batch;
    return b;
}

/** A script that is all single-step generation after a tiny warmup:
 *  the maximally coalescible shape. */
SessionScript
generateHeavyScript(uint64_t seed, size_t index, uint32_t steps)
{
    testutil::VerbMix mix;
    mix.minEvents = 1;
    mix.eventSpan = 0;
    mix.frameWeight = 1;
    mix.questionWeight = 0;
    mix.generateWeight = 0;
    mix.endWithQa = false;
    mix.namePrefix = "batch-gen-";
    SessionScript s = testutil::randomVerbScript(seed, index, mix);
    s.events.push_back({SessionEvent::Type::Generate, steps});
    return s;
}

} // namespace

// ---------------------------------------------------------------
// Byte-identity: batched == sequential, forced on
// ---------------------------------------------------------------

TEST(BatchIdentity, ForcedOnMatchesSequentialAcrossShapesAndPolicies)
{
    // The serve_sched_test stress sweep with the fused path armed:
    // same scripts, same policies, same shapes — and the acceptance
    // bar is unchanged, byte-identity against the sequential replay.
    const ModelConfig model = ModelConfig::tiny();
    const std::vector<PolicySpec> specs = testutil::policySpecZoo();
    const size_t kSessions = 6;

    for (const bool shared_seed : {true, false}) {
        for (const auto &[workers, slice] : testutil::schedShapeZoo()) {
            EngineConfig cfg;
            cfg.model = model;
            cfg.workers = workers;
            cfg.sched.sliceEvents = slice;
            cfg.batching = batchOn();
            Engine engine(cfg);

            std::vector<SessionScript> scripts;
            std::vector<uint64_t> seeds;
            std::vector<SessionId> ids;
            for (size_t i = 0; i < kSessions; ++i) {
                scripts.push_back(
                    testutil::randomVerbScript(800 + i, i));
                SessionOptions o =
                    SessionOptions::fromScript(scripts[i]);
                o.policy = specs[i % specs.size()];
                seeds.push_back(shared_seed ? 2000 : 2000 + i);
                o.sessionSeed = seeds[i];
                ids.push_back(engine.createSession(o));
            }

            // Staged burst: everything enqueued before any dispatch
            // maximizes the ready-peer overlap the claim path sees.
            engine.pause();
            for (size_t i = 0; i < kSessions; ++i)
                engine.enqueue(ids[i], scripts[i].events);
            engine.resume();

            for (size_t i = 0; i < kSessions; ++i) {
                SessionRunResult concurrent = engine.result(ids[i]);
                expectIdenticalRuns(
                    concurrent,
                    sequentialReplay(model, scripts[i],
                                     specs[i % specs.size()],
                                     seeds[i]));
                engine.closeSession(ids[i]);
            }

            Stats st = engine.stats();
            EXPECT_EQ(st.itemsEnqueued, st.itemsExecuted);
            EXPECT_TRUE(st.batch.config.enabled);
            EXPECT_LE(st.batch.maxBatchObserved,
                      st.batch.config.maxBatch);
            EXPECT_GE(st.batch.coalescedMembers,
                      2 * st.batch.coalescedSteps);
        }
    }
}

TEST(BatchIdentity, InterleavedFeedingMatchesSequential)
{
    // Chunked interleaved feeding (the serve_sched_test pattern)
    // instead of a staged burst: coalescing opportunities arrive
    // raggedly, exercising the solo/fused mode switches mid-session.
    const ModelConfig model = ModelConfig::tiny();
    const std::vector<PolicySpec> specs = testutil::policySpecZoo();
    const size_t kSessions = 5;

    EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 4;
    cfg.sched.sliceEvents = 1;
    cfg.batching = batchOn(4);
    Engine engine(cfg);

    std::vector<SessionScript> scripts;
    std::vector<SessionId> ids;
    for (size_t i = 0; i < kSessions; ++i) {
        scripts.push_back(testutil::randomVerbScript(900 + i, i));
        SessionOptions o = SessionOptions::fromScript(scripts[i]);
        o.policy = specs[i % specs.size()];
        o.sessionSeed = 3000 + i;
        ids.push_back(engine.createSession(o));
    }

    Rng feed(4242, "batch-feed");
    std::vector<size_t> cursor(kSessions, 0);
    bool remaining = true;
    while (remaining) {
        remaining = false;
        for (size_t i = 0; i < kSessions; ++i) {
            const auto &events = scripts[i].events;
            if (cursor[i] >= events.size())
                continue;
            const size_t k = std::min<size_t>(
                1 + feed.nextU64() % 3, events.size() - cursor[i]);
            engine.enqueue(
                ids[i],
                {events.begin() + static_cast<ptrdiff_t>(cursor[i]),
                 events.begin() +
                     static_cast<ptrdiff_t>(cursor[i] + k)});
            cursor[i] += k;
            remaining |= cursor[i] < events.size();
        }
    }

    for (size_t i = 0; i < kSessions; ++i) {
        SessionRunResult concurrent = engine.result(ids[i]);
        engine.closeSession(ids[i]);
        expectIdenticalRuns(
            concurrent,
            sequentialReplay(model, scripts[i],
                             specs[i % specs.size()], 3000 + i));
    }
}

// ---------------------------------------------------------------
// Stats::batch accounting
// ---------------------------------------------------------------

TEST(BatchStats, StagedBurstCoalescesExactly)
{
    // 8 all-generation sessions staged behind pause() on one worker:
    // every round all 8 are ready together, so each of the 5 steps
    // fuses all 8 members — the counters are exact, not just sane.
    const ModelConfig model = ModelConfig::tiny();
    const size_t kSessions = 8;
    const uint32_t kSteps = 5;

    EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 1;
    cfg.batching = batchOn();
    Engine engine(cfg);

    std::vector<SessionId> ids;
    for (size_t i = 0; i < kSessions; ++i) {
        SessionOptions o;
        o.name = "burst-" + std::to_string(i);
        ids.push_back(engine.createSession(o));
    }
    engine.pause();
    for (SessionId id : ids)
        engine.enqueue(
            id, {{SessionEvent::Type::Generate, kSteps}});
    engine.resume();
    engine.waitAll();

    Stats st = engine.stats();
    EXPECT_EQ(st.batch.coalescedSteps, kSteps);
    EXPECT_EQ(st.batch.coalescedMembers, kSteps * kSessions);
    EXPECT_EQ(st.batch.soloSteps, 0u);
    EXPECT_EQ(st.batch.maxBatchObserved, kSessions);
    EXPECT_DOUBLE_EQ(st.batch.meanBatchSize(),
                     static_cast<double>(kSessions));
    EXPECT_DOUBLE_EQ(st.batch.fillRatio(),
                     static_cast<double>(kSessions) /
                         st.batch.config.maxBatch);
    EXPECT_EQ(st.batch.sizeHist.total(), st.batch.coalescedSteps);
    // Every member's step counts one unit item for its session.
    EXPECT_EQ(st.itemsExecuted, kSteps * kSessions);
    for (SessionId id : ids)
        engine.closeSession(id);
}

TEST(BatchStats, MaxBatchCapsFusedSteps)
{
    const ModelConfig model = ModelConfig::tiny();
    const size_t kSessions = 7;

    EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 1;
    cfg.batching = batchOn(3);
    Engine engine(cfg);

    std::vector<SessionId> ids;
    for (size_t i = 0; i < kSessions; ++i)
        ids.push_back(engine.createSession());
    engine.pause();
    for (SessionId id : ids)
        engine.enqueue(id, {{SessionEvent::Type::Generate, 2}});
    engine.resume();
    engine.waitAll();

    Stats st = engine.stats();
    EXPECT_LE(st.batch.maxBatchObserved, 3u);
    EXPECT_GT(st.batch.coalescedSteps, 0u);
    // Units are conserved across the solo/fused split.
    EXPECT_EQ(st.batch.coalescedMembers + st.batch.soloSteps,
              kSessions * 2u);
    for (SessionId id : ids)
        engine.closeSession(id);
}

TEST(BatchStats, DisabledByDefaultAndSoloTallied)
{
    const ModelConfig model = ModelConfig::tiny();
    {
        EngineConfig cfg;
        cfg.model = model;
        Engine engine(cfg);
        SessionId id = engine.createSession();
        engine.enqueue(id, {{SessionEvent::Type::Generate, 3}});
        engine.waitAll();
        Stats st = engine.stats();
        EXPECT_FALSE(st.batch.config.enabled);
        EXPECT_EQ(st.batch.coalescedSteps, 0u);
        EXPECT_EQ(st.batch.soloSteps, 0u); // Not even tallied.
        engine.closeSession(id);
    }
    {
        // Armed but alone: generation cannot coalesce, so every
        // step lands in the solo tally.
        EngineConfig cfg;
        cfg.model = model;
        cfg.workers = 1;
        cfg.batching = batchOn();
        Engine engine(cfg);
        SessionId id = engine.createSession();
        engine.enqueue(id, {{SessionEvent::Type::Generate, 3}});
        engine.waitAll();
        Stats st = engine.stats();
        EXPECT_EQ(st.batch.coalescedSteps, 0u);
        EXPECT_EQ(st.batch.soloSteps, 3u);
        engine.closeSession(id);
    }
}

// ---------------------------------------------------------------
// Hibernation interplay
// ---------------------------------------------------------------

TEST(BatchHibernate, FusedMembersWakeFromColdStoreBitExact)
{
    // A 1-byte budget hibernates every idle session the next slice's
    // enforcement sweep can pin. Ragged script lengths make short
    // sessions drain (and hibernate) while long ones still step;
    // a second staged wave then pulls the hibernated ones straight
    // into fused steps — runBatch must wake them from the cold store
    // first, and the identity bar is unchanged.
    const ModelConfig model = ModelConfig::tiny();
    const std::vector<PolicySpec> specs = testutil::policySpecZoo();
    const size_t kSessions = 5;

    EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 2;
    cfg.sched.sliceEvents = 1;
    cfg.batching = batchOn();
    cfg.kvBudget.budgetBytes = 1;
    Engine engine(cfg);

    std::vector<SessionScript> scripts;
    std::vector<SessionId> ids;
    for (size_t i = 0; i < kSessions; ++i) {
        // 1..9 generation steps: members leave the lockstep early.
        scripts.push_back(generateHeavyScript(
            600 + i, i, 1 + 2 * static_cast<uint32_t>(i)));
        SessionOptions o = SessionOptions::fromScript(scripts[i]);
        o.policy = specs[i % specs.size()];
        o.sessionSeed = 4000 + i;
        ids.push_back(engine.createSession(o));
    }
    engine.pause();
    for (size_t i = 0; i < kSessions; ++i)
        engine.enqueue(ids[i], scripts[i].events);
    engine.resume();
    engine.waitAll();

    // Everyone is idle now: one more solo slice's enforcement sweep
    // hibernates the rest, then the second wave (staged again) fuses
    // cold and warm members into the same steps.
    const SessionEvent wave2{SessionEvent::Type::Generate, 4};
    engine.pause();
    for (size_t i = 0; i < kSessions; ++i) {
        scripts[i].events.push_back(wave2);
        engine.enqueue(ids[i], {wave2});
    }
    engine.resume();

    for (size_t i = 0; i < kSessions; ++i) {
        SessionRunResult concurrent = engine.result(ids[i]);
        engine.closeSession(ids[i]);
        expectIdenticalRuns(
            concurrent,
            sequentialReplay(model, scripts[i],
                             specs[i % specs.size()], 4000 + i));
    }
    Stats st = engine.stats();
    EXPECT_GT(st.kv.hibernates, 0u);
    EXPECT_GT(st.kv.wakes, 0u);
    EXPECT_GT(st.batch.coalescedSteps, 0u);
}

// ---------------------------------------------------------------
// Fused model step, engine-free
// ---------------------------------------------------------------

TEST(BatchStep, GenerateStepBatchedMatchesSoloSessions)
{
    // Direct StreamingSession-level identity: fused vs solo stepping
    // of mixed-seed sessions (two weight groups) with different
    // context depths.
    const ModelConfig model = ModelConfig::tiny();
    const uint64_t seeds[4] = {7, 7, 9, 7};

    std::vector<PolicyInstance> fused_pol, solo_pol;
    std::vector<std::unique_ptr<StreamingSession>> fused, solo;
    for (int i = 0; i < 4; ++i) {
        SessionScript warm = generateHeavyScript(100 + i, i, 0);
        for (auto *vec : {&fused, &solo}) {
            auto &pols = vec == &fused ? fused_pol : solo_pol;
            pols.push_back(makePolicy(model, PolicySpec::rekv(0.5f)));
            vec->push_back(std::make_unique<StreamingSession>(
                model, pols.back().active(), seeds[i]));
            vec->back()->begin(warm.name, warm.video, warm.seed);
            for (const SessionEvent &e : warm.events)
                vec->back()->apply(e);
        }
    }

    std::vector<StreamingSession *> members;
    for (auto &s : fused)
        members.push_back(s.get());
    for (int step = 0; step < 3; ++step) {
        StreamingSession::generateStep(members);
        for (auto &s : solo)
            s->apply({SessionEvent::Type::Generate, 1});
    }
    for (int i = 0; i < 4; ++i)
        expectIdenticalRuns(fused[i]->snapshot(),
                            solo[i]->snapshot());
}
