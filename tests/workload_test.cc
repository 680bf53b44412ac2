/**
 * @file
 * Contracts of the traffic-shape zoo (video/workload.hh) and the
 * open-loop load generator (serve/loadgen.hh), under the `workload`
 * ctest label:
 *
 *  - arrival processes are seed-deterministic and non-decreasing,
 *    and their shapes do what the names say (uniform spacing is
 *    exact, flash crowds are denser inside the burst window),
 *  - bounded-Pareto sampling respects its bounds and tail ordering,
 *  - traces are replayable: equal TraceSpecs materialize
 *    byte-identical arrival streams,
 *  - the open-loop driver's report is a pure function of
 *    (trace, config) — a concurrent run (4 workers) reports logical
 *    stats identical to a sequential one, and overload produces the
 *    same rejections every time.
 */

#include <gtest/gtest.h>

#include "serve/loadgen.hh"
#include "video/workload.hh"

using namespace vrex;

namespace
{

/** Draw the first @p n arrival timestamps of a process. */
std::vector<uint64_t>
drawArrivals(const ArrivalSpec &spec, uint64_t seed, uint32_t n)
{
    ArrivalProcess p(spec, seed);
    std::vector<uint64_t> at(n);
    for (auto &t : at)
        t = p.nextArrivalUs();
    return at;
}

/** A small spec that keeps functional engine work cheap in tests. */
TraceSpec
smallSpec()
{
    TraceSpec spec;
    spec.name = "test-trace";
    spec.seed = 77;
    spec.sessions = 10;
    spec.arrivals.kind = ArrivalSpec::Kind::Poisson;
    spec.arrivals.ratePerSec = 40.0;
    spec.profileMix = {0.7, 0.3, 0.0, 0.0};
    return spec;
}

} // namespace

// ---- arrival processes --------------------------------------------

TEST(ArrivalProcess, SameSeedSameTimestamps)
{
    ArrivalSpec spec;
    for (auto kind :
         {ArrivalSpec::Kind::Uniform, ArrivalSpec::Kind::Poisson,
          ArrivalSpec::Kind::Diurnal,
          ArrivalSpec::Kind::FlashCrowd}) {
        spec.kind = kind;
        EXPECT_EQ(drawArrivals(spec, 5, 64), drawArrivals(spec, 5, 64))
            << arrivalKindName(kind);
        // Uniform is seed-free by construction; the stochastic
        // shapes must actually consume their seed.
        if (kind != ArrivalSpec::Kind::Uniform) {
            EXPECT_NE(drawArrivals(spec, 5, 64),
                      drawArrivals(spec, 6, 64))
                << arrivalKindName(kind);
        }
    }
}

TEST(ArrivalProcess, TimestampsNonDecreasing)
{
    ArrivalSpec spec;
    for (auto kind :
         {ArrivalSpec::Kind::Uniform, ArrivalSpec::Kind::Poisson,
          ArrivalSpec::Kind::Diurnal,
          ArrivalSpec::Kind::FlashCrowd}) {
        spec.kind = kind;
        auto at = drawArrivals(spec, 11, 200);
        for (size_t i = 1; i < at.size(); ++i)
            EXPECT_GE(at[i], at[i - 1]) << arrivalKindName(kind);
    }
}

TEST(ArrivalProcess, UniformSpacingIsExact)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Uniform;
    spec.ratePerSec = 8.0; // 125 ms apart
    auto at = drawArrivals(spec, 1, 9);
    for (size_t i = 0; i < at.size(); ++i)
        EXPECT_EQ(at[i], i * 125'000u);
}

TEST(ArrivalProcess, PoissonMeanRateClose)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Poisson;
    spec.ratePerSec = 50.0;
    const uint32_t n = 2000;
    auto at = drawArrivals(spec, 21, n);
    const double rate = n / (at.back() / 1e6);
    EXPECT_NEAR(rate, spec.ratePerSec, 0.1 * spec.ratePerSec);
}

TEST(ArrivalProcess, FlashCrowdDenserInsideBurst)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::FlashCrowd;
    spec.ratePerSec = 10.0;
    spec.burstStartSec = 1.0;
    spec.burstLenSec = 1.0;
    spec.burstMultiplier = 10.0;
    auto at = drawArrivals(spec, 33, 400);
    uint32_t before = 0, inside = 0;
    for (uint64_t t : at) {
        before += t < 1'000'000;
        inside += t >= 1'000'000 && t < 2'000'000;
    }
    // Equal-length windows; the burst one should be several times
    // denser (expected 10x, leave slack for sampling noise).
    EXPECT_GT(inside, 3 * before);
}

TEST(ArrivalProcess, DegenerateSpecsDie)
{
    ArrivalSpec bad_rate;
    bad_rate.ratePerSec = 0.0;
    EXPECT_DEATH(ArrivalProcess(bad_rate, 1), "rate must be positive");

    ArrivalSpec bad_depth;
    bad_depth.kind = ArrivalSpec::Kind::Diurnal;
    bad_depth.diurnalDepth = 1.0; // peak rate 2x, trough 0: excluded
    EXPECT_DEATH(ArrivalProcess(bad_depth, 1), "depth must be in");

    ArrivalSpec bad_burst;
    bad_burst.kind = ArrivalSpec::Kind::FlashCrowd;
    bad_burst.burstMultiplier = 0.5;
    EXPECT_DEATH(ArrivalProcess(bad_burst, 1), "multiplier");
}

// ---- heavy tails ---------------------------------------------------

TEST(ParetoLength, BoundsAndPointMass)
{
    Rng rng(9, "pareto-test");
    for (int i = 0; i < 500; ++i) {
        const uint32_t v = paretoLength(rng, 10, 200, 1.3);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 200u);
    }
    EXPECT_EQ(paretoLength(rng, 42, 42, 1.0), 42u);
}

TEST(ParetoLength, LowerAlphaHeavierTail)
{
    Rng r1(4, "tail-a"), r2(4, "tail-a");
    double heavy = 0, light = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        heavy += paretoLength(r1, 10, 1000, 0.8);
        light += paretoLength(r2, 10, 1000, 2.5);
    }
    EXPECT_GT(heavy / n, light / n);
}

TEST(ParetoLength, DegenerateInputsDie)
{
    Rng rng(1, "pareto-death");
    EXPECT_DEATH((void)paretoLength(rng, 0, 10, 1.0), "0 < lo <= hi");
    EXPECT_DEATH((void)paretoLength(rng, 20, 10, 1.0), "0 < lo <= hi");
    EXPECT_DEATH((void)paretoLength(rng, 1, 10, 0.0), "tail index");
}

// ---- profiles and traces ------------------------------------------

TEST(Profiles, ClassMappingAndDeterminism)
{
    EXPECT_EQ(profileClass(SessionProfile::QaAverage),
              TrafficClass::Interactive);
    EXPECT_EQ(profileClass(SessionProfile::ChattyAdversary),
              TrafficClass::Interactive);
    EXPECT_EQ(profileClass(SessionProfile::LongVideoMarathon),
              TrafficClass::Bulk);
    EXPECT_EQ(profileClass(SessionProfile::BulkIngest),
              TrafficClass::Bulk);

    for (uint32_t p = 0; p < kSessionProfiles; ++p) {
        const auto profile = static_cast<SessionProfile>(p);
        SessionScript a = profileScript(profile, 123);
        SessionScript b = profileScript(profile, 123);
        ASSERT_EQ(a.events.size(), b.events.size())
            << sessionProfileName(profile);
        for (size_t i = 0; i < a.events.size(); ++i) {
            EXPECT_EQ(a.events[i].type, b.events[i].type);
            EXPECT_EQ(a.events[i].tokens, b.events[i].tokens);
        }
        EXPECT_FALSE(a.events.empty());
    }
}

TEST(Trace, ReplayIsByteIdentical)
{
    const TraceSpec spec = smallSpec();
    TrafficTrace a = buildTrace(spec);
    TrafficTrace b = buildTrace(spec);
    ASSERT_EQ(a.arrivals.size(), spec.sessions);
    ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
    for (size_t i = 0; i < a.arrivals.size(); ++i) {
        const TraceArrival &x = a.arrivals[i];
        const TraceArrival &y = b.arrivals[i];
        EXPECT_EQ(x.atUs, y.atUs);
        EXPECT_EQ(x.profile, y.profile);
        EXPECT_EQ(x.cls, y.cls);
        EXPECT_EQ(x.script.name, y.script.name);
        EXPECT_EQ(x.script.seed, y.script.seed);
        ASSERT_EQ(x.script.events.size(), y.script.events.size());
        for (size_t e = 0; e < x.script.events.size(); ++e) {
            EXPECT_EQ(x.script.events[e].type,
                      y.script.events[e].type);
            EXPECT_EQ(x.script.events[e].tokens,
                      y.script.events[e].tokens);
        }
    }
    EXPECT_EQ(a.horizonUs(), b.horizonUs());
    EXPECT_EQ(a.totalUnitItems(), b.totalUnitItems());
}

TEST(Trace, ClassesFollowProfiles)
{
    TrafficTrace t = buildTrace(smallSpec());
    EXPECT_EQ(t.countClass(TrafficClass::Interactive),
              t.spec.sessions);
    EXPECT_EQ(t.countClass(TrafficClass::Bulk), 0u);
    for (const TraceArrival &a : t.arrivals)
        EXPECT_EQ(a.cls, profileClass(a.profile));

    TraceSpec bulk = smallSpec();
    bulk.profileMix = {0.0, 0.0, 0.0, 1.0};
    TrafficTrace tb = buildTrace(bulk);
    EXPECT_EQ(tb.countClass(TrafficClass::Bulk), tb.spec.sessions);
}

TEST(Trace, ZooCatalogResolves)
{
    for (const std::string &name : traceZoo()) {
        TraceSpec spec = traceSpecByName(name);
        EXPECT_EQ(spec.name, name);
        EXPECT_GT(spec.sessions, 0u);
        TraceSpec scaled = traceSpecByName(name, 5);
        EXPECT_EQ(scaled.sessions, 5u);
    }
    EXPECT_DEATH((void)traceSpecByName("no-such-trace"),
                 "unknown trace");
}

TEST(Trace, DegenerateSpecsDie)
{
    TraceSpec zero = smallSpec();
    zero.sessions = 0;
    EXPECT_DEATH((void)buildTrace(zero), "at least one session");

    TraceSpec no_mix = smallSpec();
    no_mix.profileMix = {0.0, 0.0, 0.0, 0.0};
    EXPECT_DEATH((void)buildTrace(no_mix), "profile mix");

    TraceSpec neg_mix = smallSpec();
    neg_mix.profileMix = {1.0, -0.5, 0.0, 0.0};
    EXPECT_DEATH((void)buildTrace(neg_mix), "profile weight");
}

// ---- the open-loop driver -----------------------------------------

namespace
{

serve::LoadGenConfig
testLoadConfig(uint32_t workers)
{
    serve::LoadGenConfig cfg;
    cfg.workers = workers;
    cfg.sched.maxLiveSessions = 3;
    cfg.virtualServers = 2;
    // Slow virtual service keeps sessions live across arrivals, so
    // the admission cap actually bites at this scale.
    cfg.virtualUsPerItem = 20'000;
    return cfg;
}

void
expectSameReport(const serve::LoadReport &a,
                 const serve::LoadReport &b)
{
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.horizonUs, b.horizonUs);
    EXPECT_EQ(a.endUs, b.endUs);
    for (uint32_t c = 0; c < kTrafficClasses; ++c) {
        const serve::LoadClassReport &x = a.classes[c];
        const serve::LoadClassReport &y = b.classes[c];
        EXPECT_EQ(x.offered, y.offered);
        EXPECT_EQ(x.admitted, y.admitted);
        EXPECT_EQ(x.rejectedSessions, y.rejectedSessions);
        EXPECT_EQ(x.sloMet, y.sloMet);
        EXPECT_EQ(x.itemsOffered, y.itemsOffered);
        EXPECT_EQ(x.itemsEnqueued, y.itemsEnqueued);
        EXPECT_EQ(x.itemsRejected, y.itemsRejected);
        EXPECT_EQ(x.flowP50Us, y.flowP50Us);
        EXPECT_EQ(x.flowP95Us, y.flowP95Us);
        EXPECT_EQ(x.flowP99Us, y.flowP99Us);
        EXPECT_EQ(x.flowMaxUs, y.flowMaxUs);
    }
    // Engine logical counters (wall-clock fields excluded).
    EXPECT_EQ(a.engine.admitted, b.engine.admitted);
    EXPECT_EQ(a.engine.rejectedAdmissions,
              b.engine.rejectedAdmissions);
    EXPECT_EQ(a.engine.itemsExecuted, b.engine.itemsExecuted);
}

} // namespace

TEST(LoadGen, ConcurrentMatchesSequential)
{
    const TrafficTrace trace = buildTrace(smallSpec());
    serve::LoadGen seq(testLoadConfig(1));
    serve::LoadGen conc(testLoadConfig(4));
    expectSameReport(seq.run(trace), conc.run(trace));
}

TEST(LoadGen, OverloadRejectsRepeatably)
{
    const TrafficTrace trace = buildTrace(smallSpec());
    serve::LoadGen gen(testLoadConfig(2));
    const serve::LoadReport a = gen.run(trace);
    // The load point is deliberately overloaded: rejections are
    // measured, not avoided, and bookkeeping stays consistent.
    EXPECT_GT(a.rejectedSessions(), 0u);
    EXPECT_EQ(a.offered(), trace.spec.sessions);
    EXPECT_EQ(a.admitted() + a.rejectedSessions(), a.offered());
    EXPECT_EQ(a.engine.itemsExecuted, a.itemsEnqueued());
    EXPECT_GE(a.endUs, a.horizonUs);
    // Same generator, same trace: byte-identical verdicts.
    expectSameReport(a, gen.run(trace));
}

TEST(LoadGen, UnderloadAdmitsEverything)
{
    TraceSpec spec = smallSpec();
    spec.sessions = 4;
    spec.arrivals.ratePerSec = 1.0; // far apart
    serve::LoadGenConfig cfg = testLoadConfig(2);
    cfg.virtualUsPerItem = 100; // fast virtual service
    serve::LoadGen gen(cfg);
    const serve::LoadReport r = gen.run(buildTrace(spec));
    EXPECT_EQ(r.admitted(), 4u);
    EXPECT_EQ(r.rejectedSessions(), 0u);
    EXPECT_EQ(r.itemsRejected(), 0u);
    EXPECT_EQ(r.sloMet(), 4u);
    EXPECT_GT(r.goodputPerSec(), 0.0);
}

TEST(LoadGen, DegenerateConfigsDie)
{
    serve::LoadGenConfig no_servers = testLoadConfig(1);
    no_servers.virtualServers = 0;
    EXPECT_DEATH(serve::LoadGen{no_servers}, "virtual server");

    serve::LoadGenConfig no_service = testLoadConfig(1);
    no_service.virtualUsPerItem = 0;
    EXPECT_DEATH(serve::LoadGen{no_service}, "service time");
}

TEST(LoadGen, ClassMappingIsOneToOne)
{
    EXPECT_EQ(serve::schedClassFor(TrafficClass::Interactive),
              serve::SchedClass::Interactive);
    EXPECT_EQ(serve::schedClassFor(TrafficClass::Bulk),
              serve::SchedClass::Bulk);
}
