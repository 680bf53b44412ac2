/**
 * @file
 * Command-line driver for the hardware timing simulator: pick a
 * platform, a retrieval method, a cache length and a batch size and
 * get the full per-frame / TPOT breakdown. Useful for exploring
 * configurations beyond the paper's sweep points.
 *
 * Usage:
 *   sim_cli [--hw agx|a100|vrex8|vrex48] [--method flexgen|infinigen|
 *            infinigenp|rekv|resv|resv-kvpu|resv-sw|gpu|oaken]
 *           [--cache N] [--batch N] [--frame-tokens N] [--serve N]
 *           [--max-live M] [--class-mix N]
 *           [--sessions N] [--kv-budget BYTES]
 *           [--workload NAME]
 *
 * With --serve N the CLI additionally runs N concurrent *functional*
 * sessions through vrex::serve::Engine under the same retrieval
 * method and prints the measured selection ratios next to the
 * analytic model's assumptions. --max-live M caps concurrently
 * admitted sessions: overflow sessions are *rejected* by admission
 * control and retried in waves as live sessions close, demonstrating
 * the scheduler's backpressure path; the run ends with the engine's
 * serve::Stats snapshot (admissions, queue depths, wait/service
 * times).
 *
 * With --class-mix N the CLI drives a mixed workload of N
 * latency-sensitive Interactive QA sessions against N Bulk
 * frame-ingest sessions under weighted round-robin {3,1}, a Bulk
 * rate limit, and deadline-aware slicing, then prints the per-class
 * scheduler panel: slices, work items, rate-limited slices, deadline
 * promotions, and the p50/p95/p99 wait and service latency
 * percentiles from serve::Stats.
 *
 * With --sessions N --kv-budget BYTES the CLI over-subscribes the
 * engine's KV budget: N sessions (e.g. 10000) each ingest a short
 * clip and one QA round while the budget only fits a small fraction
 * of them resident, so the engine hibernates idle sessions to the
 * cold store as it goes. A sample of sessions is then asked a
 * trailing question — waking them transparently — and the run ends
 * with the hibernation panel from serve::Stats::kv: resident vs.
 * hibernated sessions, cold-store bytes, hibernate/wake counts and
 * latency percentiles.
 *
 * With --workload NAME the CLI replays a named scenario from the
 * traffic-shape zoo (src/video/workload.hh) through the *open-loop*
 * load generator: arrivals fire on the deterministic virtual clock
 * regardless of completions, so overload produces measured
 * rejections instead of retry waves. Prints the per-class
 * offered/admitted/rejected counts, SLO attainment, virtual
 * flow-time percentiles and goodput. --max-live M overrides the
 * admission cap (default 10). Unknown names panic with the catalog.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "serve/engine.hh"
#include "serve/loadgen.hh"
#include "sim/hw_config.hh"
#include "sim/method_model.hh"
#include "sim/roofline.hh"
#include "sim/system_model.hh"
#include "video/workload.hh"

using namespace vrex;

namespace
{

AcceleratorConfig
parseHw(const std::string &name)
{
    if (name == "agx")
        return AcceleratorConfig::agxOrin();
    if (name == "a100")
        return AcceleratorConfig::a100();
    if (name == "vrex8")
        return AcceleratorConfig::vrex8();
    if (name == "vrex48")
        return AcceleratorConfig::vrex48();
    fatal("unknown hardware '%s' (agx|a100|vrex8|vrex48)",
          name.c_str());
}

MethodModel
parseMethod(const std::string &name)
{
    if (name == "flexgen")
        return MethodModel::flexgen();
    if (name == "infinigen")
        return MethodModel::infinigen();
    if (name == "infinigenp")
        return MethodModel::infinigenP();
    if (name == "rekv")
        return MethodModel::rekv();
    if (name == "resv")
        return MethodModel::resvFull();
    if (name == "resv-kvpu")
        return MethodModel::resvKvpu();
    if (name == "resv-sw")
        return MethodModel::resvSoftware();
    if (name == "gpu")
        return MethodModel::gpuNoOffload();
    if (name == "oaken")
        return MethodModel::oaken();
    if (name == "resv-oaken")
        return MethodModel::resvOaken();
    fatal("unknown method '%s'", name.c_str());
}

/** The functional PolicySpec closest to a timing-model method. */
serve::PolicySpec
specForMethod(const std::string &name)
{
    if (name == "flexgen")
        return serve::PolicySpec::flexgen();
    if (name == "infinigen")
        return serve::PolicySpec::infinigen(0.5f);
    if (name == "infinigenp")
        return serve::PolicySpec::infinigenP(0.5f);
    if (name == "rekv")
        return serve::PolicySpec::rekv(0.5f);
    if (name == "resv" || name == "resv-kvpu" || name == "resv-sw" ||
        name == "resv-oaken")
        return serve::PolicySpec::resv();
    // gpu / oaken keep the whole cache resident: full attention.
    return serve::PolicySpec::full();
}

void
serveFunctional(const std::string &method, uint32_t sessions,
                uint32_t max_live)
{
    serve::EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.policy = specForMethod(method);
    cfg.sched.maxLiveSessions = max_live; // 0 = unlimited
    serve::Engine engine(cfg);

    std::printf("\n[functional serve] %u sessions, policy '%s', "
                "%u workers, max live %u\n", sessions,
                serve::policyKindName(cfg.policy.kind).c_str(),
                engine.workerCount(), max_live);

    // Admit in waves: sessions the admission controller rejects are
    // retried after the current wave's sessions close.
    std::vector<uint32_t> todo;
    for (uint32_t s = 0; s < sessions; ++s)
        todo.push_back(s);
    double frame_sum = 0.0, text_sum = 0.0;
    uint32_t wave = 0;
    while (!todo.empty()) {
        std::vector<uint32_t> deferred;
        std::vector<std::pair<uint32_t, serve::SessionId>> admitted;
        for (uint32_t s : todo) {
            SessionScript script =
                WorkloadGenerator::coinAverage(/*seed=*/200 + s);
            script.name = "cli-session-" + std::to_string(s);
            serve::Admission a = engine.tryCreateSession(
                serve::SessionOptions::fromScript(script));
            if (!a.admitted()) {
                deferred.push_back(s);
                continue;
            }
            engine.enqueue(a.id, script.events);
            admitted.emplace_back(s, a.id);
        }
        if (wave > 0 || !deferred.empty())
            std::printf("  wave %u: %zu admitted, %zu deferred by "
                        "admission control\n", wave, admitted.size(),
                        deferred.size());
        for (const auto &[s, id] : admitted) {
            SessionRunResult r = engine.result(id);
            engine.closeSession(id);
            frame_sum += r.frameRatio;
            text_sum += r.textRatio;
            std::printf("  session %u: %u frames, %zu answer tokens, "
                        "ratio frame %.1f%% / text %.1f%%\n", s,
                        r.frames, r.generated.size(),
                        100.0 * r.frameRatio, 100.0 * r.textRatio);
        }
        todo = std::move(deferred);
        ++wave;
    }
    std::printf("  measured mean ratio: frame %.1f%%, text %.1f%% "
                "(the analytic model's selection-ratio inputs)\n",
                100.0 * frame_sum / sessions,
                100.0 * text_sum / sessions);

    serve::Stats st = engine.stats();
    std::printf("  [scheduler] admitted %llu, rejected %llu, "
                "max live %u, work items %llu in %llu slices, "
                "max queue depth %u, max wait %llu slices, "
                "mean wait %.2f ms, mean service %.2f ms\n",
                static_cast<unsigned long long>(st.admitted),
                static_cast<unsigned long long>(st.rejectedAdmissions),
                st.maxLiveObserved,
                static_cast<unsigned long long>(st.itemsExecuted),
                static_cast<unsigned long long>(st.slices),
                st.maxQueueDepth,
                static_cast<unsigned long long>(st.maxWaitSlices),
                st.meanWaitMs(), st.meanServiceMs());
}

void
serveClassMix(const std::string &method, uint32_t pairs)
{
    serve::EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.policy = specForMethod(method);
    cfg.sched.sliceEvents = 4;
    cfg.sched.classWeights = {3, 1}; // 3 Interactive slices per Bulk
    cfg.sched.deadlineSlices = 8;    // promote items older than 8
    serve::Engine engine(cfg);

    std::printf("\n[class mix] %u interactive QA + %u bulk ingest "
                "sessions, policy '%s', %u workers, weights {3,1}, "
                "bulk rate limit 2, deadline 8 slices\n", pairs,
                pairs, serve::policyKindName(cfg.policy.kind).c_str(),
                engine.workerCount());

    std::vector<serve::SessionId> ids;
    for (uint32_t s = 0; s < pairs; ++s) {
        // Interactive: short clip, chatty QA rounds.
        SessionScript qa = WorkloadGenerator::coinAverage(300 + s);
        qa.name = "mix-interactive-" + std::to_string(s);
        qa.events.assign(3, {SessionEvent::Type::Frame, 0});
        for (int round = 0; round < 3; ++round) {
            qa.events.push_back({SessionEvent::Type::Question, 3});
            qa.events.push_back({SessionEvent::Type::Generate, 3});
        }
        serve::SessionOptions oi =
            serve::SessionOptions::fromScript(qa);
        oi.schedClass = serve::SchedClass::Interactive;
        serve::SessionId qa_id = engine.createSession(oi);
        engine.enqueue(qa_id, qa.events);
        ids.push_back(qa_id);

        // Bulk: long frame backlog, one trailing QA round, rate
        // limited to 2 items per dispatch turn.
        SessionScript ingest = WorkloadGenerator::coinAverage(400 + s);
        ingest.name = "mix-bulk-" + std::to_string(s);
        ingest.events.assign(24, {SessionEvent::Type::Frame, 0});
        ingest.events.push_back({SessionEvent::Type::Question, 2});
        ingest.events.push_back({SessionEvent::Type::Generate, 2});
        serve::SessionOptions ob =
            serve::SessionOptions::fromScript(ingest);
        ob.schedClass = serve::SchedClass::Bulk;
        ob.maxItemsPerRound = 2;
        serve::SessionId ingest_id = engine.createSession(ob);
        engine.enqueue(ingest_id, ingest.events);
        ids.push_back(ingest_id);
    }
    engine.waitAll();

    const serve::Stats st = engine.stats();
    std::printf("  %-12s %8s %8s %10s %10s | %24s | %s\n", "class",
                "slices", "items", "rate-ltd", "promoted",
                "wait p50/p95/p99 ms", "service p50/p95/p99 ms");
    for (uint32_t c = 0; c < serve::kSchedClasses; ++c) {
        const auto cls = static_cast<serve::SchedClass>(c);
        const serve::ClassStats &cs = st.forClass(cls);
        std::printf("  %-12s %8llu %8llu %10llu %10llu | "
                    "%7.3f %7.3f %7.3f  | %7.3f %7.3f %7.3f\n",
                    serve::schedClassName(cls),
                    static_cast<unsigned long long>(cs.slices),
                    static_cast<unsigned long long>(cs.itemsExecuted),
                    static_cast<unsigned long long>(
                        cs.rateLimitedSlices),
                    static_cast<unsigned long long>(
                        cs.deadlinePromotions),
                    cs.wait.p50Ms(), cs.wait.p95Ms(),
                    cs.wait.p99Ms(), cs.service.p50Ms(),
                    cs.service.p95Ms(), cs.service.p99Ms());
    }
    std::printf("  interactive answers stay responsive while bulk "
                "ingest drains in the background: compare the two "
                "wait-percentile rows\n");
    for (serve::SessionId id : ids)
        engine.closeSession(id);
}

void
serveHibernation(const std::string &method, uint32_t sessions,
                 uint64_t budget_bytes)
{
    serve::EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.policy = specForMethod(method);
    cfg.kvBudget.budgetBytes = budget_bytes;
    serve::Engine engine(cfg);

    std::printf("\n[hibernation] %u sessions vs a %.2f MiB KV "
                "budget, policy '%s', %u workers\n", sessions,
                budget_bytes / 1048576.0,
                serve::policyKindName(cfg.policy.kind).c_str(),
                engine.workerCount());

    // Small frames keep per-session work cheap; the KV still grows
    // enough that a few sessions overflow a small budget.
    VideoConfig video;
    video.tokensPerFrame = 8;

    std::vector<serve::SessionId> ids;
    ids.reserve(sessions);
    for (uint32_t s = 0; s < sessions; ++s) {
        serve::SessionOptions o;
        o.name = "hib-" + std::to_string(s);
        o.video = video;
        o.scriptSeed = 500 + s;
        serve::SessionId id = engine.createSession(o);
        engine.enqueue(id, {{SessionEvent::Type::Frame, 0},
                            {SessionEvent::Type::Frame, 0},
                            {SessionEvent::Type::Question, 2},
                            {SessionEvent::Type::Generate, 2}});
        ids.push_back(id);
        // Drain in waves so the resident set (sessions awaiting
        // their first slice hold a model) stays bounded while the
        // budget hibernates the finished ones behind us.
        if ((s + 1) % 64 == 0)
            engine.waitAll();
    }
    engine.waitAll();

    auto panel = [&](const char *tag) {
        const serve::KvBudgetStats kv = engine.stats().kv;
        const uint32_t open = kv.residentSessions + kv.hibernatedSessions;
        std::printf("  [%s] resident %u/%u sessions (%.1f%%), "
                    "%.2f MiB KV resident, %.2f MiB cold in %llu "
                    "blobs, %.2f MiB weights in %u shared set(s)\n",
                    tag, kv.residentSessions, open,
                    open ? 100.0 * kv.residentSessions / open : 0.0,
                    kv.residentBytes / 1048576.0,
                    kv.coldBytes / 1048576.0,
                    static_cast<unsigned long long>(
                        kv.hibernatedSessions),
                    kv.weightBytes / 1048576.0, kv.weightSets);
        std::printf("        hibernates %llu (p50/p95 %.3f/%.3f ms), "
                    "wakes %llu (p50/p95 %.3f/%.3f ms)\n",
                    static_cast<unsigned long long>(kv.hibernates),
                    kv.hibernateLatency.p50Ms(),
                    kv.hibernateLatency.p95Ms(),
                    static_cast<unsigned long long>(kv.wakes),
                    kv.wakeLatency.p50Ms(), kv.wakeLatency.p95Ms());
    };
    panel("after ingest");

    // Wake a sample with a trailing question: restore is transparent
    // (byte-identical state), only the wake latency is observable.
    const uint32_t step = sessions > 16 ? sessions / 16 : 1;
    uint32_t asked = 0;
    for (uint32_t s = 0; s < sessions; s += step) {
        engine.ask(ids[s], 2, 2);
        ++asked;
    }
    engine.waitAll();
    std::printf("  asked %u sampled sessions a trailing question\n",
                asked);
    panel("after wake ");

    for (serve::SessionId id : ids)
        engine.closeSession(id);
}

void
serveWorkload(const std::string &method, const std::string &name,
              uint32_t max_live)
{
    serve::LoadGenConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.policy = specForMethod(method);
    cfg.sched.maxLiveSessions = max_live > 0 ? max_live : 10;
    cfg.sched.classWeights = {2, 1};

    const TrafficTrace trace = buildTrace(traceSpecByName(name));
    serve::LoadGen gen(cfg);
    const serve::LoadReport r = gen.run(trace);

    std::printf("\n[open-loop workload '%s'] %s arrivals, %u "
                "sessions over %.2f virtual s, policy '%s', "
                "admission cap %u\n", name.c_str(),
                arrivalKindName(trace.spec.arrivals.kind),
                r.offered(), r.horizonUs / 1e6,
                serve::policyKindName(cfg.policy.kind).c_str(),
                cfg.sched.maxLiveSessions);
    std::printf("  %-12s %8s %9s %9s %11s %11s | %9s | %s\n",
                "class", "offered", "admitted", "rejected",
                "items-enq", "items-rej", "slo-met",
                "virtual flow p50/p95/p99 ms");
    for (uint32_t c = 0; c < kTrafficClasses; ++c) {
        const auto cls = static_cast<TrafficClass>(c);
        const serve::LoadClassReport &cr = r.forClass(cls);
        if (cr.offered == 0)
            continue;
        std::printf("  %-12s %8u %9u %9u %11llu %11llu | %8.1f%% | "
                    "%.1f / %.1f / %.1f\n", trafficClassName(cls),
                    cr.offered, cr.admitted, cr.rejectedSessions,
                    static_cast<unsigned long long>(cr.itemsEnqueued),
                    static_cast<unsigned long long>(cr.itemsRejected),
                    100.0 * cr.attainment(), cr.flowP50Us / 1e3,
                    cr.flowP95Us / 1e3, cr.flowP99Us / 1e3);
    }
    std::printf("  total: rejection rate %.1f%%, goodput %.2f "
                "sessions/s, %.1f items/s, %llu items executed\n",
                100.0 * r.rejectionRate(), r.goodputPerSec(),
                r.itemThroughputPerSec(),
                static_cast<unsigned long long>(
                    r.engine.itemsExecuted));
}

void
printPhase(const char *title, const PhaseResult &r)
{
    std::printf("\n[%s]\n", title);
    if (r.oom) {
        std::printf("  OUT OF MEMORY\n");
        return;
    }
    std::printf("  wall clock   : %9.2f ms\n", r.totalMs);
    std::printf("  vision+MLP   : %9.2f ms\n", r.visionMs);
    std::printf("  dense (QKV/FFN): %7.2f ms\n", r.denseMs);
    std::printf("  attention    : %9.2f ms\n", r.attentionMs);
    std::printf("  prediction   : %9.2f ms (GPU-serialized)\n",
                r.predictionMs);
    std::printf("  DRE          : %9.3f ms (overlapped)\n", r.dreMs);
    std::printf("  KV fetch     : %9.2f ms (overlapped)\n",
                r.fetchMs);
    std::printf("  PCIe bytes   : %9.1f MiB\n",
                r.pcieBytes / 1048576.0);
    std::printf("  energy       : %9.3f J (avg %.1f W)\n",
                r.energy.totalJ(),
                r.energy.totalJ() / (r.totalMs / 1e3));
    std::printf("  efficiency   : %9.1f GOPS/W\n", r.gopsPerW());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string hw = "vrex8", method = "resv";
    uint32_t cache = 40000, batch = 1, frame_tokens = 10;
    uint32_t serve_sessions = 0, max_live = 0, class_mix = 0;
    uint32_t hib_sessions = 0;
    uint64_t kv_budget = 0;
    std::string workload;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--hw")
            hw = next();
        else if (arg == "--method")
            method = next();
        else if (arg == "--cache")
            cache = static_cast<uint32_t>(std::atoi(next().c_str()));
        else if (arg == "--batch")
            batch = static_cast<uint32_t>(std::atoi(next().c_str()));
        else if (arg == "--frame-tokens")
            frame_tokens =
                static_cast<uint32_t>(std::atoi(next().c_str()));
        else if (arg == "--serve")
            serve_sessions =
                static_cast<uint32_t>(std::atoi(next().c_str()));
        else if (arg == "--max-live")
            max_live =
                static_cast<uint32_t>(std::atoi(next().c_str()));
        else if (arg == "--class-mix")
            class_mix =
                static_cast<uint32_t>(std::atoi(next().c_str()));
        else if (arg == "--sessions")
            hib_sessions =
                static_cast<uint32_t>(std::atoi(next().c_str()));
        else if (arg == "--kv-budget")
            kv_budget =
                static_cast<uint64_t>(std::atoll(next().c_str()));
        else if (arg == "--workload")
            workload = next();
        else
            fatal("unknown argument '%s'", arg.c_str());
    }

    RunConfig rc;
    rc.hw = parseHw(hw);
    rc.method = parseMethod(method);
    rc.cacheTokens = cache;
    rc.batch = batch;
    rc.tokensPerFrame = frame_tokens;

    std::printf("platform %s | method %s | cache %u tokens | "
                "batch %u | %u tokens/frame\n", rc.hw.name.c_str(),
                rc.method.name.c_str(), cache, batch, frame_tokens);

    SystemModel sm(rc);
    PhaseResult frame = sm.framePhase();
    printPhase("frame processing", frame);
    if (!frame.oom)
        std::printf("  throughput   : %9.2f FPS\n", sm.frameFps());
    printPhase("text generation (TPOT)", sm.decodePhase());

    RooflinePoint p = rooflineFor(frame, rc.hw);
    std::printf("\n[roofline] OI %.1f Op/B, achieved %.2f TFLOPS "
                "(%.1f%% of roof)\n", p.opIntensity,
                p.achievedTflops, 100.0 * p.fractionOfRoof());

    if (serve_sessions > 0)
        serveFunctional(method, serve_sessions, max_live);
    if (class_mix > 0)
        serveClassMix(method, class_mix);
    if (hib_sessions > 0) {
        if (kv_budget == 0)
            fatal("--sessions needs --kv-budget BYTES (a budget of 0 "
                  "disables hibernation)");
        serveHibernation(method, hib_sessions, kv_budget);
    }
    if (!workload.empty())
        serveWorkload(method, workload, max_live);
    return 0;
}
