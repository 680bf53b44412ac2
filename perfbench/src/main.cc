/**
 * @file
 * vrex_perfbench: wall-clock serving benchmark.
 *
 *   vrex_perfbench --workload live-qa|long-video|churn-resume
 *                  --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *
 * --trace 0 runs one untimed set-up (five times, median reported), an
 * untimed warm-up, the timed window, then, on a seeded sample, the
 * fidelity proxy, a closed-loop service probe on a fresh engine and the
 * output check of both; it reports the end-to-end metrics.
 * --trace 1 runs the same untraced window, then a traced window (timed
 * ReSV forwarder, timed cold store) and a traced single-threaded replay
 * of every script; it reports the per-layer metrics, the tracing
 * overhead and the self-time table, and writes a Chrome trace to
 * DIR/trace-<workload>-s<seed>.json.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and metrics ({name: {value, unit}}).
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "common/json_lite.hh"

namespace vrex::perfbench
{

namespace
{

constexpr int kSetupReps = 5;
/** Calibration samples after each set-up rep, and just before and just
 *  after the window. */
constexpr int kSetupCalSamples = 20;
constexpr int kWindowCalSamples = 100;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args
{
    Workload workload = Workload::LiveQa;
    uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    std::string outDir = ".bench_out";
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

using Metrics = std::vector<Metric>;

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // Linux reports KiB.
}

std::vector<bool>
captureMask(const Schedule &sch, bool all)
{
    std::vector<bool> mask(sch.streams.size(), all);
    for (uint32_t s : sch.sample)
        mask[s] = true;
    return mask;
}

/** Streams whose replay disagreed with the engine fail all their verbs. */
uint64_t
failedVerbs(const WindowResult &w, uint32_t stream,
            const std::vector<uint32_t> &replay)
{
    if (w.tokens[stream] && tokensMatch(*w.tokens[stream], replay))
        return 0;
    std::fprintf(stderr, "perfbench: stream %u: output check failed\n",
                 stream);
    return std::max<uint64_t>(1, w.verbs[stream]);
}

/** Median of the CPU times @p ms, each scaled by the calibration
 *  sample taken next to it (calibrate.cc). */
double
scaledMedian(const std::vector<double> &ms, const std::vector<double> &cal)
{
    std::vector<double> v;
    for (size_t i = 0; i < ms.size() && i < cal.size(); ++i)
        v.push_back(ms[i] * ratio(kCalRefUs, cal[i]));
    return percentile(v, 0.50);
}

/**
 * The gated end-to-end metrics, in BENCHMARK.json order. Apart from
 * memory and fidelity they are scaled to the quiet reference host
 * (calibrate.cc): @p setup_s already is, and the probe's CPU times are
 * scaled here. The wall-clock latencies are in wallLatencies().
 */
Metrics
endToEnd(const WindowResult &probe, double setup_s, double rss_mib,
         double fidelity_pct)
{
    return {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", rss_mib, "MiB"},
        {"frame_cpu_ms", scaledMedian(probe.frameCpuMs, probe.frameCalUs),
         "ms"},
        {"ttft_cpu_ms", scaledMedian(probe.ttftCpuMs, probe.ttftCalUs), "ms"},
        {"tpot_cpu_ms", scaledMedian(probe.tpotCpuMs, probe.tpotCalUs), "ms"},
        {"create_cpu_ms",
         scaledMedian(probe.createCpuMs, probe.createCalUs), "ms"},
        {"fidelity_pct", fidelity_pct, "%"},
    };
}

/** The wall-clock latencies of one window (not gated: on a shared host
 *  they move with its speed; see README.md). */
Metrics
wallLatencies(const WindowResult &w, const std::vector<double> &create_ms)
{
    return {
        {"frame_ms_p50", percentile(w.frameMs, 0.50), "ms"},
        {"first_answer_ms_p50", percentile(w.firstAnswerMs, 0.50), "ms"},
        {"answer_ms_p50", percentile(w.answerMs, 0.50), "ms"},
        {"ttft_ms", percentile(w.ttftMs, 0.50), "ms"},
        {"tpot_ms", percentile(w.tpotMs, 0.50), "ms"},
        {"create_ms_p50", percentile(create_ms, 0.50), "ms"},
    };
}

/** A run is valid when the generator ran late by less than the
 *  smallest latency it measures (the frame p50). */
bool
harnessValid(const WindowResult &w)
{
    const double lag = percentile(w.lagMs, 0.99);
    const double frame = percentile(w.frameMs, 0.50);
    if (lag <= frame)
        return true;
    std::fprintf(stderr,
                 "perfbench: invalid run: generator lag p99 %.3f ms "
                 "exceeds frame p50 %.3f ms\n",
                 lag, frame);
    return false;
}

bool
samplesPresent(const WindowResult &w, const WindowResult *probe)
{
    bool ok = !w.frameMs.empty() && !w.firstAnswerMs.empty() &&
              !w.answerMs.empty() && !w.ttftMs.empty() && !w.tpotMs.empty();
    if (probe)
        ok = ok && !probe->frameCpuMs.empty() && !probe->ttftCpuMs.empty() &&
             !probe->tpotCpuMs.empty();
    if (!ok)
        std::fprintf(stderr, "perfbench: a latency sample is empty "
                             "(run too short for the workload)\n");
    return ok;
}

// ------------------------------------------------------------------
// Self-time table and Chrome trace of the replay
// ------------------------------------------------------------------

struct KindTotals
{
    uint64_t count = 0;
    double durS = 0.0;
    double llmSelfS = 0.0;
};

struct SelfTimes
{
    /** Self seconds per layer, in table order. */
    static constexpr std::array<const char *, 5> kLayers = {
        "pipeline", "llm", "video", "core", "harness"};
    std::array<double, 5> layerS{};
    double wallS = 0.0;
    double uncoveredS = 0.0;
    std::array<KindTotals, static_cast<size_t>(SpanKind::Count)> kinds{};
};

/**
 * Charge every top-level span to a layer. A pipeline verb's llm self
 * time is its duration minus its core children (measured) and its
 * video part (the twin's time for that frame); construct / begin /
 * serialize / restore are pipeline self time; the twin, the logits
 * probe and the check are harness time. Whatever no top-level span
 * covers is the uncovered remainder, so the rows sum to the wall.
 */
SelfTimes
selfTimes(const std::vector<Span> &spans, double wall_s)
{
    enum Row { Pipeline, Llm, Video, Core, Harness };
    SelfTimes t;
    t.wallS = wall_s;
    double covered = 0.0;
    for (const Span &s : spans) {
        KindTotals &k = t.kinds[static_cast<size_t>(s.kind)];
        ++k.count;
        k.durS += s.durNs / 1e9;
        if (s.parent >= 0)
            continue;
        const double dur = s.durNs / 1e9;
        covered += dur;
        switch (s.kind) {
          case SpanKind::Construct:
          case SpanKind::Begin:
          case SpanKind::Serialize:
          case SpanKind::Restore:
            t.layerS[Pipeline] += dur - s.coreNs / 1e9;
            t.layerS[Core] += s.coreNs / 1e9;
            break;
          case SpanKind::FeedFrame:
          case SpanKind::FeedQuestion:
          case SpanKind::GenerateToken: {
            const double llm = dur - (s.coreNs + s.videoNs) / 1e9;
            t.layerS[Llm] += llm;
            t.layerS[Core] += s.coreNs / 1e9;
            t.layerS[Video] += s.videoNs / 1e9;
            k.llmSelfS += llm;
            break;
          }
          default:
            t.layerS[Harness] += dur;
            break;
        }
    }
    t.uncoveredS = wall_s - covered;
    return t;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** Write the spans as Chrome trace-event JSON with the self-time table
 *  under otherData, then parse the file back. */
bool
writeChromeTrace(const std::string &path, const Args &a,
                 const std::vector<Span> &spans, const SelfTimes &t)
{
    const int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    {
        std::ofstream f(path);
        f << "{\"traceEvents\":[";
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            f << (i ? ",\n" : "\n") << "{\"name\":"
              << json::quote(spanName(s.kind))
              << ",\"cat\":" << json::quote(spanLayer(s.kind))
              << ",\"ph\":\"X\",\"ts\":" << fmt((s.startNs - t0) / 1e3)
              << ",\"dur\":" << fmt(s.durNs / 1e3)
              << ",\"pid\":1,\"tid\":" << s.tid << "}";
        }
        f << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
          << "\"workload\":" << json::quote(workloadName(a.workload))
          << ",\"seed\":" << a.seed << ",\"replay_wall_s\":" << fmt(t.wallS)
          << ",\"uncovered_s\":" << fmt(t.uncoveredS) << ",\"self_s\":{";
        for (size_t i = 0; i < t.kLayers.size(); ++i)
            f << (i ? "," : "") << json::quote(t.kLayers[i]) << ":"
              << fmt(t.layerS[i]);
        f << "}}}\n";
        if (!f)
            return false;
    }
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string err;
    const json::Value doc = json::parse(text.str(), &err);
    const json::Value *events = doc.find("traceEvents");
    const bool ok = events && events->isArray() &&
                    events->array().size() == spans.size() &&
                    doc.find("otherData") != nullptr;
    if (!ok)
        std::fprintf(stderr, "perfbench: bad trace file %s: %s\n",
                     path.c_str(), err.c_str());
    return ok;
}

// ------------------------------------------------------------------
// Runs
// ------------------------------------------------------------------

struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Metrics metrics;
};

struct UntracedPass
{
    WindowResult window;
    Metrics e2e;
    Metrics wall;
    /** Scaled serving CPU of the window per frame (not gated). */
    double cpuMsPerFrame = 0.0;
};

/** Replay @p s's checked prefix through StreamingSession and compare it
 *  with the engine's tokens in every one of @p runs. */
void
checkStream(const Schedule &sch,
            std::initializer_list<const WindowResult *> runs, uint32_t s,
            Outcome &out)
{
    const std::vector<uint32_t> replay = replayPlain(
        sch.engine, prefixScript(sch.streams[s].script, sch.checkTurns));
    for (const WindowResult *w : runs) {
        const uint64_t bad = failedVerbs(*w, s, replay);
        out.failed += bad;
        out.correct = out.correct && bad == 0;
    }
}

UntracedPass
untracedPass(const Args &a, bool check, Outcome &out)
{
    std::vector<double> setup_s, create_ms;
    // Wall seconds of each phase: set-up reps, window, fidelity, probe,
    // check (printed, so the run's length can be budgeted).
    std::array<double, 5> phase_s{};
    int64_t mark = nowNs();
    auto lap = [&](size_t i) {
        const int64_t now = nowNs();
        phase_s[i] += (now - mark) / 1e9;
        mark = now;
    };
    auto addCreates = [&](const std::vector<double> &wall) {
        create_ms.insert(create_ms.end(), wall.begin(), wall.end());
    };
    auto calibrate = [](std::vector<double> &cal, int n) {
        for (int i = 0; i < n; ++i)
            cal.push_back(calibrationSampleUs());
    };
    std::vector<double> setup_cal;
    for (int r = 0; r < kSetupReps; ++r) {
        const int64_t t0 = nowNs();
        Prepared rep = prepare(a.workload, a.seed, a.seconds);
        warmUp(*rep.engine);
        setup_s.push_back((nowNs() - t0) / 1e9);
        addCreates(rep.createMs);
        calibrate(setup_cal, kSetupCalSamples);
    }
    lap(0);

    Prepared p = prepare(a.workload, a.seed, a.seconds);
    const Schedule &sch = p.schedule;
    UntracedPass u;
    // Calibration around the window, with the engine idle; the open
    // loop adds samples from its idle moments.
    std::vector<double> window_cal;
    calibrate(window_cal, kWindowCalSamples);
    u.window = runWindow(p, captureMask(sch, false));
    calibrate(window_cal, kWindowCalSamples);
    WindowResult &w = u.window;
    addCreates(p.createMs);
    addCreates(w.createMs);
    lap(1);

    double fidelity = 0.0;
    if (check) {
        std::vector<serve::FidelityJob> jobs;
        for (uint32_t s : sch.sample)
            jobs.push_back({prefixScript(sch.streams[s].script,
                                         sch.fidelityTurns),
                            sch.engine.policy});
        double sum = 0.0;
        for (const FidelityResult &f : p.engine->evaluateFidelityBatch(jobs))
            sum += f.combined();
        fidelity = 100.0 * sum / jobs.size();
    }
    p.engine.reset();
    lap(2);

    out.attempted += w.attempted;
    out.failed += w.failed;
    WindowResult probe;
    if (check) {
        probe = runServiceProbe(sch, a.seconds);
        out.attempted += probe.attempted;
        out.failed += probe.failed;
        out.correct = out.correct && probe.failed == 0;
        lap(3);
        for (uint32_t s : sch.sample)
            checkStream(sch, {&w, &probe}, s, out);
        lap(4);
    }
    if (sch.workload != Workload::LongVideo)
        out.correct = out.correct && harnessValid(w);
    out.correct = out.correct && samplesPresent(w, check ? &probe : nullptr);

    std::sort(setup_s.begin(), setup_s.end());
    window_cal.insert(window_cal.end(), w.calUs.begin(), w.calUs.end());
    const double window_cal_us = percentile(window_cal, 0.50);
    const double setup_cal_us = percentile(setup_cal, 0.50);
    const double raw_cpu_ms_per_frame =
        1e3 * ratio(w.serveCpuS, w.frameMs.size());
    u.cpuMsPerFrame = raw_cpu_ms_per_frame * ratio(kCalRefUs, window_cal_us);
    u.e2e = endToEnd(probe,
                     percentile(setup_s, 0.5) * ratio(kCalRefUs, setup_cal_us),
                     peakRssMiB(), fidelity);
    u.wall = wallLatencies(w, create_ms);
    std::printf("# %s seed %llu: %zu frames, %zu first answers, %zu later "
                "answers, %zu creates, window %.2f s, serving %.3f CPU s, "
                "probe %zu sessions %zu frames %zu turns, setup reps",
                workloadName(a.workload),
                static_cast<unsigned long long>(a.seed), w.frameMs.size(),
                w.firstAnswerMs.size(), w.answerMs.size(), create_ms.size(),
                w.wallS, w.serveCpuS, probe.createCpuMs.size(),
                probe.frameCpuMs.size(),
                probe.ttftCpuMs.size());
    for (double s : setup_s)
        std::printf(" %.3f", s);
    std::printf(" s\n# unscaled: setup_s %.4f frame_cpu_ms %.4f "
                "ttft_cpu_ms %.4f tpot_cpu_ms %.4f create_cpu_ms %.4f; "
                "calibration median %.2f us in set-up, %.2f us in and "
                "around the window (%zu in it), %.2f us in the probe "
                "(reference %.0f us)\n",
                percentile(setup_s, 0.5), percentile(probe.frameCpuMs, 0.5),
                percentile(probe.ttftCpuMs, 0.5),
                percentile(probe.tpotCpuMs, 0.5),
                percentile(probe.createCpuMs, 0.5), setup_cal_us,
                window_cal_us, w.calUs.size(),
                percentile(probe.frameCalUs, 0.5), kCalRefUs);
    std::printf("# phases: set-up %.1f s, window %.1f s, fidelity %.1f s, "
                "probe %.1f s, check %.1f s\n",
                phase_s[0], phase_s[1], phase_s[2], phase_s[3], phase_s[4]);
    std::printf("# ungated wall clock:");
    for (const Metric &m : u.wall)
        std::printf(" %s %.3f", m.name.c_str(), m.value);
    std::printf(" ms\n# ungated: frame p90 %.3f p99 %.3f ms, answer p90 %.3f "
                "p99 %.3f ms, ingest %.3f frames/s, %.3f cores busy, "
                "serving CPU per frame %.4f ms scaled (%.4f ms unscaled)\n",
                percentile(w.frameMs, 0.90), percentile(w.frameMs, 0.99),
                percentile(w.answerMs, 0.90), percentile(w.answerMs, 0.99),
                ratio(w.frameMs.size(), w.frameLatencySumS),
                ratio(w.cpuS, w.wallS), u.cpuMsPerFrame, raw_cpu_ms_per_frame);
    return u;
}

double
metricValue(const Metrics &m, const std::string &name)
{
    for (const Metric &x : m)
        if (x.name == name)
            return x.value;
    return 0.0;
}

void
tracedRun(const Args &a, Outcome &out)
{
    const UntracedPass base = untracedPass(a, false, out);
    const WindowResult &w = base.window;
    const serve::Stats &st = w.stats;

    // Traced engine pass: forwarders installed through the public
    // extension points, everything else as in the untraced window.
    CoreSink engine_core;
    serve::PolicyFactory factory;
    installTimedResv(factory, engine_core);
    std::shared_ptr<TimedColdStore> store;
    if (a.workload == Workload::ChurnResume)
        store = std::make_shared<TimedColdStore>();
    Prepared tp = prepare(a.workload, a.seed, a.seconds, &factory, store);
    const WindowResult tw = runWindow(tp, captureMask(tp.schedule, true));
    tp.engine.reset(); // Releases every policy into engine_core.
    const Schedule &sch = tp.schedule;
    out.attempted += tw.attempted;
    out.failed += tw.failed;
    const Metrics traced_wall = wallLatencies(tw, tw.createMs);

    // Traced single-threaded replay of every script; it is also the
    // output check of the traced window.
    Tracer tracer;
    CoreSink replay_core;
    replay_core.tracer = &tracer;
    ProbeTimes probes;
    uint64_t tokens = 0;
    const int64_t r0 = nowNs();
    for (uint32_t s = 0; s < sch.streams.size(); ++s) {
        const SessionScript &script = sch.streams[s].script;
        const std::vector<uint32_t> replay =
            replayTraced(sch.engine, script, s, tracer, replay_core, probes);
        const uint64_t bad = failedVerbs(tw, s, replay);
        out.failed += bad;
        out.correct = out.correct && bad == 0;
        tokens += static_cast<uint64_t>(script.frameCount()) *
                      script.video.tokensPerFrame +
                  script.questionTokens() + script.answerTokens();
    }
    const SelfTimes self = selfTimes(tracer.spans(), (nowNs() - r0) / 1e9);

    std::filesystem::create_directories(a.outDir);
    const std::string path = a.outDir + "/trace-" +
                             workloadName(a.workload) + "-s" +
                             std::to_string(a.seed) + ".json";
    out.correct = writeChromeTrace(path, a, tracer.spans(), self) &&
                  out.correct;

    std::printf("# self-time table of the traced replay (%s)\n",
                path.c_str());
    std::printf("#   %-10s %10s %8s\n", "layer", "self_s", "share");
    for (size_t i = 0; i < self.kLayers.size(); ++i)
        std::printf("#   %-10s %10.4f %7.2f%%\n", self.kLayers[i],
                    self.layerS[i], 100.0 * ratio(self.layerS[i], self.wallS));
    std::printf("#   %-10s %10.4f %7.2f%%\n", "uncovered", self.uncoveredS,
                100.0 * ratio(self.uncoveredS, self.wallS));
    std::printf("#   %-10s %10.4f\n", "wall", self.wallS);

    auto kind = [&](SpanKind k) -> const KindTotals & {
        return self.kinds[static_cast<size_t>(k)];
    };
    auto meanMs = [&](SpanKind k) {
        return 1e3 * ratio(kind(k).durS, kind(k).count);
    };
    auto selfMs = [&](SpanKind k) {
        return 1e3 * ratio(kind(k).llmSelfS, kind(k).count);
    };

    const ModelConfig &model = sch.engine.model;
    const double dense_gflop = model.denseFlops(tokens) / 1e9;
    const double attn_gflop = replay_core.attnFlops / 1e9;
    double llm_self_s = 0.0;
    for (SpanKind k : {SpanKind::FeedFrame, SpanKind::FeedQuestion,
                       SpanKind::GenerateToken})
        llm_self_s += kind(k).llmSelfS;

    serve::LatencyHistogram wait = st.classes[0].wait;
    wait.merge(st.classes[1].wait);
    serve::LatencyHistogram service = st.classes[0].service;
    service.merge(st.classes[1].service);
    const ResvCounters &fc = engine_core.frame;
    const ResvCounters &tc = engine_core.text;

    out.metrics.clear();
    for (const Metric &m : base.wall)
        out.metrics.push_back({"serve." + m.name, m.value, m.unit});
    const Metrics layers = {
        {"serve.verb_us_p50", percentile(w.verbUs, 0.50), "us"},
        {"serve.verb_us_p99", percentile(w.verbUs, 0.99), "us"},
        {"serve.wait_ms_p50", wait.p50Ms(), "ms"},
        {"serve.wait_ms_p99", wait.p99Ms(), "ms"},
        {"serve.service_ms_p50", service.p50Ms(), "ms"},
        {"serve.slices", double(st.slices), "count"},
        {"serve.items_executed", double(st.itemsExecuted), "count"},
        {"serve.batch.coalesced_steps", double(st.batch.coalescedSteps),
         "count"},
        {"serve.batch.mean_batch", st.batch.meanBatchSize(), "sessions"},
        {"serve.batch.solo_steps", double(st.batch.soloSteps), "count"},
        {"serve.kv.hibernates", double(st.kv.hibernates), "count"},
        {"serve.kv.wakes", double(st.kv.wakes), "count"},
        {"serve.kv.wake_ms_p50", st.kv.wakeLatency.p50Ms(), "ms"},
        {"serve.kv.wake_ms_p99", st.kv.wakeLatency.p99Ms(), "ms"},
        {"serve.kv.hibernate_ms_p50", st.kv.hibernateLatency.p50Ms(), "ms"},
        {"serve.kv.blob_kib_mean",
         ratio(st.kv.hibernatedBytes / 1024.0, st.kv.hibernates), "KiB"},
        {"serve.cpu_cores", ratio(w.cpuS, w.wallS), "cores"},
        {"serve.cpu_ms_per_frame", base.cpuMsPerFrame, "ms"},
        {"harness.lag_ms_p99", percentile(w.lagMs, 0.99), "ms"},
        {"harness.poll_us", percentile(w.pollUs, 0.50), "us"},
        {"kvstore.put_us_p50", store ? percentile(store->putUs(), 0.5) : 0.0,
         "us"},
        {"kvstore.get_us_p50", store ? percentile(store->getUs(), 0.5) : 0.0,
         "us"},
        {"kvstore.put_bytes",
         store ? double(store->stats().offloadedBytes) : 0.0, "B"},
        {"kvstore.get_bytes",
         store ? double(store->stats().fetchedBytes) : 0.0, "B"},
        {"core.cluster_us",
         ratio(engine_core.clusterNs / 1e3, engine_core.clusterCalls), "us"},
        {"core.select_us",
         ratio(engine_core.selectNs / 1e3, engine_core.selectCalls), "us"},
        {"core.select_calls", double(engine_core.selectCalls), "count"},
        {"core.hamming_comparisons", double(engine_core.hamming), "count"},
        {"core.clusters_scanned",
         double(fc.clustersScanned + tc.clustersScanned), "count"},
        {"core.avg_cluster_size", meanOf(engine_core.clusterSize), "tokens"},
        {"core.table_kib", meanOf(engine_core.tableKiB), "KiB"},
        {"core.selected_ratio_frame", fc.selectedRatio(), "ratio"},
        {"core.past_tokens_frame", double(fc.pastTokens), "count"},
        {"core.selected_ratio_text", tc.selectedRatio(), "ratio"},
        {"core.past_tokens_text", double(tc.pastTokens), "count"},
        {"pipeline.construct_ms", meanMs(SpanKind::Construct), "ms"},
        {"pipeline.feed_frame_ms", meanMs(SpanKind::FeedFrame), "ms"},
        {"pipeline.feed_question_ms", meanMs(SpanKind::FeedQuestion), "ms"},
        {"pipeline.generate_token_ms", meanMs(SpanKind::GenerateToken),
         "ms"},
        {"pipeline.serialize_ms", meanMs(SpanKind::Serialize), "ms"},
        {"pipeline.restore_ms", meanMs(SpanKind::Restore), "ms"},
        {"pipeline.blob_kib", meanOf(probes.blobKiB), "KiB"},
        {"video.frame_gen_us", meanOf(probes.frameGenUs), "us"},
        {"video.encode_us", meanOf(probes.encodeUs), "us"},
        {"video.project_us", meanOf(probes.projectUs), "us"},
        {"llm.prefill_frame_ms_self", selfMs(SpanKind::FeedFrame), "ms"},
        {"llm.prefill_text_ms_self", selfMs(SpanKind::FeedQuestion), "ms"},
        {"llm.decode_ms_self", selfMs(SpanKind::GenerateToken), "ms"},
        {"llm.logits_us", meanOf(probes.logitsUs), "us"},
        {"llm.dense_gflop", dense_gflop, "GFLOP"},
        {"llm.attn_gflop", attn_gflop, "GFLOP"},
        {"llm.weight_mib_per_step", model.paramBytes(4.0) / kMiB, "MiB"},
        {"llm.kv_mib_read", replay_core.kvBytesRead / kMiB, "MiB"},
        {"llm.gflops_achieved",
         ratio(dense_gflop + attn_gflop, llm_self_s), "GFLOP/s"},
        {"trace.replay_wall_s", self.wallS, "s"},
        {"trace.self_s.pipeline", self.layerS[0], "s"},
        {"trace.self_s.llm", self.layerS[1], "s"},
        {"trace.self_s.video", self.layerS[2], "s"},
        {"trace.self_s.core", self.layerS[3], "s"},
        {"trace.self_s.harness", self.layerS[4], "s"},
        {"trace.uncovered_pct", 100.0 * ratio(self.uncoveredS, self.wallS),
         "%"},
    };
    out.metrics.insert(out.metrics.end(), layers.begin(), layers.end());
    for (const char *name : {"frame_ms_p50", "answer_ms_p50", "ttft_ms"})
        out.metrics.push_back({std::string("trace.overhead.") + name,
                               metricValue(traced_wall, name) -
                                   metricValue(base.wall, name),
                               "ms"});
}

void
printOutcome(const Outcome &out)
{
    for (const Metric &m : out.metrics)
        std::printf("%-32s %14s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                    json::quote(m.name).c_str(), fmt(m.value).c_str(),
                    json::quote(m.unit).c_str());
    }
    std::printf("}}\n");
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            const auto w = parseWorkload(val);
            if (!w)
                return false;
            a.workload = *w;
        } else if (key == "--seed") {
            a.seed = std::stoull(val);
        } else if (key == "--seconds") {
            a.seconds = std::stod(val);
        } else if (key == "--trace") {
            a.trace = val == "1";
        } else if (key == "--out-dir") {
            a.outDir = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && a.seconds > 0.0;
}

} // namespace

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * (v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

double
meanOf(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return ratio(sum, v.size());
}

int
run(int argc, char **argv)
{
    Args a;
    try {
        if (!parseArgs(argc, argv, a))
            throw std::invalid_argument("bad arguments");
    } catch (const std::exception &) {
        std::fprintf(stderr,
                     "usage: vrex_perfbench --workload "
                     "live-qa|long-video|churn-resume --seed N "
                     "--seconds S --trace 0|1 [--out-dir DIR]\n");
        return 2;
    }
    Outcome out;
    if (a.trace) {
        tracedRun(a, out);
    } else {
        out.metrics = untracedPass(a, true, out).e2e;
    }
    printOutcome(out);
    return 0;
}

} // namespace vrex::perfbench

int
main(int argc, char **argv)
{
    try {
        return vrex::perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
