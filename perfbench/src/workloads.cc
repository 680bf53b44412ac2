/**
 * @file
 * The three named workloads. Every schedule and script is a pure
 * function of (workload, seed, seconds) and is built before the timed
 * window; the engine only ever sees these generated inputs.
 */

#include <algorithm>
#include <cmath>

#include "bench.hh"

namespace vrex::perfbench
{

namespace
{

/** Streams the output check, the fidelity proxy and the service probe
 *  start with: enough that the fidelity mean does not swing between
 *  seeds. */
constexpr uint32_t kSampleStreams = 6;

int64_t
toNs(double seconds)
{
    return static_cast<int64_t>(std::llround(seconds * 1e9));
}

double
exponential(Rng &rng, double mean)
{
    return -mean * std::log(1.0 - rng.uniform());
}

/** @p n distinct stream indices below @p size, ascending. */
std::vector<uint32_t>
pickSample(Rng &rng, uint32_t size, uint32_t n)
{
    std::vector<uint32_t> perm = rng.permutation(size);
    perm.resize(std::min(n, size));
    std::sort(perm.begin(), perm.end());
    return perm;
}

serve::EngineConfig
baseEngine()
{
    serve::EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.policy = serve::PolicySpec::resv();
    cfg.workers = 3;
    return cfg;
}

Stream
makeStream(const std::string &name, uint64_t script_seed)
{
    Stream s;
    s.script.name = name;
    s.script.seed = script_seed;
    s.options = serve::SessionOptions::fromScript(s.script);
    return s;
}

void
addTurn(SessionScript &script)
{
    script.events.push_back({SessionEvent::Type::Question, kQuestionTokens});
    script.events.push_back({SessionEvent::Type::Generate, kAnswerTokens});
}

/** 32 streams at 2 fps with seeded QA gaps, uniform in [4, 12] frames
 *  (mean 4 s): random enough to mix prefill and decode across sessions,
 *  regular enough that the offered load does not swing between seeds.
 *  The offered load keeps the three workers about a third busy, so a
 *  slower shared host still leaves headroom (see README.md). */
Schedule
liveQa(uint64_t seed, double seconds)
{
    constexpr uint32_t kStreams = 32;
    constexpr double kFramePeriodS = 0.5;
    constexpr uint32_t kMinGapFrames = 4, kGapSpanFrames = 9;

    Schedule sch;
    sch.engine = baseEngine();
    sch.engine.batching.enabled = true;
    Rng rng(seed, "perfbench/live-qa");
    const int64_t horizon = toNs(seconds);
    for (uint32_t s = 0; s < kStreams; ++s) {
        Stream st = makeStream("live-qa-" + std::to_string(s),
                               rng.nextU64());
        const int64_t phase = toNs(rng.uniform(0.0, kFramePeriodS));
        auto gap = [&] {
            return kMinGapFrames +
                   static_cast<uint32_t>(rng.uniformInt(kGapSpanFrames));
        };
        // The first turn's phase is uniform over a whole maximal gap,
        // so turns do not bunch at the start of the window.
        uint32_t next_turn = 1 + static_cast<uint32_t>(rng.uniformInt(
                                     kMinGapFrames + kGapSpanFrames));
        for (uint32_t k = 0;; ++k) {
            const int64_t due = phase + toNs(k * kFramePeriodS);
            if (due >= horizon)
                break;
            sch.sends.push_back({due, s, SendKind::Frame});
            st.script.events.push_back({SessionEvent::Type::Frame, 0});
            if (k + 1 == next_turn) {
                sch.sends.push_back(
                    {due + toNs(kFramePeriodS / 2), s, SendKind::Turn});
                addTurn(st.script);
                next_turn += gap();
            }
        }
        sch.streams.push_back(std::move(st));
    }
    sch.precreated = kStreams;
    sch.sample = pickSample(rng, kStreams, kSampleStreams);
    return sch;
}

/** One stream, closed loop; a QA turn after every 32 frames. */
Schedule
longVideo(uint64_t seed, double seconds)
{
    constexpr double kNominalFps = 34.0;
    constexpr uint32_t kBlockFrames = 64;

    Schedule sch;
    sch.engine = baseEngine();
    Rng rng(seed, "perfbench/long-video");
    Stream st = makeStream("long-video", rng.nextU64());
    const uint32_t blocks = std::max<uint32_t>(
        1, static_cast<uint32_t>(
               std::lround(seconds * kNominalFps / kBlockFrames)));
    // Sixteen turns at 15 s: enough that the per-turn medians do not
    // rest on one or two turns.
    constexpr uint32_t kQaEvery = 32;
    for (uint32_t f = 1; f <= blocks * kBlockFrames; ++f) {
        st.script.events.push_back({SessionEvent::Type::Frame, 0});
        if (f % kQaEvery == 0)
            addTurn(st.script);
    }
    sch.streams.push_back(std::move(st));
    sch.precreated = 1;
    sch.sample = {0};
    sch.checkTurns = 2;
    sch.fidelityTurns = 2;
    return sch;
}

/** Arrivals at 4/s, one at a seeded uniform offset in each 0.25 s
 *  slot; each session uploads a 12-frame clip and asks, idles
 *  0.5 s + exp(2 s) (capped at 6 s), asks again, closes. The slots keep
 *  arrivals from bunching: with Poisson arrivals the peak number of
 *  sessions at work, and so peak memory, swung between seeds (ten-seed
 *  peak RSS spread 0.19).
 *  The 512 KiB budget holds about two sessions' KV (256 KiB each,
 *  active ones included), so nearly every follow-up wakes a hibernated
 *  session: with a roomier budget the resume latencies mix woken and
 *  resident sessions, and their medians fall between the two
 *  populations. */
Schedule
churnResume(uint64_t seed, double seconds)
{
    constexpr double kArrivalsPerS = 4.0;
    constexpr uint32_t kClipFrames = 12;
    constexpr double kMinIdleS = 0.5, kMeanIdleS = 2.0, kMaxIdleS = 6.0;
    constexpr uint64_t kBudgetBytes = 512ull << 10;

    Schedule sch;
    sch.engine = baseEngine();
    sch.engine.kvBudget.budgetBytes = kBudgetBytes;
    Rng rng(seed, "perfbench/churn-resume");
    const auto arrivals = static_cast<uint32_t>(seconds * kArrivalsPerS);
    for (uint32_t i = 0; i < arrivals; ++i) {
        const double t = (i + rng.uniform()) / kArrivalsPerS;
        Stream st = makeStream("churn-" + std::to_string(i), rng.nextU64());
        st.clipFrames = kClipFrames;
        for (uint32_t f = 0; f < kClipFrames; ++f)
            st.script.events.push_back({SessionEvent::Type::Frame, 0});
        addTurn(st.script);
        addTurn(st.script);
        const double idle = std::min(
            kMaxIdleS, kMinIdleS + exponential(rng, kMeanIdleS));
        sch.sends.push_back({toNs(t), i, SendKind::Arrive});
        sch.sends.push_back({toNs(t + idle), i, SendKind::Return});
        sch.streams.push_back(std::move(st));
    }
    sch.sample = pickSample(rng, static_cast<uint32_t>(sch.streams.size()),
                            kSampleStreams);
    return sch;
}

} // namespace

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : {Workload::LiveQa, Workload::LongVideo,
                       Workload::ChurnResume})
        if (name == workloadName(w))
            return w;
    return std::nullopt;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::LiveQa:
        return "live-qa";
      case Workload::LongVideo:
        return "long-video";
      case Workload::ChurnResume:
        return "churn-resume";
    }
    return "?";
}

Schedule
buildSchedule(Workload w, uint64_t seed, double seconds)
{
    Schedule sch;
    switch (w) {
      case Workload::LiveQa:
        sch = liveQa(seed, seconds);
        break;
      case Workload::LongVideo:
        sch = longVideo(seed, seconds);
        break;
      case Workload::ChurnResume:
        sch = churnResume(seed, seconds);
        break;
    }
    std::stable_sort(sch.sends.begin(), sch.sends.end(),
                     [](const Send &a, const Send &b) {
                         return a.dueNs < b.dueNs;
                     });
    sch.workload = w;
    return sch;
}

SessionScript
prefixScript(const SessionScript &script, uint32_t turns)
{
    if (turns == 0)
        return script;
    SessionScript out = script;
    out.events.clear();
    uint32_t answered = 0;
    for (const SessionEvent &e : script.events) {
        out.events.push_back(e);
        if (e.type == SessionEvent::Type::Generate && ++answered == turns)
            break;
    }
    return out;
}

} // namespace vrex::perfbench
