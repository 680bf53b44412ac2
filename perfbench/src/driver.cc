/**
 * @file
 * The load generator: one thread drives serve::Engine through its
 * public verbs. Open-loop workloads send on the precomputed schedule
 * and observe completions by polling Engine::sessionStats() of the
 * sessions with work outstanding (the engine has no completion
 * callback), so latencies have dispatch-slice granularity and run from
 * the moment a send was *due*. The closed loop (long-video) waits on
 * each send, which makes its TTFT and TPOT exact.
 */

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <thread>

#include "bench.hh"

namespace vrex::perfbench
{

namespace
{

constexpr int64_t kPollIntervalNs = 250'000;
/** In-window calibration: at most one sample per kCalEveryNs, and only
 *  when the next send is at least kCalGapNs away. */
constexpr int64_t kCalEveryNs = 50'000'000;
constexpr int64_t kCalGapNs = 2'000'000;

int64_t
cpuClockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double
msSince(int64_t from_ns, int64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) / 1e6;
}

enum class MarkKind : uint8_t
{
    Frame,
    FirstToken,
    TurnDone,
};

/** Completion expected once the session executed @p items items. */
struct Mark
{
    uint64_t items = 0;
    int64_t dueNs = 0;
    MarkKind kind = MarkKind::Frame;
};

struct Live
{
    serve::SessionId id = 0;
    uint64_t enqueued = 0;
    std::deque<Mark> marks;
    int64_t firstTokenNs = 0;
    uint32_t turnsDone = 0;
    bool closeWhenDone = false;
};

/** tryCreateSession, timed in wall and generator-thread CPU. */
serve::Admission
timedCreate(serve::Engine &engine, const serve::SessionOptions &options,
            std::vector<double> &wall_ms, std::vector<double> &cpu_ms)
{
    const int64_t t0 = nowNs();
    const int64_t c0 = threadCpuNs();
    serve::Admission a;
    try {
        a = engine.tryCreateSession(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: create: %s\n", e.what());
        a.status = serve::Admission::Status::RejectedSessionLimit;
    }
    cpu_ms.push_back(static_cast<double>(threadCpuNs() - c0) / 1e6);
    wall_ms.push_back(msSince(t0, nowNs()));
    return a;
}

/** Shared verb accounting of both loops. */
class VerbLog
{
  public:
    explicit VerbLog(WindowResult &result) : out(result) {}

    /** Run one enqueue verb: time it, count it, and report whether
     *  the engine accepted it. */
    template <class Fn>
    bool
    enqueue(uint32_t stream, Fn &&fn)
    {
        ++out.attempted;
        ++out.verbs[stream];
        const int64_t t0 = nowNs();
        const int64_t c0 = threadCpuNs();
        bool accepted = false;
        try {
            accepted = fn().accepted();
            out.verbUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            if (!accepted)
                std::fprintf(stderr,
                             "perfbench: stream %u: enqueue rejected\n",
                             stream);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: stream %u: %s\n", stream,
                         e.what());
        }
        verbCpuNs += threadCpuNs() - c0;
        out.failed += !accepted;
        return accepted;
    }

    /** tryCreateSession, counted as a verb. */
    serve::Admission
    create(uint32_t stream, serve::Engine &engine,
           const serve::SessionOptions &options)
    {
        ++out.attempted;
        ++out.verbs[stream];
        const serve::Admission a =
            timedCreate(engine, options, out.createMs, out.createCpuMs);
        verbCpuNs += static_cast<int64_t>(out.createCpuMs.back() * 1e6);
        out.failed += !a.admitted();
        return a;
    }

    /** Generator-thread CPU spent inside the engine's verbs. */
    int64_t verbCpuNs = 0;

  protected:
    WindowResult &out;
};

class OpenLoop : public VerbLog
{
  public:
    OpenLoop(Prepared &prepared, const std::vector<bool> &capture,
             WindowResult &result)
        : VerbLog(result), engine(*prepared.engine),
          sch(prepared.schedule), capture(capture),
          live(sch.streams.size())
    {
        for (size_t i = 0; i < live.size(); ++i)
            live[i].id = prepared.ids[i];
    }

    void
    run()
    {
        const int64_t start = nowNs();
        size_t next = 0;
        int64_t last_sweep = 0;
        int64_t last_cal = 0;
        while (next < sch.sends.size() || !active.empty()) {
            int64_t now = nowNs();
            while (next < sch.sends.size() &&
                   start + sch.sends[next].dueNs <= now) {
                const int64_t due = start + sch.sends[next].dueNs;
                out.lagMs.push_back(msSince(due, now));
                send(sch.sends[next], due);
                ++next;
                now = nowNs();
            }
            if (!active.empty()) {
                if (last_sweep != 0)
                    out.pollUs.push_back(
                        static_cast<double>(now - last_sweep) / 1e3);
                last_sweep = now;
                sweep(now);
            } else {
                last_sweep = 0;
            }
            int64_t wake = next < sch.sends.size()
                               ? start + sch.sends[next].dueNs
                               : INT64_MAX;
            if (!active.empty())
                wake = std::min(wake, now + kPollIntervalNs);
            if (wake == INT64_MAX)
                break;
            // Nothing outstanding and the next send far enough away:
            // sample the host's speed without delaying a send or a
            // completion.
            if (active.empty() && wake - now >= kCalGapNs &&
                now - last_cal >= kCalEveryNs) {
                out.calUs.push_back(calibrationSampleUs());
                last_cal = nowNs();
            }
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(wake)));
        }
    }

  private:
    void
    expect(uint32_t s, Mark mark)
    {
        Live &l = live[s];
        if (l.marks.empty())
            active.push_back(s);
        l.marks.push_back(mark);
    }

    void
    ask(uint32_t s, int64_t due)
    {
        Live &l = live[s];
        if (!enqueue(s, [&] {
                return engine.tryAsk(l.id, kQuestionTokens, kAnswerTokens);
            }))
            return;
        expect(s, {l.enqueued + 2, due, MarkKind::FirstToken});
        expect(s, {l.enqueued + 1 + kAnswerTokens, due, MarkKind::TurnDone});
        l.enqueued += 1 + kAnswerTokens;
    }

    void
    feed(uint32_t s, uint32_t frames, int64_t due)
    {
        Live &l = live[s];
        if (!enqueue(s, [&] { return engine.tryFeedFrame(l.id, frames); }))
            return;
        for (uint32_t f = 0; f < frames; ++f)
            expect(s, {++l.enqueued, due, MarkKind::Frame});
    }

    void
    send(const Send &snd, int64_t due)
    {
        const uint32_t s = snd.stream;
        switch (snd.kind) {
          case SendKind::Frame:
            feed(s, 1, due);
            break;
          case SendKind::Turn:
            ask(s, due);
            break;
          case SendKind::Arrive: {
            const serve::Admission a =
                create(s, engine, sch.streams[s].options);
            if (!a.admitted())
                break;
            live[s].id = a.id;
            feed(s, sch.streams[s].clipFrames, due);
            ask(s, due);
            break;
          }
          case SendKind::Return:
            if (live[s].id == 0) {
                ++out.attempted;
                ++out.failed;
                break;
            }
            live[s].closeWhenDone = true;
            ask(s, due);
            break;
        }
    }

    void
    complete(Live &l, const Mark &m, int64_t now)
    {
        const double ms = msSince(m.dueNs, now);
        switch (m.kind) {
          case MarkKind::Frame:
            out.frameMs.push_back(ms);
            out.frameLatencySumS += ms / 1e3;
            break;
          case MarkKind::FirstToken:
            l.firstTokenNs = now;
            break;
          case MarkKind::TurnDone:
            // A churn-resume first turn also carries the create and the
            // clip; TTFT and TPOT come from the later turns only, so
            // their medians never straddle two populations.
            if (l.turnsDone++ == 0) {
                out.firstAnswerMs.push_back(ms);
                break;
            }
            out.answerMs.push_back(ms);
            out.ttftMs.push_back(msSince(m.dueNs, l.firstTokenNs));
            out.tpotMs.push_back(msSince(l.firstTokenNs, now) /
                                 (kAnswerTokens - 1));
            break;
        }
    }

    void
    sweep(int64_t now)
    {
        for (size_t i = 0; i < active.size();) {
            const uint32_t s = active[i];
            Live &l = live[s];
            const uint64_t done = engine.sessionStats(l.id).itemsExecuted;
            while (!l.marks.empty() && l.marks.front().items <= done) {
                complete(l, l.marks.front(), now);
                l.marks.pop_front();
            }
            if (!l.marks.empty()) {
                ++i;
                continue;
            }
            active[i] = active.back();
            active.pop_back();
            if (l.closeWhenDone) {
                if (capture[s])
                    out.tokens[s] = engine.result(l.id).generated;
                engine.closeSession(l.id);
                l.id = 0;
            }
        }
    }

    serve::Engine &engine;
    const Schedule &sch;
    const std::vector<bool> &capture;
    std::vector<Live> live;
    /** Streams with completions outstanding. */
    std::vector<uint32_t> active;
};

/** CPU and wall stamps around one awaited verb. */
struct Stamp
{
    int64_t wallNs = nowNs();
    int64_t cpuNs = processCpuNs();
};

/** One session driven through a script, every verb awaited: frames
 *  one at a time, and each turn as {Question, Generate 1} then the rest
 *  of its tokens, so TTFT and TPOT are exact. With the rest of the
 *  engine idle, the process CPU between send and completion is the
 *  verb's service cost. */
class ClosedLoop : public VerbLog
{
  public:
    /** @p calibrate: take a calibration sample after every awaited
     *  send (the service probe; not the long-video window). */
    ClosedLoop(serve::Engine &engine, serve::SessionId id, uint32_t stream,
               WindowResult &result, bool calibrate)
        : VerbLog(result), engine(engine), id(id), stream(stream),
          calibrate(calibrate)
    {
    }

    void
    run(const SessionScript &script)
    {
        using Type = SessionEvent::Type;
        const std::vector<SessionEvent> &ev = script.events;
        uint32_t turns = 0;
        for (size_t i = 0; i < ev.size(); ++i) {
            if (ev[i].type == Type::Frame) {
                const Stamp f0;
                Stamp f1;
                if (!awaited([&] { return engine.tryFeedFrame(id, 1); }, f1))
                    continue;
                out.frameMs.push_back(msSince(f0.wallNs, f1.wallNs));
                out.frameCpuMs.push_back(msSince(f0.cpuNs, f1.cpuNs));
                if (calibrate)
                    out.frameCalUs.push_back(lastCal);
                out.frameLatencySumS += out.frameMs.back() / 1e3;
                continue;
            }
            const bool turn = ev[i].type == Type::Question &&
                              i + 1 < ev.size() &&
                              ev[i + 1].type == Type::Generate &&
                              ev[i + 1].tokens > 1;
            Stamp q1, q2;
            if (!turn) {
                awaited([&] { return engine.tryEnqueue(id, {ev[i]}); }, q1);
                continue;
            }
            const uint32_t rest = ev[++i].tokens - 1;
            const Stamp q0;
            if (!awaited(
                    [&] {
                        return engine.tryEnqueue(
                            id, {{Type::Question, ev[i - 1].tokens},
                                 {Type::Generate, 1}});
                    },
                    q1))
                continue;
            const double cal1 = lastCal;
            if (!awaited(
                    [&] {
                        return engine.tryEnqueue(id,
                                                 {{Type::Generate, rest}});
                    },
                    q2))
                continue;
            out.ttftCpuMs.push_back(msSince(q0.cpuNs, q1.cpuNs));
            out.tpotCpuMs.push_back(msSince(q1.cpuNs, q2.cpuNs) / rest);
            if (calibrate) {
                out.ttftCalUs.push_back(cal1);
                out.tpotCalUs.push_back(lastCal);
            }
            if (turns++ == 0) {
                out.firstAnswerMs.push_back(msSince(q0.wallNs, q2.wallNs));
                continue;
            }
            out.answerMs.push_back(msSince(q0.wallNs, q2.wallNs));
            out.ttftMs.push_back(msSince(q0.wallNs, q1.wallNs));
            out.tpotMs.push_back(msSince(q1.wallNs, q2.wallNs) / rest);
        }
    }

  private:
    /** Send, wait, and stamp the completion in @p done; false when
     *  the engine refused the send. */
    template <class Fn>
    bool
    awaited(Fn &&send, Stamp &done)
    {
        if (!enqueue(stream, send))
            return false;
        engine.wait(id);
        done = Stamp();
        // The engine is idle now: the sample sees the host as the send
        // just did, and it runs after the send's stamp.
        if (calibrate)
            lastCal = calibrationSampleUs();
        return true;
    }

    serve::Engine &engine;
    serve::SessionId id;
    uint32_t stream;
    bool calibrate;
    double lastCal = 0.0;
};

} // namespace

Prepared
prepare(Workload w, uint64_t seed, double seconds,
        const serve::PolicyFactory *factory, std::shared_ptr<ColdStore> store)
{
    Prepared p;
    p.schedule = buildSchedule(w, seed, seconds);
    if (factory)
        p.schedule.engine.factory = factory;
    if (store)
        p.schedule.engine.kvBudget.store = std::move(store);
    p.engine = std::make_unique<serve::Engine>(p.schedule.engine);
    p.ids.assign(p.schedule.streams.size(), 0);
    for (uint32_t i = 0; i < p.schedule.precreated; ++i) {
        std::vector<double> cpu_ms;
        const serve::Admission a = timedCreate(
            *p.engine, p.schedule.streams[i].options, p.createMs, cpu_ms);
        if (!a.admitted())
            throw std::runtime_error("set-up session rejected");
        p.ids[i] = a.id;
    }
    return p;
}

void
warmUp(serve::Engine &engine)
{
    std::vector<serve::SessionId> ids;
    for (uint64_t i = 0; i < 2; ++i) {
        serve::SessionOptions o;
        o.name = "warm-up-" + std::to_string(i);
        o.scriptSeed = 1000 + i;
        const serve::SessionId id = engine.createSession(o);
        engine.feedFrame(id, 24);
        engine.ask(id, kQuestionTokens, kAnswerTokens);
        ids.push_back(id);
    }
    for (serve::SessionId id : ids)
        engine.closeSession(id);
}

WindowResult
runWindow(Prepared &p, const std::vector<bool> &capture)
{
    WindowResult out;
    const Schedule &sch = p.schedule;
    const size_t n = sch.streams.size();
    out.verbs.assign(n, 0);
    out.tokens.assign(n, std::nullopt);
    const int64_t cpu0 = processCpuNs();
    const int64_t gen0 = threadCpuNs();
    const int64_t t0 = nowNs();
    int64_t verb_cpu_ns = 0;
    if (sch.workload == Workload::LongVideo) {
        ClosedLoop loop(*p.engine, p.ids[0], 0, out, false);
        loop.run(sch.streams[0].script);
        verb_cpu_ns = loop.verbCpuNs;
    } else {
        OpenLoop loop(p, capture, out);
        loop.run();
        verb_cpu_ns = loop.verbCpuNs;
    }
    out.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    const int64_t cpu_ns = processCpuNs() - cpu0;
    const int64_t harness_ns = threadCpuNs() - gen0 - verb_cpu_ns;
    out.cpuS = static_cast<double>(cpu_ns) / 1e9;
    out.serveCpuS = static_cast<double>(cpu_ns - harness_ns) / 1e9;
    out.stats = p.engine->stats();
    // Sessions still open after the window: read their outputs now,
    // outside every timed latency.
    for (size_t s = 0; s < n; ++s)
        if (capture[s] && !out.tokens[s] && p.ids[s] != 0)
            out.tokens[s] = p.engine->result(p.ids[s]).generated;
    return out;
}

WindowResult
runServiceProbe(const Schedule &sch, double seconds)
{
    const size_t n = sch.streams.size();
    WindowResult out;
    out.verbs.assign(n, 0);
    out.tokens.assign(n, std::nullopt);
    std::vector<uint32_t> order = sch.sample;
    for (uint32_t s = 0; s < n; ++s)
        if (std::find(sch.sample.begin(), sch.sample.end(), s) ==
            sch.sample.end())
            order.push_back(s);

    serve::Engine engine(sch.engine);
    const int64_t end = nowNs() + static_cast<int64_t>(seconds * 1e9);
    for (size_t k = 0; k < sch.sample.size() || nowNs() < end; ++k) {
        const uint32_t s = order[k % order.size()];
        const serve::Admission a =
            VerbLog(out).create(s, engine, sch.streams[s].options);
        if (!a.admitted())
            continue;
        out.createCalUs.push_back(calibrationSampleUs());
        ClosedLoop(engine, a.id, s, out, true)
            .run(prefixScript(sch.streams[s].script, sch.checkTurns));
        if (k < sch.sample.size())
            out.tokens[s] = engine.result(a.id).generated;
        engine.closeSession(a.id);
    }
    return out;
}

int64_t
processCpuNs()
{
    return cpuClockNs(CLOCK_PROCESS_CPUTIME_ID);
}

int64_t
threadCpuNs()
{
    return cpuClockNs(CLOCK_THREAD_CPUTIME_ID);
}

} // namespace vrex::perfbench
