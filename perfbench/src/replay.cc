/**
 * @file
 * Single-threaded replay of workload scripts straight through
 * StreamingSession: the output check (generated tokens must equal the
 * engine's) and, in the traced run, the pipeline / video / llm / core
 * self-time split.
 */

#include <algorithm>

#include "bench.hh"
#include "video/vision_tower.hh"

namespace vrex::perfbench
{

namespace
{

/** Unit work items, as the engine's scheduler executes them. */
std::vector<SessionEvent>
unitEvents(const SessionScript &script)
{
    std::vector<SessionEvent> out;
    for (const SessionEvent &e : script.events)
        for (const SessionEvent &u : StreamingSession::unitEvents(e))
            out.push_back(u);
    return out;
}

/** Index of the first unit after the first answer, or the middle when
 *  the script has at most one answer. */
size_t
roundTripPoint(const std::vector<SessionEvent> &units)
{
    using Type = SessionEvent::Type;
    uint32_t answers = 0;
    for (const SessionEvent &e : units)
        answers += e.type == Type::Question;
    if (answers < 2)
        return units.size() / 2;
    for (size_t i = 1; i < units.size(); ++i)
        if (units[i - 1].type == Type::Generate &&
            units[i].type != Type::Generate)
            return i;
    return units.size() / 2;
}

/** The vision stack StreamingSession::begin() builds, rebuilt with the
 *  same seeds and dimensions so it can be timed on its own. */
struct VideoTwin
{
    FrameGenerator gen;
    VisionTower tower;
    MlpProjector projector;

    VideoTwin(const ModelConfig &model, const SessionScript &script,
              uint64_t seed)
        : gen(script.video, seed ^ script.seed, script.name),
          tower(script.video.latentDim, std::max(32u, model.dModel / 4),
                seed),
          projector(std::max(32u, model.dModel / 4), model.dModel, seed)
    {
    }
};

struct Live
{
    std::unique_ptr<SelectionPolicy> policy;
    std::unique_ptr<StreamingSession> session;
};

Live
construct(const serve::EngineConfig &cfg, CoreSink &core, Tracer &tracer,
          uint32_t tid)
{
    const int32_t sp = tracer.open(SpanKind::Construct, tid);
    Live l;
    l.policy = makeTimedResv(cfg.model, cfg.policy.resvCfg, core);
    l.session = std::make_unique<StreamingSession>(
        cfg.model, l.policy.get(), cfg.sessionSeed);
    tracer.close(sp);
    return l;
}

} // namespace

std::vector<uint32_t>
replayPlain(const serve::EngineConfig &cfg, const SessionScript &script)
{
    serve::PolicyInstance policy = serve::makePolicy(cfg.model, cfg.policy);
    StreamingSession session(cfg.model, policy.active(), cfg.sessionSeed);
    return session.run(script).generated;
}

std::vector<uint32_t>
replayTraced(const serve::EngineConfig &cfg, const SessionScript &script,
             uint32_t tid, Tracer &tracer, CoreSink &core,
             ProbeTimes &probes)
{
    using Type = SessionEvent::Type;
    const std::vector<SessionEvent> units = unitEvents(script);
    const size_t round_trip = roundTripPoint(units);

    Live live = construct(cfg, core, tracer, tid);
    int32_t sp = tracer.open(SpanKind::Begin, tid);
    live.session->begin(script.name, script.video, script.seed);
    tracer.close(sp);

    sp = tracer.open(SpanKind::Check, tid);
    VideoTwin twin(cfg.model, script, cfg.sessionSeed);
    tracer.close(sp);

    for (size_t i = 0; i < units.size(); ++i) {
        if (i == round_trip) {
            sp = tracer.open(SpanKind::Serialize, tid);
            const std::vector<uint8_t> blob = live.session->serialize();
            tracer.close(sp);
            probes.blobKiB.push_back(blob.size() / 1024.0);
            Live fresh = construct(cfg, core, tracer, tid);
            sp = tracer.open(SpanKind::Restore, tid);
            fresh.session->restore(blob);
            tracer.close(sp);
            // The old session points at the old policy: drop it first.
            live.session = std::move(fresh.session);
            live.policy = std::move(fresh.policy);
        }
        switch (units[i].type) {
          case Type::Frame: {
            const int64_t t0 = nowNs();
            const Matrix latents = twin.gen.nextFrameLatents();
            const int64_t t1 = nowNs();
            const Matrix features = twin.tower.encode(latents);
            const int64_t t2 = nowNs();
            const Matrix embeds = twin.projector.project(features);
            const int64_t t3 = nowNs();
            (void)embeds;
            tracer.leaf(SpanKind::VideoFrameGen, tid, t0, t1 - t0);
            tracer.leaf(SpanKind::VideoEncode, tid, t1, t2 - t1);
            tracer.leaf(SpanKind::VideoProject, tid, t2, t3 - t2);
            probes.frameGenUs.push_back((t1 - t0) / 1e3);
            probes.encodeUs.push_back((t2 - t1) / 1e3);
            probes.projectUs.push_back((t3 - t2) / 1e3);
            sp = tracer.open(SpanKind::FeedFrame, tid);
            live.session->feedFrame();
            tracer.close(sp);
            tracer.spans()[sp].videoNs = t3 - t0;
            break;
          }
          case Type::Question:
            sp = tracer.open(SpanKind::FeedQuestion, tid);
            live.session->feedQuestion(units[i].tokens);
            tracer.close(sp);
            break;
          case Type::Generate: {
            const Model &model = live.session->model();
            const int64_t t0 = nowNs();
            const std::vector<float> logits = model.lastLogits();
            const int64_t dt = nowNs() - t0;
            (void)logits;
            tracer.leaf(SpanKind::LlmLogits, tid, t0, dt);
            probes.logitsUs.push_back(dt / 1e3);
            sp = tracer.open(SpanKind::GenerateToken, tid);
            live.session->generate(1);
            tracer.close(sp);
            break;
          }
        }
    }

    sp = tracer.open(SpanKind::Check, tid);
    std::vector<uint32_t> tokens = live.session->snapshot().generated;
    tracer.close(sp);
    return tokens;
}

bool
tokensMatch(const std::vector<uint32_t> &engine,
            const std::vector<uint32_t> &replay)
{
    return engine.size() >= replay.size() &&
           std::equal(replay.begin(), replay.end(), engine.begin());
}

} // namespace vrex::perfbench
