#include "serve/engine.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/wallclock.hh"

namespace vrex::serve
{

SessionOptions
SessionOptions::fromScript(const SessionScript &script)
{
    SessionOptions o;
    o.name = script.name;
    o.video = script.video;
    o.scriptSeed = script.seed;
    return o;
}

Engine::Engine(EngineConfig config)
    : cfg(std::move(config)),
      pool(resolveWorkerCount(cfg.workers)),
      sched(pool, cfg.sched,
            [this](Scheduler::Key key,
                   const std::vector<SessionEvent> &batch) {
                runItems(key, batch);
            },
            cfg.batching,
            [this](const std::vector<Scheduler::Key> &keys) {
                runBatch(keys);
            }),
      coldStore(cfg.kvBudget.store
                    ? cfg.kvBudget.store
                    : std::make_shared<MemoryColdStore>()),
      budget(cfg.kvBudget)
{
}

Engine::~Engine()
{
    // A paused scheduler would deadlock waitAll(); always release.
    sched.resume();
    sched.waitAll();
    // Members destroy in reverse declaration order: the session map
    // dies first, then the scheduler, then the pool. That is safe
    // because waitAll() guarantees every dispatched slice finished
    // and no slice job is queued, so no worker still references a
    // session (or the scheduler) when they go away.
}

Engine::Session *
Engine::sessionFor(SessionId id)
{
    LockGuard lock(smu);
    auto it = sessions.find(id);
    VREX_ASSERT(it != sessions.end(),
                "scheduler dispatched an unknown session");
    return it->second.get();
}

void
Engine::runItems(SessionId id, const std::vector<SessionEvent> &batch)
{
    // Exclusive access: the scheduler never dispatches one session
    // on two workers, and close/pin wait for idleness.
    Session *s = sessionFor(id);
    if (s->hibernated)
        wakeSession(id, *s);
    StreamingSession *exec = s->exec.get();
    for (const SessionEvent &event : batch)
        exec->apply(event);
    if (budget.enabled()) {
        budget.onExecuted(
            id, exec->kvBytes(budget.config().bytesPerElem));
        enforceBudget(id);
    }
}

void
Engine::runBatch(const std::vector<SessionId> &ids)
{
    // Exclusive access to every member: the scheduler marked each
    // one running before handing us the fused step.
    std::vector<StreamingSession *> execs;
    execs.reserve(ids.size());
    for (SessionId id : ids) {
        Session *s = sessionFor(id);
        if (s->hibernated)
            wakeSession(id, *s);
        execs.push_back(s->exec.get());
    }
    StreamingSession::generateStep(execs);
    if (budget.enabled()) {
        for (size_t i = 0; i < ids.size(); ++i)
            budget.onExecuted(
                ids[i],
                execs[i]->kvBytes(budget.config().bytesPerElem));
        // One sweep covers the whole fused step; members are all
        // running, so tryPinIdle skips them as victims anyway.
        enforceBudget(ids[0]);
    }
}

Admission
Engine::tryCreateSession(const SessionOptions &options)
{
    SessionId id;
    {
        LockGuard lock(smu);
        id = nextId++;
    }
    const uint32_t rate = options.maxItemsPerRound
                              ? *options.maxItemsPerRound
                              : cfg.sched.maxItemsPerRound;
    if (!sched.tryAdmit(id, options.schedClass, rate)) {
        Admission a;
        a.status = Admission::Status::RejectedSessionLimit;
        return a;
    }

    // Build the per-session state only once admitted. Release the
    // reserved slot if construction throws (e.g. a custom policy
    // maker), or the cap would leak capacity.
    try {
        auto s = std::make_unique<Session>();
        s->options = options;
        buildExec(*s);
        s->exec->begin(options.name, options.video,
                       options.scriptSeed, options.forcedTokens);

        LockGuard lock(smu);
        sessions.emplace(id, std::move(s));
    } catch (...) {
        sched.remove(id);
        throw;
    }
    if (budget.enabled())
        budget.onAdmit(id, options.schedClass);
    Admission a;
    a.id = id;
    return a;
}

SessionId
Engine::createSession(const SessionOptions &options)
{
    Admission a = tryCreateSession(options);
    if (!a.admitted())
        throw AdmissionError(
            "vrex::serve::Engine: session rejected, " +
            std::to_string(cfg.sched.maxLiveSessions) +
            " sessions already live");
    return a.id;
}

SessionId
Engine::submit(const SessionScript &script)
{
    return submit(script, SessionOptions{});
}

SessionId
Engine::submit(const SessionScript &script, SessionOptions options)
{
    // The script is the source of truth for stream identity (these
    // three fields feed the per-session RNG streams); only the
    // policy/seed/forcing overrides of @p options are honoured.
    options.name = script.name;
    options.video = script.video;
    options.scriptSeed = script.seed;
    SessionId id = createSession(options);
    try {
        enqueue(id, script.events);
    } catch (...) {
        // E.g. the script overflows a bounded queue: the caller
        // never learns the id, so close it or the session (and its
        // admission slot) would leak.
        closeSession(id);
        throw;
    }
    return id;
}

EnqueueResult
Engine::tryEnqueue(SessionId id,
                   const std::vector<SessionEvent> &events)
{
    return sched.tryEnqueue(id, events);
}

EnqueueResult
Engine::tryFeedFrame(SessionId id, uint32_t frames)
{
    return tryEnqueue(
        id, std::vector<SessionEvent>(
                frames, SessionEvent{SessionEvent::Type::Frame, 0}));
}

EnqueueResult
Engine::tryAsk(SessionId id, uint32_t question_tokens,
               uint32_t answer_tokens)
{
    return tryEnqueue(
        id, {{SessionEvent::Type::Question, question_tokens},
             {SessionEvent::Type::Generate, answer_tokens}});
}

void
Engine::enqueue(SessionId id, const std::vector<SessionEvent> &events)
{
    EnqueueResult r = tryEnqueue(id, events);
    if (!r.accepted())
        throw QueueFullError(
            "vrex::serve::Engine: session " + std::to_string(id) +
            " queue full (" + std::to_string(r.depth) + "/" +
            std::to_string(cfg.sched.maxQueuedPerSession) +
            " items queued, " + std::to_string(r.items) +
            " requested); use the try* verbs for backpressure");
}

void
Engine::feedFrame(SessionId id, uint32_t frames)
{
    enqueue(id, std::vector<SessionEvent>(
                    frames, SessionEvent{SessionEvent::Type::Frame, 0}));
}

void
Engine::ask(SessionId id, uint32_t question_tokens,
            uint32_t answer_tokens)
{
    enqueue(id, {{SessionEvent::Type::Question, question_tokens},
                 {SessionEvent::Type::Generate, answer_tokens}});
}

void
Engine::wait(SessionId id)
{
    if (!sched.wait(id))
        throw std::out_of_range(
            "vrex::serve::Engine: unknown or closed session id " +
            std::to_string(id));
}

void
Engine::waitAll()
{
    sched.waitAll();
}

Engine::Session &
Engine::pinnedSession(SessionId id)
{
    LockGuard lock(smu);
    auto it = sessions.find(id);
    VREX_ASSERT(it != sessions.end(), "pinned session not in map");
    return *it->second;
}

namespace
{

/** Releases a Scheduler pin on scope exit, so a throwing accessor
 *  body cannot leave the session pinned (= deadlocked) forever. */
class PinGuard
{
  public:
    PinGuard(Scheduler &scheduler, Scheduler::Key key)
        : sched(scheduler), pinned(key)
    {
    }
    ~PinGuard() { sched.unpin(pinned); }
    PinGuard(const PinGuard &) = delete;
    PinGuard &operator=(const PinGuard &) = delete;

  private:
    Scheduler &sched;
    Scheduler::Key pinned;
};

} // namespace

void
Engine::pinOrThrow(SessionId id)
{
    if (!sched.pinWhenIdle(id))
        throw std::out_of_range(
            "vrex::serve::Engine: unknown or closed session id " +
            std::to_string(id));
}

std::shared_ptr<const SessionWeights>
Engine::weightsFor(uint64_t seed)
{
    LockGuard lock(wmu);
    std::shared_ptr<const SessionWeights> &w = weightSets[seed];
    if (!w)
        w = std::make_shared<const SessionWeights>(cfg.model, seed);
    return w;
}

void
Engine::buildExec(Session &s)
{
    const SessionOptions &options = s.options;
    const PolicySpec &spec =
        options.policy ? *options.policy : cfg.policy;
    const uint64_t seed =
        options.sessionSeed ? *options.sessionSeed : cfg.sessionSeed;
    const PolicyFactory &factory =
        cfg.factory ? *cfg.factory : PolicyFactory::global();
    s.policy = factory.make(cfg.model, spec);
    s.exec = std::make_unique<StreamingSession>(weightsFor(seed),
                                                s.policy.active());
}

void
Engine::wakeSession(SessionId id, Session &s)
{
    const auto t0 = WallClock::now();
    std::vector<uint8_t> blob = coldStore->get(id);
    // Rebuild exactly what tryCreateSession built — the interned
    // weights, a fresh policy, the executor — so only the blob's
    // state overlay distinguishes this from a fresh session.
    // restore() validates the identity and is bit-exact.
    buildExec(s);
    s.exec->restore(blob);
    s.hibernated = false;
    coldStore->erase(id);
    budget.markWoken(id,
                     s.exec->kvBytes(budget.config().bytesPerElem),
                     blob.size(), elapsedNs(t0));
}

void
Engine::hibernateSession(SessionId id, Session &s)
{
    const auto t0 = WallClock::now();
    std::vector<uint8_t> blob = s.exec->serialize();
    coldStore->put(id, blob);
    s.exec.reset();
    s.policy = PolicyInstance{};
    s.hibernated = true;
    budget.markHibernated(id, blob.size(), elapsedNs(t0));
}

void
Engine::enforceBudget(SessionId self)
{
    while (budget.overBudget()) {
        bool progressed = false;
        for (SessionId victim : budget.victims(self)) {
            if (!budget.overBudget())
                return;
            // Non-blocking: a busy victim is skipped, not awaited —
            // the dispatch path must never stall behind a peer.
            if (!sched.tryPinIdle(victim))
                continue;
            PinGuard pin(sched, victim);
            // The pin blocks closeSession's sched.remove() until we
            // unpin, so the session is still in the map.
            Session &s = pinnedSession(victim);
            if (s.hibernated)
                continue;
            hibernateSession(victim, s);
            progressed = true;
        }
        // Every remaining candidate is busy (or gone): give up this
        // sweep; the next slice's enforcement tries again.
        if (!progressed)
            return;
    }
}

SessionRunResult
Engine::result(SessionId id)
{
    // Pin when drained: the dispatcher skips the session while the
    // potentially large snapshot copies outside any lock, so peers
    // keep scheduling. Events enqueued meanwhile run after unpin.
    pinOrThrow(id);
    PinGuard pin(sched, id);
    Session &s = pinnedSession(id);
    if (s.hibernated)
        wakeSession(id, s);
    return s.exec->snapshot();
}

void
Engine::closeSession(SessionId id)
{
    if (!sched.remove(id))
        throw std::out_of_range(
            "vrex::serve::Engine: unknown or closed session id " +
            std::to_string(id));
    {
        LockGuard lock(smu);
        sessions.erase(id);
    }
    // A hibernated session closes without waking: just drop the blob.
    budget.onClose(id);
    coldStore->erase(id);
}

size_t
Engine::openSessions() const
{
    LockGuard lock(smu);
    return sessions.size();
}

void
Engine::setClass(SessionId id, SchedClass cls)
{
    if (!sched.setClass(id, cls))
        throw std::out_of_range(
            "vrex::serve::Engine: unknown or closed session id " +
            std::to_string(id));
    budget.setClass(id, cls);
}

void
Engine::pause()
{
    sched.pause();
}

void
Engine::resume()
{
    sched.resume();
}

Stats
Engine::stats() const
{
    Stats s = sched.stats();
    s.kv = budget.snapshot(*coldStore);
    LockGuard lock(wmu);
    s.kv.weightSets = static_cast<uint32_t>(weightSets.size());
    for (const auto &[seed, w] : weightSets)
        s.kv.weightBytes += w->bytes();
    return s;
}

QueueStats
Engine::sessionStats(SessionId id) const
{
    return sched.queueStats(id);
}

const Model &
Engine::model(SessionId id)
{
    pinOrThrow(id);
    PinGuard pin(sched, id);
    Session &s = pinnedSession(id);
    if (s.hibernated)
        wakeSession(id, s);
    return s.exec->model();
}

const PolicyInstance &
Engine::policy(SessionId id)
{
    pinOrThrow(id);
    PinGuard pin(sched, id);
    Session &s = pinnedSession(id);
    if (s.hibernated)
        wakeSession(id, s);
    return s.policy;
}

const MemoryReplayStats *
Engine::memoryStats(SessionId id)
{
    pinOrThrow(id);
    PinGuard pin(sched, id);
    Session &s = pinnedSession(id);
    if (s.hibernated)
        wakeSession(id, s);
    return s.policy.memory() ? &s.policy.memory()->stats() : nullptr;
}

FidelityResult
Engine::evaluateFidelity(const SessionScript &script,
                         const PolicySpec &spec)
{
    return evaluateFidelityBatch({{script, spec}})[0];
}

std::vector<FidelityResult>
Engine::evaluateFidelityBatch(const std::vector<FidelityJob> &jobs)
{
    // Close every session this batch still owns if anything throws
    // mid-flight (e.g. AdmissionError when the batch outgrows
    // maxLiveSessions): the ids are local, so a leaked session could
    // never be closed by the caller.
    std::vector<SessionId> live;
    live.reserve(jobs.size());
    auto submitTracked = [this, &live](const SessionScript &script,
                                       SessionOptions o) {
        SessionId id = submit(script, std::move(o));
        live.push_back(id);
        return id;
    };
    auto closeTracked = [this, &live](SessionId id) {
        closeSession(id);
        live.erase(std::find(live.begin(), live.end(), id));
    };

    try {
        // Phase 1: full-attention reference runs, all concurrent.
        std::vector<SessionId> refs;
        refs.reserve(jobs.size());
        for (const FidelityJob &job : jobs) {
            SessionOptions o; // Stream identity: from the script.
            o.policy = PolicySpec::full();
            refs.push_back(submitTracked(job.script, o));
        }
        std::vector<SessionRunResult> ref_runs;
        ref_runs.reserve(jobs.size());
        for (SessionId id : refs) {
            ref_runs.push_back(result(id));
            closeTracked(id);
        }

        // Phase 2: teacher-forced policy runs, all concurrent.
        std::vector<SessionId> tests;
        tests.reserve(jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            SessionOptions o;
            o.policy = jobs[i].policy;
            o.forcedTokens = ref_runs[i].generated;
            tests.push_back(submitTracked(jobs[i].script, o));
        }
        std::vector<FidelityResult> out;
        out.reserve(jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            SessionRunResult test = result(tests[i]);
            closeTracked(tests[i]);
            out.push_back(compareRuns(ref_runs[i], test));
        }
        return out;
    } catch (...) {
        for (SessionId id : live) {
            try {
                closeSession(id);
            } catch (...) {
                // Best-effort cleanup; the original error wins.
            }
        }
        throw;
    }
}

} // namespace vrex::serve
