/**
 * @file
 * Scheduler observability: admission, queueing and dispatch counters
 * exported by vrex::serve::Engine / Scheduler as plain value
 * snapshots, so benches and tests can assert saturation and fairness
 * behaviour without peeking into scheduler internals.
 *
 * Two kinds of numbers live here:
 *
 *  - *Logical* counters (items, slices, queue depths, wait measured
 *    in dispatch slices, deadline promotions, rate-limited slices).
 *    Item/slice/rejection totals are exact given the verb arrival
 *    order; the wait/depth high-water marks are schedule-dependent
 *    in live feeding (always within their bounds) and become exact
 *    when bursts are staged under pause()/resume(), which is how the
 *    tests and the kvmu_layout --saturate panel assert on them.
 *  - *Wall-clock* times (queue wait / service nanoseconds, and the
 *    per-class latency-percentile histograms built on them). These
 *    are observability-only: never assert exact values on them —
 *    only sample counts, which are logical.
 */

#ifndef VREX_SERVE_STATS_HH
#define VREX_SERVE_STATS_HH

#include <array>
#include <cmath>
#include <cstdint>

#include "common/stats.hh"

namespace vrex::serve
{

/**
 * Scheduling class of a session. The dispatcher keeps one ready
 * list per class and serves them weighted round-robin
 * (SchedulerConfig::classWeights), so latency-sensitive generation
 * (Interactive) can be preferred over background frame ingest (Bulk)
 * without starving either. Sessions default to Interactive; with the
 * default weights {1, 1} the two lists behave as one plain
 * round-robin queue (the PR-4 contract).
 */
enum class SchedClass : uint8_t
{
    Interactive = 0,
    Bulk = 1,
};

/** Number of scheduling classes (array dimension of the knobs). */
inline constexpr uint32_t kSchedClasses = 2;

inline const char *
schedClassName(SchedClass c)
{
    return c == SchedClass::Interactive ? "interactive" : "bulk";
}

/**
 * Latency histogram with logarithmic bins: samples are stored as
 * log10(nanoseconds) over 1 ns .. 10 s in 0.1-decade bins, so
 * percentiles carry ~±12% relative resolution across seven orders
 * of magnitude. Wall-clock observability only — assert on samples()
 * (a logical count), never on the percentile values.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram() : hist(0.0, 10.0, 100) {}

    void
    add(uint64_t ns)
    {
        hist.add(std::log10(static_cast<double>(ns) + 1.0));
    }

    /** Samples recorded (== dispatch slices measured). */
    uint64_t samples() const { return hist.total(); }

    /** Percentile (q in [0, 1]) in milliseconds; 0 when empty. */
    double
    percentileMs(double q) const
    {
        if (samples() == 0)
            return 0.0;
        return std::pow(10.0, hist.percentile(q)) / 1e6;
    }

    double p50Ms() const { return percentileMs(0.50); }
    double p95Ms() const { return percentileMs(0.95); }
    double p99Ms() const { return percentileMs(0.99); }

    /** Merge a same-shaped snapshot (counts and samples add up). */
    void merge(const LatencyHistogram &other)
    {
        hist.merge(other.hist);
    }

  private:
    Histogram hist;
};

/** Admission + dispatch knobs of the engine scheduler. */
struct SchedulerConfig
{
    /** Max concurrently open sessions; 0 = unlimited. */
    uint32_t maxLiveSessions = 0;
    /** Max queued unit work items per session; 0 = unbounded.
     *  A Generate{n} verb counts as n items (see
     *  StreamingSession::unitEvents); Frame and Question count 1. */
    uint32_t maxQueuedPerSession = 0;
    /** Unit work items one dispatch slice executes before the
     *  session rotates to the back of the ready queue; 0 = drain the
     *  whole queue per slice (no time-slicing). */
    uint32_t sliceEvents = 4;
    /** Weighted round-robin: consecutive slices class c may dispatch
     *  before the rotation yields to the next class with ready work
     *  (0 is treated as 1). Defaults {1, 1}: the classes alternate
     *  slice-for-slice, which is byte-identical to the PR-4 single
     *  ready list when only one class is in use. */
    std::array<uint32_t, kSchedClasses> classWeights{1, 1};
    /** Default per-session rate limit: max unit items one dispatch
     *  slice may execute for a session (caps sliceEvents, so per
     *  ready-list rotation the session advances at most this many
     *  items); 0 = no cap. Per-session override:
     *  SessionOptions::maxItemsPerRound. */
    uint32_t maxItemsPerRound = 0;
    /** Deadline-aware slicing: when a session's oldest queued item
     *  has waited more than this many dispatch slices (the logical
     *  clock), the session is promoted to the front of its class's
     *  ready list; 0 = disabled. */
    uint64_t deadlineSlices = 0;
};

/**
 * Cross-session batched-generation knobs (EngineConfig::batching).
 * Default off: the scheduler dispatches exactly as before and the
 * engine never takes the fused path, byte-identical to PR 9. When
 * enabled, per-session results are STILL byte-identical to a
 * sequential run — batching only fuses weight streams across
 * sessions (see serve/README.md, "Cross-session batched
 * generation").
 */
struct BatchConfig
{
    /** Master switch for the fused generation path. */
    bool enabled = false;
    /** Max member sessions one fused step may coalesce (>= 2). */
    uint32_t maxBatch = 16;
};

/**
 * Batched-dispatch counters (Stats::batch). All logical: exact
 * under staged bursts, schedule-dependent (but internally
 * consistent) in live feeding. With batching disabled everything
 * stays zero.
 */
struct BatchStats
{
    /** The knobs the planner was built with. */
    BatchConfig config;
    /** Fused multi-session steps executed. */
    uint64_t coalescedSteps = 0;
    /** Member generation steps inside fused steps (one unit work
     *  item per member session per step). */
    uint64_t coalescedMembers = 0;
    /** Generation unit items that ran down the solo path while
     *  batching was enabled (not enough claimable peers). */
    uint64_t soloSteps = 0;
    /** Largest fused step observed. */
    uint32_t maxBatchObserved = 0;
    /** Distribution of fused-step sizes (members per step). */
    Histogram sizeHist{0.5, 64.5, 64};

    /** Mean members per fused step (0 when none ran). */
    double
    meanBatchSize() const
    {
        return coalescedSteps
                   ? static_cast<double>(coalescedMembers) /
                         static_cast<double>(coalescedSteps)
                   : 0.0;
    }

    /** meanBatchSize() relative to the maxBatch cap. */
    double
    fillRatio() const
    {
        return config.maxBatch > 0 ? meanBatchSize() / config.maxBatch
                                   : 0.0;
    }
};

/** Per-class dispatch counters + latency histograms (in Stats). */
struct ClassStats
{
    /** Dispatch slices this class ran. */
    uint64_t slices = 0;
    /** Unit work items this class executed. */
    uint64_t itemsExecuted = 0;
    /** Times a session of this class was deadline-promoted to the
     *  front of its ready list (logical — deterministic when bursts
     *  are staged). */
    uint64_t deadlinePromotions = 0;
    /** Slices whose item budget was clamped by a per-session rate
     *  limit while more work was queued (logical). */
    uint64_t rateLimitedSlices = 0;
    /** Ready->dispatch wait per slice (wall clock). */
    LatencyHistogram wait;
    /** Slice service time (wall clock). */
    LatencyHistogram service;
};

/** Per-session queue counters (also aggregated into Stats). */
struct QueueStats
{
    /** Scheduling class the session currently dispatches under. */
    SchedClass schedClass = SchedClass::Interactive;
    /** Effective per-session rate limit (0 = none). */
    uint32_t rateLimit = 0;
    /** Unit work items accepted into the queue. */
    uint64_t itemsEnqueued = 0;
    /** Unit work items refused by backpressure (bounded queue). */
    uint64_t itemsRejected = 0;
    /** Unit work items executed. */
    uint64_t itemsExecuted = 0;
    /** Dispatch slices this session ran. */
    uint64_t slices = 0;
    /** Current queue depth (unit work items). */
    uint32_t depth = 0;
    /** High-water queue depth. */
    uint32_t maxDepth = 0;
    /**
     * Fairness: the max number of *other* sessions' slices dispatched
     * between this session becoming ready and being dispatched. With
     * a single class (or default weights and one class in use) the
     * round-robin ready queue guarantees maxWaitSlices <= live - 1;
     * the weighted multi-class bound is documented in
     * serve/README.md.
     */
    uint64_t maxWaitSlices = 0;
    /** Times this session was deadline-promoted to the front of its
     *  class (logical). */
    uint64_t deadlinePromotions = 0;
    /** Slices whose budget was clamped by the rate limit while more
     *  work was queued (logical). */
    uint64_t rateLimitedSlices = 0;
    /** Wall-clock total time spent ready-but-waiting (ns). */
    uint64_t waitNs = 0;
    /** Wall-clock total time spent executing slices (ns). */
    uint64_t serviceNs = 0;
    /** Wall-clock worst single ready->dispatch wait (ns). */
    uint64_t maxWaitNs = 0;
    /** Per-slice ready->dispatch wait distribution (wall clock). */
    LatencyHistogram waitHist;
    /** Per-slice service-time distribution (wall clock). */
    LatencyHistogram serviceHist;
};

/**
 * KV-budget / session-hibernation snapshot (Engine::stats()::kv).
 * All byte values are logical; the latency histograms are wall-clock
 * observability only (assert on samples(), never on values).
 */
struct KvBudgetStats
{
    /** Configured budget (0 = unlimited, hibernation disabled). */
    uint64_t budgetBytes = 0;
    /** KV working-set bytes of resident (non-hibernated) sessions. */
    uint64_t residentBytes = 0;
    uint32_t residentSessions = 0;
    uint32_t hibernatedSessions = 0;
    /** Bytes currently held by the cold store. */
    uint64_t coldBytes = 0;
    /** Bytes of the engine's interned SessionWeights, each set
     *  counted once however many sessions run it (filled with or
     *  without a budget; not priced by the budget). */
    uint64_t weightBytes = 0;
    /** Interned weight sets (one per distinct master seed used). */
    uint32_t weightSets = 0;
    /** Cumulative hibernate / wake transitions. */
    uint64_t hibernates = 0;
    uint64_t wakes = 0;
    /** Cumulative serialized blob bytes written on hibernate. */
    uint64_t hibernatedBytes = 0;
    /** Cumulative blob bytes read back on wake. */
    uint64_t wokenBytes = 0;
    /** Serialize + cold-store put time per hibernate (wall clock). */
    LatencyHistogram hibernateLatency;
    /** Cold-store get + policy rebuild + restore time per wake
     *  (wall clock) — the wake-latency contract surface. */
    LatencyHistogram wakeLatency;
};

/** Engine-wide scheduler snapshot. */
struct Stats
{
    // ---- admission ----------------------------------------------
    /** Sessions admitted since construction. */
    uint64_t admitted = 0;
    /** createSession attempts refused by the live-session cap. */
    uint64_t rejectedAdmissions = 0;
    /** Currently open sessions. */
    uint32_t liveSessions = 0;
    /** High-water open-session count. */
    uint32_t maxLiveObserved = 0;

    // ---- queueing / dispatch (aggregated over all sessions, -----
    // ---- including ones that have since closed) -----------------
    uint64_t itemsEnqueued = 0;
    uint64_t itemsRejected = 0;
    uint64_t itemsExecuted = 0;
    uint64_t slices = 0;
    uint32_t maxQueueDepth = 0;
    uint64_t maxWaitSlices = 0;
    uint64_t waitNs = 0;
    uint64_t serviceNs = 0;
    uint64_t maxWaitNs = 0;

    /** Per-class dispatch counters and wait/service latency
     *  percentiles (includes closed sessions). */
    std::array<ClassStats, kSchedClasses> classes;

    /** Weighted round-robin rotation snapshot: the class holding
     *  the dispatch turn and its remaining slice credit. Loan
     *  slices (dispatched for another class while the turn holder
     *  is busy but not ready) consume no credit. Diagnostic — exact
     *  only when dispatch is quiescent or externally gated. */
    SchedClass wrrTurnClass = SchedClass::Interactive;
    uint32_t wrrTurnCredit = 0;

    /** The knobs the scheduler was built with. */
    SchedulerConfig config;

    /** KV-budget / hibernation state. The Scheduler itself leaves
     *  this default; Engine::stats() fills it in (the budget manager
     *  lives in the engine, not the dispatcher). */
    KvBudgetStats kv;

    /** Cross-session batched-dispatch counters (all zero when
     *  batching is disabled). */
    BatchStats batch;

    const ClassStats &
    forClass(SchedClass c) const
    {
        return classes[static_cast<size_t>(c)];
    }

    /** Mean ready->dispatch wait per slice, milliseconds. */
    double
    meanWaitMs() const
    {
        return slices ? waitNs / 1e6 / static_cast<double>(slices)
                      : 0.0;
    }

    /** Mean slice service time, milliseconds. */
    double
    meanServiceMs() const
    {
        return slices ? serviceNs / 1e6 / static_cast<double>(slices)
                      : 0.0;
    }
};

} // namespace vrex::serve

#endif // VREX_SERVE_STATS_HH
