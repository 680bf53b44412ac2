/**
 * @file
 * The batching stage between the scheduler and the model: at each
 * dispatch round the BatchPlanner decides whether the round's
 * primary session and the currently *ready* peers form a fused
 * cross-session generation step, and accounts for what the
 * dispatcher actually did.
 *
 * Division of labour: the planner owns the batching *policy*
 * (eligibility of a queued event, the fused-step size, the
 * coalesced/solo counters surfaced as Stats::batch); the Scheduler
 * owns the *mechanism* (ready-list surgery, per-member wait/slice
 * accounting, the executor handoff). The planner holds no lock of
 * its own — the Scheduler mutates it under its dispatch mutex, which
 * is also why the planner keeps no back-references into scheduler
 * state.
 *
 * Determinism: the planner never inspects clocks, RNGs or session
 * contents — eligibility is a pure function of the queued event, so
 * whether steps coalesce depends only on what is ready at dispatch
 * time, and per-session results never depend on it at all (a fused
 * step runs the same ragged forward as a solo step, with more
 * members; see Model::forward in llm/model.hh).
 */

#ifndef VREX_SERVE_BATCH_PLANNER_HH
#define VREX_SERVE_BATCH_PLANNER_HH

#include <cstdint>

#include "serve/stats.hh"
#include "video/workload.hh"

namespace vrex::serve
{

class BatchPlanner
{
  public:
    explicit BatchPlanner(BatchConfig config);

    const BatchConfig &config() const { return cfg; }

    /** Whether the fused path is available at all. */
    bool enabled() const { return cfg.enabled && cfg.maxBatch >= 2; }

    /**
     * Whether a queue whose *front* pending event is @p front may
     * join a fused generation step: only single-token-steppable
     * Generate work qualifies (a Generate{n} contributes its next
     * unit step; Frame and Question never batch — their execution is
     * not a generation step).
     */
    static bool eligible(const SessionEvent &front);

    /**
     * Size of the fused step to run this round, given the primary
     * plus @p claimable_peers eligible ready peers: 0 means run the
     * normal solo slice, otherwise the member count (primary
     * included), capped at maxBatch and only >= 2.
     */
    uint32_t planStepSize(uint32_t claimable_peers) const;

    /** Record a fused step of @p members sessions. */
    void recordCoalesced(uint32_t members);

    /** Record @p generate_units Generate items that ran solo. */
    void recordSolo(uint64_t generate_units);

    /** Counter snapshot (Stats::batch). */
    const BatchStats &stats() const { return st; }

  private:
    BatchConfig cfg;
    BatchStats st;
};

} // namespace vrex::serve

#endif // VREX_SERVE_BATCH_PLANNER_HH
