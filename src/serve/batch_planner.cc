#include "serve/batch_planner.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vrex::serve
{

BatchPlanner::BatchPlanner(BatchConfig config) : cfg(config)
{
    st.config = cfg;
}

bool
BatchPlanner::eligible(const SessionEvent &front)
{
    return front.type == SessionEvent::Type::Generate &&
           front.tokens >= 1;
}

uint32_t
BatchPlanner::planStepSize(uint32_t claimable_peers) const
{
    if (!enabled())
        return 0;
    // A fused step of one member is just a slower solo step.
    const uint32_t members =
        std::min(cfg.maxBatch, claimable_peers + 1);
    return members >= 2 ? members : 0;
}

void
BatchPlanner::recordCoalesced(uint32_t members)
{
    VREX_ASSERT(members >= 2, "fused step below two members");
    ++st.coalescedSteps;
    st.coalescedMembers += members;
    st.maxBatchObserved = std::max(st.maxBatchObserved, members);
    st.sizeHist.add(static_cast<double>(members));
}

void
BatchPlanner::recordSolo(uint64_t generate_units)
{
    st.soloSteps += generate_units;
}

} // namespace vrex::serve
