#include "pipeline/memory_driver.hh"

#include <algorithm>

namespace vrex
{

double
MemoryReplayStats::tokensPerRunTimeOrder() const
{
    return runsTimeOrder
        ? static_cast<double>(selectedTokens) / runsTimeOrder
        : 0.0;
}

double
MemoryReplayStats::tokensPerRunClustered() const
{
    return runsClustered
        ? static_cast<double>(selectedTokens) / runsClustered
        : 0.0;
}

MemoryTrackingPolicy::MemoryTrackingPolicy(SelectionPolicy *inner_policy,
                                           const ModelConfig &model_cfg,
                                           const TierConfig &tiers)
    : inner(inner_policy), model(model_cfg),
      tiersState(model_cfg.kvBytesPerToken(2.0), tiers)
{
    VREX_ASSERT(inner != nullptr, "tracking needs an inner policy");
}

void
MemoryTrackingPolicy::onBlockAppended(uint32_t layer,
                                      const KVCache &cache,
                                      uint32_t block_start,
                                      uint32_t block_len,
                                      TokenStage stage)
{
    if (layer == 0) {
        tiersState.appendTokens(block_len);
        replay.offloadedBytes = tiersState.stats().offloadedBytes;
    }
    inner->onBlockAppended(layer, cache, block_start, block_len,
                           stage);
}

LayerSelection
MemoryTrackingPolicy::select(uint32_t layer, const Matrix &q,
                             const KVCache &cache, uint32_t past_len,
                             TokenStage stage)
{
    LayerSelection sel =
        inner->select(layer, q, cache, past_len, stage);
    if (past_len == 0)
        return sel;

    // KV fetches are head-granular: each KV head's region is mapped
    // (and, with the KVMU, cluster-reordered) independently.
    const uint64_t head_granule =
        model.kvBytesPerTokenPerLayer(2.0) /
        std::max(1u, model.nKvHeads);
    bool touched = false;
    for (uint32_t head = 0; head < sel.kvHeads.size(); ++head) {
        const HeadSelection &h = sel.kvHeads[head];
        std::vector<uint32_t> fetched;
        if (h.selectAll) {
            fetched.resize(past_len);
            for (uint32_t t = 0; t < past_len; ++t)
                fetched[t] = t;
        } else {
            fetched = h.indices;  // Already sorted ascending.
        }
        if (fetched.empty())
            continue;
        touched = true;

        replay.fetchedBytes +=
            tiersState.touch(fetched, head_granule);
        replay.selectedTokens += fetched.size();
        replay.runsTimeOrder += ClusterLayout::runsTimeOrder(fetched);

        ClusterLayout layout;
        if (resvSource) {
            const HCTable &tab = resvSource->table(layer, head);
            std::vector<std::vector<uint32_t>> members;
            members.reserve(tab.clusterCount());
            for (uint32_t c = 0; c < tab.clusterCount(); ++c)
                members.push_back(tab.tokens(c));
            layout.rebuild(members, cache.tokenCount());
        }
        replay.runsClustered += layout.runsForSelection(fetched);
    }
    replay.fetchEvents += touched;
    return sel;
}

void
MemoryTrackingPolicy::reset()
{
    inner->reset();
    tiersState.clear();
    replay = MemoryReplayStats{};
}

void
MemoryTrackingPolicy::serializeState(serial::ByteWriter &w) const
{
    tiersState.serialize(w);
    w.put<uint64_t>(replay.fetchedBytes);
    w.put<uint64_t>(replay.offloadedBytes);
    w.put<uint64_t>(replay.fetchEvents);
    w.put<uint64_t>(replay.runsTimeOrder);
    w.put<uint64_t>(replay.runsClustered);
    w.put<uint64_t>(replay.selectedTokens);
    inner->serializeState(w);
}

void
MemoryTrackingPolicy::restoreState(serial::ByteReader &r)
{
    tiersState.restore(r);
    replay.fetchedBytes = r.get<uint64_t>();
    replay.offloadedBytes = r.get<uint64_t>();
    replay.fetchEvents = r.get<uint64_t>();
    replay.runsTimeOrder = r.get<uint64_t>();
    replay.runsClustered = r.get<uint64_t>();
    replay.selectedTokens = r.get<uint64_t>();
    inner->restoreState(r);
}

} // namespace vrex
