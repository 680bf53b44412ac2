#include "llm/attention.hh"

#include <cmath>
#include <numeric>
#include <vector>

#include "tensor/ops.hh"

namespace vrex
{

double
LayerSelection::selectedRatio(uint32_t past_len) const
{
    if (past_len == 0 || kvHeads.empty())
        return 1.0;
    double sum = 0.0;
    for (const auto &h : kvHeads)
        sum += static_cast<double>(h.selectedCount(past_len)) / past_len;
    return sum / static_cast<double>(kvHeads.size());
}

namespace
{

/** Check the degenerate-input contract of one member (see
 *  AttentionMember docs). O(nKvHeads). */
void
checkAttentionInputs(const ModelConfig &cfg, const AttentionMember &m)
{
    VREX_ASSERT(m.kv != nullptr, "attention member without a cache");
    VREX_ASSERT(m.kv->keys.rows() == m.pastLen + m.rows,
                "attention expects the block appended to the cache");
    VREX_ASSERT(m.kv->values.rows() == m.kv->keys.rows(),
                "attention cache keys/values row mismatch");
    VREX_ASSERT(m.sel == nullptr ||
                m.sel->kvHeads.size() == cfg.nKvHeads,
                "selection has wrong head count");
    if (m.sel != nullptr) {
        for (const HeadSelection &h : m.sel->kvHeads)
            // Indices are ascending, so the back is the max: every
            // explicit selection must point below pastLen (which
            // at pastLen == 0 means it must be empty).
            VREX_ASSERT(h.selectAll || h.indices.empty() ||
                            h.indices.back() < m.pastLen,
                        "selection index beyond the past");
    }
}

/**
 * Attend one query token of one head: @p qv against the first
 * @p count tokens of @p attended (the selected past, then the causal
 * block prefix), adding the probability-weighted values into @p ov.
 */
void
attendToken(const float *qv, const LayerKV &kv, uint32_t kv_off,
            uint32_t head_dim, const uint32_t *attended, size_t count,
            float *ov, std::vector<float> &scores)
{
    scores.resize(count);
    const float scale = 1.0f / std::sqrt((float)head_dim);
    dotGather(qv, kv.keys.raw() + kv_off, kv.keys.cols(), attended,
              count, head_dim, scores.data());
    for (float &v : scores)
        v *= scale;
    softmax(scores.data(), static_cast<uint32_t>(count));
    axpyGather(scores.data(), kv.values.raw() + kv_off, kv.values.cols(),
               attended, count, head_dim, ov);
}

} // namespace

void
attentionForward(const ModelConfig &cfg, const Matrix &q,
                 const std::vector<AttentionMember> &members, Matrix &out)
{
    const uint32_t head_dim = cfg.headDim();
    const uint32_t group = cfg.groupSize();
    uint32_t rows = 0;
    for (const AttentionMember &m : members) {
        // An empty block reads neither its cache nor its selection.
        if (m.rows > 0)
            checkAttentionInputs(cfg, m);
        rows += m.rows;
    }
    VREX_ASSERT(q.rows() == rows, "attention rows must tile the members");
    VREX_ASSERT(cfg.nHeads == cfg.nKvHeads * group,
                "query heads must split evenly into KV-head groups");

    out = Matrix(rows, cfg.dModel);
    std::vector<uint32_t> attended;
    std::vector<float> scores;

    // Members outer, KV heads next. One attended list per (member,
    // KV head): the selected past, then the whole block. The head's
    // query heads and every row share it; row t reads its first
    // nPast + t + 1 entries, the causal prefix.
    uint32_t row0 = 0;
    for (const AttentionMember &m : members) {
        if (m.rows == 0)
            continue;
        for (uint32_t kv_head = 0; kv_head < cfg.nKvHeads; ++kv_head) {
            const HeadSelection *hsel =
                m.sel ? &m.sel->kvHeads[kv_head] : nullptr;
            if (!hsel || hsel->selectAll) {
                attended.resize(m.pastLen);
                std::iota(attended.begin(), attended.end(), 0u);
            } else {
                attended.assign(hsel->indices.begin(),
                                hsel->indices.end());
            }
            const size_t n_past = attended.size();
            for (uint32_t t = 0; t < m.rows; ++t)
                attended.push_back(m.pastLen + t);

            const uint32_t kv_off = kv_head * head_dim;
            for (uint32_t g = 0; g < group; ++g) {
                const uint32_t q_off = (kv_head * group + g) * head_dim;
                for (uint32_t t = 0; t < m.rows; ++t)
                    attendToken(q.row(row0 + t) + q_off, *m.kv, kv_off,
                                head_dim, attended.data(), n_past + t + 1,
                                out.row(row0 + t) + q_off, scores);
            }
        }
        row0 += m.rows;
    }
}

} // namespace vrex
