#include "llm/attention.hh"

#include <cmath>
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

/** Shared per-(head, token) scratch for the attention kernels. */
struct AttendScratch
{
    std::vector<float> scores;
    std::vector<uint32_t> attended;
};

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
 * Attend one query token of one head: @p qv against the selected
 * past tokens plus the causal block prefix ending at block offset
 * @p t.
 */
void
attendToken(const float *qv, const LayerKV &kv, uint32_t kv_off,
            uint32_t head_dim, uint32_t past_len, uint32_t t,
            const HeadSelection *hsel, float *ov, AttendScratch &s)
{
    // Tokens this query may attend: selected past tokens plus
    // the causal prefix of the current block.
    s.attended.clear();
    if (!hsel || hsel->selectAll) {
        for (uint32_t i = 0; i < past_len; ++i)
            s.attended.push_back(i);
    } else {
        s.attended.assign(hsel->indices.begin(),
                          hsel->indices.end());
    }
    for (uint32_t i = 0; i <= t; ++i)
        s.attended.push_back(past_len + i);

    s.scores.resize(s.attended.size());
    const float scale = 1.0f / std::sqrt((float)head_dim);
    dotGather(qv, kv.keys.raw() + kv_off, kv.keys.cols(),
              s.attended.data(), s.attended.size(), head_dim,
              s.scores.data());
    for (float &v : s.scores)
        v *= scale;
    softmax(s.scores.data(),
            static_cast<uint32_t>(s.scores.size()));

    for (size_t i = 0; i < s.attended.size(); ++i) {
        const float p = s.scores[i];
        if (p == 0.0f)
            continue;
        const float *vvec = kv.values.row(s.attended[i]) + kv_off;
        for (uint32_t d = 0; d < head_dim; ++d)
            ov[d] += p * vvec[d];
    }
}

} // namespace

void
attentionForward(const ModelConfig &cfg, const Matrix &q,
                 const std::vector<AttentionMember> &members, Matrix &out)
{
    const uint32_t head_dim = cfg.headDim();
    uint32_t rows = 0;
    for (const AttentionMember &m : members) {
        // An empty block reads neither its cache nor its selection.
        if (m.rows > 0)
            checkAttentionInputs(cfg, m);
        rows += m.rows;
    }
    VREX_ASSERT(q.rows() == rows, "attention rows must tile the members");

    out = Matrix(rows, cfg.dModel);
    AttendScratch scratch;

    // Heads outer, members next, tokens inner.
    for (uint32_t h = 0; h < cfg.nHeads; ++h) {
        const uint32_t kv_head = h / cfg.groupSize();
        const uint32_t q_off = h * head_dim;
        const uint32_t kv_off = kv_head * head_dim;
        uint32_t row = 0;
        for (const AttentionMember &m : members) {
            const HeadSelection *hsel =
                m.sel ? &m.sel->kvHeads[kv_head] : nullptr;
            for (uint32_t t = 0; t < m.rows; ++t, ++row)
                attendToken(q.row(row) + q_off, *m.kv, kv_off, head_dim,
                            m.pastLen, t, hsel, out.row(row) + q_off,
                            scratch);
        }
    }
}

} // namespace vrex
