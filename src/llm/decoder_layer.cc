#include "llm/decoder_layer.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "tensor/ops.hh"

namespace vrex
{

namespace
{

Matrix
randomWeight(uint32_t out_dim, uint32_t in_dim, Rng &rng)
{
    Matrix w(out_dim, in_dim);
    const float scale = 1.0f / std::sqrt(static_cast<float>(in_dim));
    rng.fillGaussian(w.raw(), w.size(), scale);
    return w;
}

/** Rows [first, first + count) of @p m as their own matrix. */
Matrix
rowSlice(const Matrix &m, uint32_t first, uint32_t count)
{
    Matrix out(count, m.cols());
    std::copy_n(m.row(first), size_t(count) * m.cols(), out.raw());
    return out;
}

} // namespace

DecoderLayer::DecoderLayer(const ModelConfig &config, uint32_t index,
                           uint64_t seed)
    : layerIndex(index)
{
    Rng rng(seed, config.name + "/layer" + std::to_string(index));
    const uint32_t d = config.dModel;
    const uint32_t kv_dim = config.nKvHeads * config.headDim();
    wq = randomWeight(d, d, rng);
    wk = randomWeight(kv_dim, d, rng);
    wv = randomWeight(kv_dim, d, rng);
    wo = randomWeight(d, d, rng);
    w1 = randomWeight(config.ffnDim, d, rng);
    w3 = randomWeight(config.ffnDim, d, rng);
    w2 = randomWeight(d, config.ffnDim, rng);
    attnNorm.assign(d, 1.0f);
    ffnNorm.assign(d, 1.0f);
    // Mildly varied norm gains so layers are not identical maps.
    for (uint32_t i = 0; i < d; ++i) {
        attnNorm[i] += 0.05f * static_cast<float>(rng.gaussian());
        ffnNorm[i] += 0.05f * static_cast<float>(rng.gaussian());
    }
}

std::vector<LayerSelection>
DecoderLayer::forward(const ModelConfig &cfg,
                      const std::vector<Member> &members, Matrix &x)
{
    VREX_ASSERT(!members.empty(), "layer forward needs members");
    const DecoderLayer &first = *members[0].layer;
    const uint32_t d = cfg.dModel;
    const uint32_t head_dim = cfg.headDim();
    const uint32_t n = static_cast<uint32_t>(members.size());

    // Row offset of every member, and the contiguous runs of members
    // that run one layer object (one shared weight set), so a run
    // streams its matrices once.
    std::vector<uint32_t> row0(n + 1, 0);
    std::vector<std::pair<uint32_t, uint32_t>> runs;
    for (uint32_t i = 0; i < n; ++i) {
        const DecoderLayer &l = *members[i].layer;
        VREX_ASSERT(l.layerIndex == first.layerIndex &&
                        l.wq.rows() == d &&
                        l.wk.rows() == cfg.nKvHeads * head_dim &&
                        l.w1.rows() == cfg.ffnDim,
                    "layer forward needs one geometry");
        VREX_ASSERT(members[i].rows > 0, "layer forward of an empty block");
        row0[i + 1] = row0[i] + members[i].rows;
        if (runs.empty() || members[runs.back().first].layer != &l)
            runs.emplace_back(i, i + 1);
        else
            runs.back().second = i + 1;
    }
    VREX_ASSERT(x.rows() == row0[n], "layer rows must tile the members");
    auto project = [&](const Matrix &a, const Matrix DecoderLayer::*w,
                      Matrix &out) {
        std::vector<RowGroup> groups;
        for (const auto &[b, e] : runs)
            groups.push_back({row0[b], row0[e], &(members[b].layer->*w)});
        matmulTransposedGrouped(a, groups, out);
    };

    // Attention sub-block.
    Matrix h = x;
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t r = row0[i]; r < row0[i + 1]; ++r)
            rmsNorm(h.row(r), members[i].layer->attnNorm.data(), d);

    Matrix q, k, v;
    project(h, &DecoderLayer::wq, q);
    project(h, &DecoderLayer::wk, k);
    project(h, &DecoderLayer::wv, v);

    // One cos/sin table per row serves all its query and key heads.
    std::vector<float> rc(head_dim / 2), rs(head_dim / 2);
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t r = row0[i]; r < row0[i + 1]; ++r) {
            const uint32_t pos = members[i].basePos + (r - row0[i]);
            ropeAngles(head_dim, pos, cfg.ropeTheta, rc.data(), rs.data());
            for (uint32_t hh = 0; hh < cfg.nHeads; ++hh)
                applyRopeAngles(q.row(r) + hh * head_dim, head_dim,
                                rc.data(), rs.data());
            for (uint32_t hh = 0; hh < cfg.nKvHeads; ++hh)
                applyRopeAngles(k.row(r) + hh * head_dim, head_dim,
                                rc.data(), rs.data());
        }
    }

    // Cache append and policy calls touch member-private state: per
    // member, in member order.
    const uint32_t l = first.layerIndex;
    std::vector<LayerSelection> sels(n, LayerSelection::full(cfg.nKvHeads));
    std::vector<AttentionMember> attn;
    for (uint32_t i = 0; i < n; ++i) {
        const Member &m = members[i];
        m.cache->appendLayer(l, rowSlice(k, row0[i], m.rows),
                             rowSlice(v, row0[i], m.rows));
        if (m.policy) {
            m.policy->onBlockAppended(l, *m.cache, m.basePos, m.rows,
                                      m.stage);
            sels[i] = m.policy->select(l, rowSlice(q, row0[i], m.rows),
                                       *m.cache, m.basePos, m.stage);
        }
        attn.push_back({&m.cache->layer(l), m.basePos, &sels[i], m.rows});
    }

    Matrix attn_out;
    attentionForward(cfg, q, attn, attn_out);

    Matrix proj;
    project(attn_out, &DecoderLayer::wo, proj);
    for (uint32_t r = 0; r < x.rows(); ++r)
        addInPlace(x.row(r), proj.row(r), d);

    // FFN sub-block.
    Matrix h2 = x;
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t r = row0[i]; r < row0[i + 1]; ++r)
            rmsNorm(h2.row(r), members[i].layer->ffnNorm.data(), d);
    Matrix gate, up, down;
    project(h2, &DecoderLayer::w1, gate);
    project(h2, &DecoderLayer::w3, up);
    for (uint32_t r = 0; r < x.rows(); ++r) {
        silu(gate.row(r), cfg.ffnDim);
        hadamard(gate.row(r), up.row(r), cfg.ffnDim);
    }
    project(gate, &DecoderLayer::w2, down);
    for (uint32_t r = 0; r < x.rows(); ++r)
        addInPlace(x.row(r), down.row(r), d);

    return sels;
}

} // namespace vrex
