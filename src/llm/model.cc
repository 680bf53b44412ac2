#include "llm/model.hh"

#include <algorithm>
#include <utility>

#include "common/rng.hh"
#include "tensor/ops.hh"

namespace vrex
{

double
BlockStats::meanRatio() const
{
    if (layerRatios.empty())
        return 1.0;
    double s = 0.0;
    for (double r : layerRatios)
        s += r;
    return s / static_cast<double>(layerRatios.size());
}

ModelWeights::ModelWeights(const ModelConfig &config_value,
                           uint64_t seed_value)
    : config(config_value), seed(seed_value)
{
    layers.reserve(config.nLayers);
    for (uint32_t l = 0; l < config.nLayers; ++l)
        layers.emplace_back(config, l, seed);
    Rng rng(seed, config.name + "/embedding");
    embedding = Matrix(config.vocabSize, config.dModel);
    rng.fillGaussian(embedding.raw(), embedding.size(), 1.0f);
    finalNorm.assign(config.dModel, 1.0f);
}

Model::Model(std::shared_ptr<const ModelWeights> weights)
    : w(std::move(weights)), kv(w->config)
{
    lastHid.assign(w->config.dModel, 0.0f);
}

Model::Model(const ModelConfig &config, uint64_t seed)
    : Model(std::make_shared<const ModelWeights>(config, seed))
{
}

Matrix
Model::embedTokens(const std::vector<uint32_t> &ids) const
{
    const ModelConfig &cfg = w->config;
    Matrix x(static_cast<uint32_t>(ids.size()), cfg.dModel);
    for (uint32_t t = 0; t < ids.size(); ++t) {
        VREX_ASSERT(ids[t] < cfg.vocabSize, "token id out of range");
        std::copy_n(w->embedding.row(ids[t]), cfg.dModel, x.row(t));
    }
    return x;
}

std::vector<BlockStats>
Model::forward(const std::vector<Member> &members, Matrix x)
{
    VREX_ASSERT(!members.empty(), "forward needs members");
    const ModelConfig &cfg = members[0].model->config();
    std::vector<BlockStats> stats(members.size());
    std::vector<uint32_t> live; // Members with rows, in order.
    std::vector<DecoderLayer::Member> layer_members;
    uint32_t rows = 0;
    for (uint32_t i = 0; i < members.size(); ++i) {
        const Member &m = members[i];
        VREX_ASSERT(m.model->config().nLayers == cfg.nLayers &&
                        m.model->config().nHeads == cfg.nHeads,
                    "forward needs one geometry");
        stats[i].stage = m.stage;
        stats[i].blockLen = m.rows;
        stats[i].pastLen = m.model->kv.tokenCount();
        rows += m.rows;
        if (m.rows == 0)
            continue;
        m.model->kv.beginTokens(m.rows, m.frameId, m.stage);
        live.push_back(i);
        layer_members.push_back({nullptr, &m.model->kv, m.model->selPolicy,
                                 stats[i].pastLen, m.rows, m.stage});
    }
    VREX_ASSERT(x.rows() == rows && x.cols() == cfg.dModel,
                "forward rows must tile the members");

    for (uint32_t l = 0; l < cfg.nLayers && !live.empty(); ++l) {
        for (size_t j = 0; j < live.size(); ++j)
            layer_members[j].layer = &members[live[j]].model->w->layers[l];
        const std::vector<LayerSelection> sels =
            DecoderLayer::forward(cfg, layer_members, x);
        for (size_t j = 0; j < live.size(); ++j) {
            BlockStats &st = stats[live[j]];
            st.layerRatios.push_back(sels[j].selectedRatio(st.pastLen));
            std::vector<uint32_t> &per_head =
                st.selectedPerHead.emplace_back();
            for (const auto &h : sels[j].kvHeads)
                per_head.push_back(h.selectedCount(st.pastLen));
        }
    }

    // Final norm of each block's last row becomes its decoding state.
    uint32_t end = 0;
    for (const Member &m : members) {
        end += m.rows;
        if (m.rows == 0)
            continue;
        m.model->lastHid.assign(x.row(end - 1), x.row(end - 1) + cfg.dModel);
        rmsNorm(m.model->lastHid.data(), m.model->w->finalNorm.data(),
                cfg.dModel);
    }
    return stats;
}

BlockStats
Model::forwardBlock(Matrix x, int32_t frame_id, TokenStage stage)
{
    const uint32_t rows = x.rows();
    return forward({{this, rows, frame_id, stage}}, std::move(x))[0];
}

Matrix
Model::logits(const std::vector<const Model *> &models)
{
    VREX_ASSERT(!models.empty(), "logits need models");
    const ModelConfig &cfg = models[0]->config();
    const uint32_t n = static_cast<uint32_t>(models.size());
    Matrix hid(n, cfg.dModel);
    std::vector<RowGroup> groups;
    for (uint32_t i = 0; i < n; ++i) {
        const Model &m = *models[i];
        VREX_ASSERT(m.config().dModel == cfg.dModel &&
                        m.config().vocabSize == cfg.vocabSize,
                    "logits need one geometry");
        std::copy_n(m.lastHid.data(), cfg.dModel, hid.row(i));
        if (groups.empty() || groups.back().bT != &m.w->embedding)
            groups.push_back({i, i + 1, &m.w->embedding});
        else
            groups.back().rowEnd = i + 1;
    }
    Matrix out;
    matmulTransposedGrouped(hid, groups, out);
    return out;
}

std::vector<float>
Model::lastLogits() const
{
    const Matrix out = logits({this});
    return std::vector<float>(out.row(0), out.row(0) + out.cols());
}

BlockStats
Model::prefillFrame(const Matrix &frame_embeds, int32_t frame_id)
{
    return forwardBlock(frame_embeds, frame_id, TokenStage::VideoFrame);
}

BlockStats
Model::prefillText(const std::vector<uint32_t> &ids)
{
    return forwardBlock(embedTokens(ids), -1, TokenStage::QuestionText);
}

void
Model::resetSession()
{
    kv.clear();
    if (selPolicy)
        selPolicy->reset();
    lastHid.assign(w->config.dModel, 0.0f);
}

void
Model::serializeState(serial::ByteWriter &w) const
{
    kv.serialize(w);
    w.putVec(lastHid);
}

void
Model::restoreState(serial::ByteReader &r)
{
    kv.restore(r);
    lastHid = r.getVec<float>();
    if (lastHid.size() != w->config.dModel)
        throw serial::SerialError(
            "Model::restoreState: lastHidden size mismatch");
}

} // namespace vrex
