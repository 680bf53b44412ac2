#include "core/resv.hh"

#include <bit>
#include <cmath>
#include <limits>

#include "tensor/ops.hh"

namespace vrex
{

ResvPolicy::ResvPolicy(const ModelConfig &model_config,
                       const ResvConfig &config)
    : model(model_config), cfg(config),
      encoder(model_config.headDim(), config.nHp, config.seed),
      sigScratch(bitWords(config.nHp))
{
    const uint32_t n = model.nLayers * model.nKvHeads;
    tables.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        tables.emplace_back(model.headDim(), cfg.nHp, cfg.thHd);
}

const HCTable &
ResvPolicy::table(uint32_t layer, uint32_t kv_head) const
{
    return tables[layer * model.nKvHeads + kv_head];
}

ResvCounters &
ResvPolicy::countersFor(TokenStage stage)
{
    return stage == TokenStage::VideoFrame ? frameCtr : textCtr;
}

void
ResvPolicy::onBlockAppended(uint32_t layer, const KVCache &cache,
                            uint32_t block_start, uint32_t block_len,
                            TokenStage stage)
{
    (void)stage;
    if (!cfg.clustering)
        return;
    const uint32_t head_dim = model.headDim();
    const Matrix &keys = cache.layer(layer).keys;
    for (uint32_t kv_head = 0; kv_head < model.nKvHeads; ++kv_head) {
        HCTable &tab = tables[layer * model.nKvHeads + kv_head];
        const uint32_t off = kv_head * head_dim;
        for (uint32_t t = 0; t < block_len; ++t) {
            const uint32_t token = block_start + t;
            const float *key = keys.row(token) + off;
            encoder.encode(key, sigScratch.data());
            tab.insert(token, key, sigScratch.data());
        }
    }
}

LayerSelection
ResvPolicy::select(uint32_t layer, const Matrix &q, const KVCache &cache,
                   uint32_t past_len, TokenStage stage)
{
    ResvCounters &ctr = countersFor(stage);
    ++ctr.selectCalls;
    if (past_len == 0)
        return LayerSelection::full(model.nKvHeads);
    ctr.pastTokens += static_cast<uint64_t>(past_len) * model.nKvHeads;

    const uint32_t head_dim = model.headDim();
    const uint32_t group = model.groupSize();
    const float scale = 1.0f / std::sqrt((float)head_dim);
    const Matrix &keys = cache.layer(layer).keys;
    const uint32_t block = q.rows();
    LayerSelection sel;
    sel.kvHeads.resize(model.nKvHeads);
    std::vector<float> &raw = rawScratch;
    std::vector<uint32_t> &counts = countScratch;
    std::vector<uint64_t> &picks = pickScratch;

    for (uint32_t kv_head = 0; kv_head < model.nKvHeads; ++kv_head) {
        const HCTable &tab = tables[layer * model.nKvHeads + kv_head];
        HeadSelection &hsel = sel.kvHeads[kv_head];
        hsel.selectAll = false;

        // Candidates as rows, read in place: the head's cluster
        // centroids (contiguous in the HC table), or, for Fig. 19
        // "w/o clustering", every past key at the cache stride as a
        // cluster of one.
        const float *cand = nullptr;
        size_t cand_stride = head_dim;
        uint32_t n_cand = 0;
        if (cfg.clustering) {
            n_cand = tab.clusterCount();
            cand = tab.centroids();
            counts.resize(n_cand);
            for (uint32_t c = 0; c < n_cand; ++c)
                counts[c] = tab.clusterSize(c);
        } else {
            n_cand = past_len;
            cand = keys.raw() + kv_head * head_dim;
            cand_stride = keys.cols();
            counts.assign(past_len, 1);
        }
        if (n_cand == 0)
            continue;

        // Score: max over the head group's queries and the block's
        // query tokens (each query token needs its own entries; max
        // pooling unions their demands). One fused score-max per query
        // head — rows are the block's queries, columns the candidates
        // — so every score is one canonical dot, scaled, and each
        // candidate is pooled over (g, t) in that order with no score
        // matrix in between.
        raw.assign(n_cand, -std::numeric_limits<float>::infinity());
        for (uint32_t g = 0; g < group; ++g) {
            const uint32_t q_off = (kv_head * group + g) * head_dim;
            gemmRowsMax(q.raw() + q_off, q.cols(), block, cand,
                        cand_stride, n_cand, head_dim, scale, raw.data());
        }
        ctr.predictionMacs += static_cast<uint64_t>(n_cand) *
            head_dim * group * block;
        ctr.clustersScanned += n_cand;

        expNormalize(raw, scoreScratch);
        const WicsumResult picked = wicsumSelectEarlyExit(
            scoreScratch, counts, cfg.thrWics, cfg.nBuckets);
        ctr.wicsumScanned += picked.scanned;
        ctr.clustersSelected += picked.selected.size();

        // Mark the selected past tokens in a bitmap, then emit them in
        // ascending order: the index list comes out sorted, no sort.
        picks.assign(bitWords(past_len), 0ull);
        auto mark = [&](uint32_t token) {
            if (token < past_len)
                picks[token >> 6] |= 1ull << (token & 63u);
        };
        for (uint32_t c : picked.selected) {
            if (cfg.clustering) {
                for (uint32_t token : tab.tokens(c))
                    mark(token);
            } else {
                mark(c);
            }
        }
        size_t n_picked = 0;
        for (uint64_t bits : picks)
            n_picked += static_cast<size_t>(std::popcount(bits));
        hsel.indices.reserve(n_picked);
        for (size_t w = 0; w < picks.size(); ++w) {
            for (uint64_t bits = picks[w]; bits != 0; bits &= bits - 1)
                hsel.indices.push_back(static_cast<uint32_t>(
                    w * 64 + static_cast<uint32_t>(std::countr_zero(bits))));
        }
        ctr.tokensSelected += hsel.indices.size();
    }
    return sel;
}

void
ResvPolicy::reset()
{
    for (auto &tab : tables)
        tab.clear();
    frameCtr = ResvCounters{};
    textCtr = ResvCounters{};
}

uint64_t
ResvPolicy::tableMemoryBytes() const
{
    uint64_t bytes = 0;
    for (const auto &tab : tables)
        bytes += tab.memoryBytes();
    return bytes;
}

double
ResvPolicy::avgClusterSize() const
{
    uint64_t tokens = 0, clusters = 0;
    for (const auto &tab : tables) {
        tokens += tab.tokenCount();
        clusters += tab.clusterCount();
    }
    return clusters ? static_cast<double>(tokens) / clusters : 0.0;
}

uint64_t
ResvPolicy::totalHammingComparisons() const
{
    uint64_t n = 0;
    for (const auto &tab : tables)
        n += tab.hammingComparisons();
    return n;
}

namespace
{

void
serializeResvCounters(serial::ByteWriter &w, const ResvCounters &c)
{
    w.put<uint64_t>(c.predictionMacs);
    w.put<uint64_t>(c.clustersScanned);
    w.put<uint64_t>(c.clustersSelected);
    w.put<uint64_t>(c.tokensSelected);
    w.put<uint64_t>(c.pastTokens);
    w.put<uint64_t>(c.wicsumScanned);
    w.put<uint64_t>(c.selectCalls);
}

void
restoreResvCounters(serial::ByteReader &r, ResvCounters &c)
{
    c.predictionMacs = r.get<uint64_t>();
    c.clustersScanned = r.get<uint64_t>();
    c.clustersSelected = r.get<uint64_t>();
    c.tokensSelected = r.get<uint64_t>();
    c.pastTokens = r.get<uint64_t>();
    c.wicsumScanned = r.get<uint64_t>();
    c.selectCalls = r.get<uint64_t>();
}

} // namespace

void
ResvPolicy::serializeState(serial::ByteWriter &w) const
{
    w.put<uint64_t>(tables.size());
    for (const auto &tab : tables)
        tab.serialize(w);
    serializeResvCounters(w, frameCtr);
    serializeResvCounters(w, textCtr);
}

void
ResvPolicy::restoreState(serial::ByteReader &r)
{
    const uint64_t n = r.get<uint64_t>();
    if (n != tables.size())
        throw serial::SerialError(
            "ResvPolicy::restoreState: table count mismatch");
    for (auto &tab : tables)
        tab.restore(r);
    restoreResvCounters(r, frameCtr);
    restoreResvCounters(r, textCtr);
}

} // namespace vrex
