#include "llm/kv_cache.hh"

namespace vrex
{

KVCache::KVCache(const ModelConfig &config)
    : cfg(config), layers(config.nLayers)
{
    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    for (auto &l : layers) {
        l.keys = Matrix(0, kv_dim);
        l.values = Matrix(0, kv_dim);
    }
}

void
KVCache::beginTokens(uint32_t count, int32_t frame_id, TokenStage stage)
{
    VREX_ASSERT(pendingTokens == 0 ||
                layers[cfg.nLayers - 1].keys.rows() == meta.size(),
                "beginTokens before previous block finished all layers");
    uint32_t base = static_cast<uint32_t>(meta.size());
    for (uint32_t i = 0; i < count; ++i)
        meta.push_back({frame_id, stage, base + i});
    pendingTokens = count;
    if (frame_id >= 0 && static_cast<uint32_t>(frame_id) >= numFrames)
        numFrames = static_cast<uint32_t>(frame_id) + 1;
}

void
KVCache::appendLayer(uint32_t layer, const Matrix &k, const Matrix &v)
{
    VREX_ASSERT(layer < cfg.nLayers, "layer out of range");
    VREX_ASSERT(k.rows() == pendingTokens && v.rows() == pendingTokens,
                "KV block size does not match beginTokens");
    LayerKV &l = layers[layer];
    for (uint32_t r = 0; r < k.rows(); ++r) {
        l.keys.appendRow(k.row(r));
        l.values.appendRow(v.row(r));
    }
}

std::pair<uint32_t, uint32_t>
KVCache::frameTokenRange(int32_t frame_id) const
{
    uint32_t first = 0, last = 0;
    bool found = false;
    for (uint32_t t = 0; t < meta.size(); ++t) {
        if (meta[t].frameId == frame_id) {
            if (!found) {
                first = t;
                found = true;
            }
            last = t + 1;
        }
    }
    if (!found)
        return {0, 0};
    return {first, last};
}

uint64_t
KVCache::totalBytes(double bytesPerElem) const
{
    return static_cast<uint64_t>(meta.size()) *
        cfg.kvBytesPerToken(bytesPerElem);
}

void
KVCache::clear()
{
    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    for (auto &l : layers) {
        l.keys = Matrix(0, kv_dim);
        l.values = Matrix(0, kv_dim);
    }
    meta.clear();
    pendingTokens = 0;
    numFrames = 0;
}

void
KVCache::serialize(serial::ByteWriter &w) const
{
    w.put<uint32_t>(static_cast<uint32_t>(layers.size()));
    for (const auto &l : layers) {
        serializeMatrix(w, l.keys);
        serializeMatrix(w, l.values);
    }
    // TokenMeta is written field-by-field: memcpy'ing the struct
    // would embed uninitialized padding bytes, breaking the
    // re-serialize == original-blob byte-equality contract.
    w.put<uint64_t>(meta.size());
    for (const auto &m : meta) {
        w.put<int32_t>(m.frameId);
        w.put<uint8_t>(static_cast<uint8_t>(m.stage));
        w.put<uint32_t>(m.position);
    }
    w.put<uint32_t>(pendingTokens);
    w.put<uint32_t>(numFrames);
}

void
KVCache::restore(serial::ByteReader &r)
{
    const uint32_t n_layers = r.get<uint32_t>();
    if (n_layers != layers.size())
        throw serial::SerialError(
            "KVCache::restore: blob has " + std::to_string(n_layers) +
            " layers, cache is configured for " +
            std::to_string(layers.size()));
    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    for (auto &l : layers) {
        l.keys = restoreMatrix(r);
        l.values = restoreMatrix(r);
        if (l.keys.cols() != kv_dim || l.values.cols() != kv_dim)
            throw serial::SerialError(
                "KVCache::restore: K/V width is not nKvHeads * headDim");
    }
    const uint64_t n_meta = r.get<uint64_t>();
    // Each meta record is 9 payload bytes; reject a corrupted count
    // before reserving.
    if (n_meta > r.remaining() / 9)
        throw serial::SerialError(
            "KVCache::restore: truncated blob (meta count)");
    // Attention reads one K/V row per token of every layer.
    for (const auto &l : layers)
        if (l.keys.rows() != n_meta || l.values.rows() != n_meta)
            throw serial::SerialError(
                "KVCache::restore: K/V rows differ from the token count");
    meta.clear();
    meta.reserve(static_cast<size_t>(n_meta));
    for (uint64_t i = 0; i < n_meta; ++i) {
        TokenMeta m;
        m.frameId = r.get<int32_t>();
        const uint8_t stage = r.get<uint8_t>();
        if (stage > static_cast<uint8_t>(TokenStage::GeneratedText))
            throw serial::SerialError("KVCache::restore: bad token stage");
        m.stage = static_cast<TokenStage>(stage);
        m.position = r.get<uint32_t>();
        meta.push_back(m);
    }
    pendingTokens = r.get<uint32_t>();
    numFrames = r.get<uint32_t>();
}

} // namespace vrex
