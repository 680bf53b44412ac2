/**
 * @file
 * Key/value cache for the iterative-prefill streaming workflow.
 *
 * The cache accumulates every K/V entry produced by prefill and
 * generation; retrieval policies decide which subset attention reads.
 * Each token also carries metadata (frame id, stage) that the
 * frame-granular baselines (ReKV) and the workload accounting need.
 */

#ifndef VREX_LLM_KV_CACHE_HH
#define VREX_LLM_KV_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/serial.hh"
#include "llm/config.hh"
#include "tensor/matrix.hh"

namespace vrex
{

/** Which pipeline stage produced a token. */
enum class TokenStage : uint8_t
{
    VideoFrame,
    QuestionText,
    GeneratedText,
};

/** Per-token metadata shared across layers. */
struct TokenMeta
{
    int32_t frameId;    //!< Frame index, or -1 for text tokens.
    TokenStage stage;
    uint32_t position;  //!< Absolute sequence position.
};

/** K and V storage for one layer: rows = tokens, cols = kvDim. */
struct LayerKV
{
    Matrix keys;
    Matrix values;
};

/** The full multi-layer KV cache. */
class KVCache
{
  public:
    explicit KVCache(const ModelConfig &config);

    const ModelConfig &config() const { return cfg; }

    /** Total tokens currently cached (same across layers). */
    uint32_t tokenCount() const
    {
        return static_cast<uint32_t>(meta.size());
    }

    /** Register metadata for @p count tokens about to be appended. */
    void beginTokens(uint32_t count, int32_t frame_id, TokenStage stage);

    /** Append one layer's K/V block (rows must match beginTokens). */
    void appendLayer(uint32_t layer, const Matrix &k, const Matrix &v);

    const LayerKV &layer(uint32_t l) const { return layers[l]; }
    LayerKV &layer(uint32_t l) { return layers[l]; }

    const TokenMeta &tokenMeta(uint32_t t) const { return meta[t]; }
    const std::vector<TokenMeta> &allMeta() const { return meta; }

    /** Number of distinct video frames represented in the cache. */
    uint32_t frameCount() const { return numFrames; }

    /** Token index range [first, last) of a frame, or {0,0}. */
    std::pair<uint32_t, uint32_t> frameTokenRange(int32_t frame_id) const;

    /** Total cache bytes at @p bytesPerElem precision. */
    uint64_t totalBytes(double bytesPerElem = 2.0) const;

    /** Drop all cached state. */
    void clear();

    /**
     * Serialize all layers, token metadata, and append-progress
     * counters. restore() expects this cache to be constructed with
     * an identical ModelConfig geometry: it refuses, with
     * serial::SerialError, a blob whose layer count, K/V width, K/V
     * row count (one row per cached token) or token stage differs.
     */
    void serialize(serial::ByteWriter &w) const;
    void restore(serial::ByteReader &r);

  private:
    ModelConfig cfg;
    std::vector<LayerKV> layers;
    std::vector<TokenMeta> meta;
    uint32_t pendingTokens = 0;
    uint32_t numFrames = 0;
};

} // namespace vrex

#endif // VREX_LLM_KV_CACHE_HH
