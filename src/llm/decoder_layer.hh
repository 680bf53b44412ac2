/**
 * @file
 * One llama-style decoder layer: RMSNorm -> GQA attention (with the
 * retrieval hook) -> residual -> RMSNorm -> SwiGLU FFN -> residual.
 */

#ifndef VREX_LLM_DECODER_LAYER_HH
#define VREX_LLM_DECODER_LAYER_HH

#include <vector>

#include "common/rng.hh"
#include "llm/attention.hh"
#include "llm/config.hh"
#include "llm/kv_cache.hh"
#include "llm/selection.hh"
#include "tensor/matrix.hh"

namespace vrex
{

/** Decoder layer with synthetic (deterministic random) weights. */
class DecoderLayer
{
  public:
    /** Build layer @p index with weights from a named RNG stream. */
    DecoderLayer(const ModelConfig &config, uint32_t index,
                 uint64_t seed);

    /**
     * One member of a ragged-batch layer forward: a session's own
     * block of T consecutive rows of x, run through the layer of the
     * session's weights against its own cache and policy.
     */
    struct Member
    {
        const DecoderLayer *layer = nullptr;
        KVCache *cache = nullptr;          //!< beginTokens() already called.
        SelectionPolicy *policy = nullptr; //!< nullptr = full attention.
        uint32_t basePos = 0;  //!< First row's position (= past length).
        uint32_t rows = 0;     //!< T >= 1.
        TokenStage stage = TokenStage::GeneratedText;
    };

    /**
     * Forward a ragged batch of blocks in place: the members own
     * consecutive row ranges of @p x, in order, and must share one
     * layer index and the geometry @p config.
     *
     * Per member this performs a solo block forward's operations in
     * its order: RoPE at basePos + t, the cache append,
     * onBlockAppended(), select() on exactly the member's T query
     * rows, and attention. The projections run through the
     * row-grouped matmul, where contiguous members running the same
     * layer object share one weight stream; every output element is
     * still one dot(), so no member's bytes depend on its batch
     * peers.
     *
     * @return The selection each member used (ratio accounting).
     */
    static std::vector<LayerSelection>
    forward(const ModelConfig &config, const std::vector<Member> &members,
            Matrix &x);

    uint32_t index() const { return layerIndex; }

  private:
    uint32_t layerIndex;

    // Weights stored as [out_features x in_features] for matmulT.
    Matrix wq, wk, wv, wo;
    Matrix w1, w2, w3;
    std::vector<float> attnNorm, ffnNorm;
};

} // namespace vrex

#endif // VREX_LLM_DECODER_LAYER_HH
