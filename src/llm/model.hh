/**
 * @file
 * The streaming video LLM backbone: a stack of decoder layers driven
 * in the paper's two stages — the *iterative prefill* stage (frames
 * and question tokens arrive block by block and accumulate KV) and
 * the *generation* stage (greedy decoding against the accumulated
 * cache).
 */

#ifndef VREX_LLM_MODEL_HH
#define VREX_LLM_MODEL_HH

#include <memory>
#include <vector>

#include "llm/decoder_layer.hh"
#include "llm/kv_cache.hh"
#include "llm/selection.hh"
#include "tensor/matrix.hh"

namespace vrex
{

/** Selection accounting for one forwarded block. */
struct BlockStats
{
    TokenStage stage;
    uint32_t blockLen = 0;
    uint32_t pastLen = 0;
    /** Mean selected-token ratio per layer. */
    std::vector<double> layerRatios;
    /** Selected token count per [layer][kvHead]. */
    std::vector<std::vector<uint32_t>> selectedPerHead;

    double meanRatio() const;
};

/**
 * The immutable half of the backbone: synthetic deterministic weights
 * built once from (config, seed). Models hold it through a
 * shared_ptr<const ModelWeights>, so any number of sessions can run
 * one copy.
 */
struct ModelWeights
{
    ModelWeights(const ModelConfig &config, uint64_t seed);

    /** Bytes of every weight array held (fp32 parameters). */
    uint64_t bytes() const { return config.paramCount() * sizeof(float); }

    ModelConfig config;
    uint64_t seed;
    std::vector<DecoderLayer> layers;
    Matrix embedding;             //!< vocab x dModel (tied output).
    std::vector<float> finalNorm;
};

/** The decoder-only backbone: shared weights plus one stream's state. */
class Model
{
  public:
    explicit Model(std::shared_ptr<const ModelWeights> weights);

    /** A model over a private copy of the (config, seed) weights. */
    Model(const ModelConfig &config, uint64_t seed = 42);

    const ModelConfig &config() const { return w->config; }
    const ModelWeights &weights() const { return *w; }
    KVCache &cache() { return kv; }
    const KVCache &cache() const { return kv; }

    /** Install the retrieval policy (not owned); nullptr = full. */
    void setPolicy(SelectionPolicy *policy) { selPolicy = policy; }

    /** Embed token ids into model space. */
    Matrix embedTokens(const std::vector<uint32_t> &ids) const;

    /** One member of a ragged-batch forward(): the next @p rows rows
     *  of x form one block of @p model's stream. */
    struct Member
    {
        Model *model = nullptr;
        uint32_t rows = 0;
        int32_t frameId = -1;
        TokenStage stage = TokenStage::GeneratedText;
    };

    /**
     * Run a ragged batch of blocks through all layers (iterative
     * prefill steps or generation steps): the members own consecutive
     * row ranges of @p x, in order, and share one geometry. Each
     * member's rows become KV entries of its own cache under its own
     * policy, and its last row sets its lastHidden(). Per member the
     * bytes equal a forward of that member alone (see
     * DecoderLayer::forward()).
     *
     * A zero-row member appends no tokens, makes no policy call and
     * keeps its lastHidden(); its BlockStats has no layer entries.
     *
     * @return Selection accounting, one BlockStats per member.
     */
    static std::vector<BlockStats> forward(const std::vector<Member> &members,
                                           Matrix x);

    /** forward() of one member: this model's block @p x. */
    BlockStats forwardBlock(Matrix x, int32_t frame_id, TokenStage stage);

    /** Prefill one video frame's projected embeddings. */
    BlockStats prefillFrame(const Matrix &frame_embeds, int32_t frame_id);

    /** Prefill question text tokens. */
    BlockStats prefillText(const std::vector<uint32_t> &ids);

    /** Hidden state of the most recent token (post final norm). */
    const std::vector<float> &lastHidden() const { return lastHid; }

    /** Logits of every model's most recent token (tied embedding),
     *  one row per model. Contiguous models sharing one weight set
     *  share one embedding stream; each element is one dot(). */
    static Matrix logits(const std::vector<const Model *> &models);

    /** logits() of this model alone. */
    std::vector<float> lastLogits() const;

    /** Reset the cache, the policy state, and the hidden state. */
    void resetSession();

    /** The installed retrieval policy (nullptr = full attention). */
    SelectionPolicy *policy() const { return selPolicy; }

    /**
     * Serialize the mutable model state: KV cache and last hidden
     * state. Weights are NOT serialized — they are deterministic
     * from (config, seed) and the restoring model must run weights
     * built from the same pair. Policy state is
     * serialized separately by the owner (the policy object lives
     * outside the model).
     */
    void serializeState(serial::ByteWriter &w) const;
    void restoreState(serial::ByteReader &r);

  private:
    std::shared_ptr<const ModelWeights> w;
    KVCache kv;
    SelectionPolicy *selPolicy = nullptr;
    std::vector<float> lastHid;
};

} // namespace vrex

#endif // VREX_LLM_MODEL_HH
