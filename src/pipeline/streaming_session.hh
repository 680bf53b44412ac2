/**
 * @file
 * Functional end-to-end streaming video LLM session: video latents ->
 * vision tower -> projector -> iterative prefill -> question prefill
 * -> generation, under any retrieval policy. Collects the selection
 * ratios that Table II and Fig. 20 report.
 *
 * The session is an *incremental* executor: begin() opens a stream,
 * the feedFrame()/feedQuestion()/generate() verbs advance it event by
 * event, and snapshot() aggregates the results so far. The one-shot
 * run() entry points are implemented on top of the verbs, so a run
 * driven incrementally (e.g. by vrex::serve::Engine) is byte-identical
 * to a scripted run. One StreamingSession executes one session at a
 * time and is not thread-safe; concurrency across sessions is the
 * serve layer's job.
 */

#ifndef VREX_PIPELINE_STREAMING_SESSION_HH
#define VREX_PIPELINE_STREAMING_SESSION_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "llm/model.hh"
#include "video/vision_tower.hh"
#include "video/workload.hh"

namespace vrex
{

/** Aggregated results of one scripted session. */
struct SessionRunResult
{
    std::vector<uint32_t> generated;
    /** Full logits at every generation step (fidelity scoring). */
    std::vector<std::vector<float>> stepLogits;
    /** Mean selected-token ratio during frame processing. */
    double frameRatio = 1.0;
    /** Mean selected-token ratio during question/generation. */
    double textRatio = 1.0;
    /** Mean ratio per [layer][kvHead] (blocks with a past only). */
    std::vector<std::vector<double>> layerHeadRatio;
    uint32_t totalTokens = 0;
    uint32_t frames = 0;
};

/**
 * Everything a session only reads, built once from (model config,
 * seed): the decoder backbone and the vision stack. Immutable, so any
 * number of sessions of one seed run a single copy.
 */
struct SessionWeights
{
    SessionWeights(const ModelConfig &config, uint64_t seed);

    /** Bytes of every weight array held (backbone + vision stack). */
    uint64_t
    bytes() const
    {
        return backbone.bytes() + tower.bytes() + projector.bytes();
    }

    ModelWeights backbone;
    /** Input width VideoConfig{}.latentDim; vision width
     *  max(32, dModel / 4). */
    VisionTower tower;
    MlpProjector projector;
};

/** Drives a Model + vision stack through a SessionScript. */
class StreamingSession
{
  public:
    /**
     * @param session_weights Shared read-only; their seed is the
     *        session's master seed (weights + video + questions).
     * @param policy Retrieval policy; nullptr = full attention.
     */
    StreamingSession(std::shared_ptr<const SessionWeights> session_weights,
                     SelectionPolicy *policy);

    /** A session over a private copy of the (model_config, seed)
     *  weights. */
    StreamingSession(const ModelConfig &model_config,
                     SelectionPolicy *policy, uint64_t seed);

    /**
     * Open a fresh stream: reset the model and the policy, start a
     * frame generator for @p video, and clear all accumulators. Must
     * be called before the incremental verbs.
     *
     * @param name          Stream name (FrameGenerator substream).
     * @param video         Video statistics of the stream; its
     *                      latentDim must equal the vision tower's
     *                      input width (else std::invalid_argument).
     * @param script_seed   Per-script seed (mixed into video and
     *                      question randomness, as SessionScript::seed).
     * @param forced_tokens When non-empty, generation steps consume
     *                      these instead of the model's own argmax
     *                      (teacher forcing), across generate() calls.
     */
    void begin(const std::string &name, const VideoConfig &video,
               uint64_t script_seed,
               std::vector<uint32_t> forced_tokens = {});

    /** Stream one video frame through vision -> projector -> prefill. */
    void feedFrame();

    /** Prefill one question of @p tokens synthetic text tokens. */
    void feedQuestion(uint32_t tokens);

    /** Run @p tokens greedy generation steps (teacher-forced when
     *  begin() received forced tokens): generateStep({this}) each. */
    void generate(uint32_t tokens);

    /**
     * Run ONE generation step for each of N distinct, begun sessions
     * of one geometry: one logits pass and one ragged forward
     * (Model::forward) with a one-row member per session. Argmax,
     * token/logits recording, teacher forcing and accumulators
     * advance per session, in session order.
     *
     * Contract: each session's state and results after this call are
     * byte-identical to that session running generate(1) alone — the
     * fused arithmetic is row-independent, so members cannot affect
     * each other's bytes. The serve layer's batched dispatch runs
     * its fused steps through here.
     */
    static void
    generateStep(const std::vector<StreamingSession *> &sessions);

    /** Apply one scripted event via the verbs above. */
    void apply(const SessionEvent &event);

    /**
     * Split a scripted event into *unit work items* — the grain the
     * serve-layer scheduler interleaves across sessions:
     * Generate{n} becomes n Generate{1} steps (each generation step
     * only reads state the previous step committed, and teacher
     * forcing advances one forced token per step, so applying the
     * units in order is byte-identical to applying the original
     * event); Frame and Question are already unit-granular and pass
     * through; Generate{0} expands to nothing.
     */
    static std::vector<SessionEvent>
    unitEvents(const SessionEvent &event);

    /** Aggregate everything since begin() (the stream stays open). */
    SessionRunResult snapshot() const;

    /** Run a scripted session from an empty cache. */
    SessionRunResult run(const SessionScript &script);

    /**
     * Run with teacher forcing: generation steps consume
     * @p forced_tokens instead of the model's own argmax; the i-th
     * argmax is recorded in the result for agreement scoring.
     */
    SessionRunResult run(const SessionScript &script,
                         const std::vector<uint32_t> &forced_tokens);

    Model &model() { return llm; }
    const Model &model() const { return llm; }

    /** Version of the serialize() blob layout. */
    static constexpr uint32_t kBlobVersion = 2;

    /**
     * Serialize the complete session state into a versioned,
     * checksummed blob: stream position (video RNG, scene state),
     * KV cache + token metadata, executor position (forced tokens,
     * frame/question counters), retrieval-policy state, and the
     * snapshot accumulators.
     *
     * Weights are not serialized — they are deterministic from the
     * pair (model config, seed) they were built from, which restore()
     * validates. The installed policy's *state* is included (via
     * SelectionPolicy::serializeState); the policy object itself is
     * identity the owner must recreate before restoring.
     *
     * Contract: restoring onto a freshly constructed equivalent
     * session yields a bit-identical continuation — every subsequent
     * verb and snapshot() matches a session that never serialized.
     * Re-serializing a restored session reproduces the original blob
     * byte for byte.
     */
    std::vector<uint8_t> serialize() const;

    /**
     * Counterpart of serialize(). Must be called on a session
     * running weights of the same (model config, seed) under the
     * same policy spec; begin() is not required first. Rebuilds
     * the frame generator, never the weights. Throws
     * serial::SerialError on corrupted/truncated blobs, version
     * mismatch, identity mismatch (seed, model geometry, policy
     * presence, the tower's latentDim) or state shapes it would
     * index out of bounds.
     */
    void restore(const std::vector<uint8_t> &blob);

    /** Current KV working-set bytes (the hibernation currency). */
    uint64_t
    kvBytes(double bytes_per_elem = 2.0) const
    {
        return llm.cache().totalBytes(bytes_per_elem);
    }

  private:
    void accumulate(const BlockStats &stats);

    std::shared_ptr<const SessionWeights> weights;
    Model llm;
    /** The stream's frame source; empty until begin(). */
    std::optional<FrameGenerator> gen;

    // Incremental run state (reset by begin()).
    std::string streamName;   //!< Stream identity, for serialize().
    uint64_t scriptSeed = 0;
    std::vector<uint32_t> forced;
    uint32_t forcedPos = 0;
    int32_t frameId = 0;
    uint32_t questionNo = 0;

    // Accumulators feeding snapshot().
    std::vector<uint32_t> generatedTokens;
    std::vector<std::vector<float>> logitsPerStep;
    std::vector<std::vector<double>> ratioSums;
    uint32_t ratioBlocks = 0;
    uint32_t framesFed = 0;
    double frameSum = 0.0, textSum = 0.0;
    uint32_t frameN = 0, textN = 0;
};

} // namespace vrex

#endif // VREX_PIPELINE_STREAMING_SESSION_HH
