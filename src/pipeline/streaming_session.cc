#include "pipeline/streaming_session.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logging.hh"

namespace vrex
{

SessionWeights::SessionWeights(const ModelConfig &config, uint64_t seed)
    : backbone(config, seed),
      tower(VideoConfig{}.latentDim, std::max(32u, config.dModel / 4),
            seed),
      projector(tower.visionDim(), config.dModel, seed)
{
}

StreamingSession::StreamingSession(
    std::shared_ptr<const SessionWeights> session_weights,
    SelectionPolicy *policy)
    : weights(std::move(session_weights)),
      // Aliasing pointer: the model shares the whole set's lifetime.
      llm(std::shared_ptr<const ModelWeights>(weights,
                                              &weights->backbone))
{
    llm.setPolicy(policy);
}

StreamingSession::StreamingSession(const ModelConfig &model_config,
                                   SelectionPolicy *policy,
                                   uint64_t seed_value)
    : StreamingSession(
          std::make_shared<const SessionWeights>(model_config, seed_value),
          policy)
{
}

void
StreamingSession::begin(const std::string &name,
                        const VideoConfig &video, uint64_t script_seed,
                        std::vector<uint32_t> forced_tokens)
{
    if (video.latentDim != weights->tower.latentDim())
        throw std::invalid_argument("StreamingSession::begin: video "
                                    "latentDim is not the vision "
                                    "tower's input width");
    llm.resetSession();
    gen.emplace(video, weights->backbone.seed ^ script_seed, name);

    streamName = name;
    scriptSeed = script_seed;
    forced = std::move(forced_tokens);
    forcedPos = 0;
    frameId = 0;
    questionNo = 0;

    generatedTokens.clear();
    logitsPerStep.clear();
    ratioSums.clear();
    ratioBlocks = 0;
    framesFed = 0;
    frameSum = textSum = 0.0;
    frameN = textN = 0;
}

void
StreamingSession::accumulate(const BlockStats &stats)
{
    if (stats.pastLen == 0 || stats.blockLen == 0)
        return;
    const double ratio = stats.meanRatio();
    if (stats.stage == TokenStage::VideoFrame) {
        frameSum += ratio;
        ++frameN;
    } else {
        textSum += ratio;
        ++textN;
    }
    // Per-layer / per-head accumulation (all stages).
    if (ratioSums.empty()) {
        ratioSums.assign(stats.selectedPerHead.size(),
                         std::vector<double>(
                             stats.selectedPerHead.empty()
                                 ? 0
                                 : stats.selectedPerHead[0].size(),
                             0.0));
    }
    for (size_t l = 0; l < stats.selectedPerHead.size(); ++l)
        for (size_t h = 0; h < stats.selectedPerHead[l].size(); ++h)
            ratioSums[l][h] +=
                static_cast<double>(stats.selectedPerHead[l][h]) /
                stats.pastLen;
    ++ratioBlocks;
}

void
StreamingSession::feedFrame()
{
    VREX_ASSERT(gen.has_value(), "feedFrame before begin()");
    Matrix embeds = weights->projector.project(
        weights->tower.encode(gen->nextFrameLatents()));
    accumulate(llm.prefillFrame(embeds, frameId++));
    ++framesFed;
}

void
StreamingSession::feedQuestion(uint32_t tokens)
{
    VREX_ASSERT(gen.has_value(), "feedQuestion before begin()");
    auto ids = WorkloadGenerator::questionTokens(
        tokens, llm.config().vocabSize,
        weights->backbone.seed ^ scriptSeed ^ (0x9e37u + questionNo++));
    accumulate(llm.prefillText(ids));
}

void
StreamingSession::generate(uint32_t tokens)
{
    for (uint32_t i = 0; i < tokens; ++i)
        generateStep({this});
}

void
StreamingSession::generateStep(
    const std::vector<StreamingSession *> &sessions)
{
    std::vector<const Model *> models;
    for (const StreamingSession *s : sessions) {
        VREX_ASSERT(s->gen.has_value(), "generate before begin()");
        models.push_back(&s->llm);
    }
    const Matrix logits = Model::logits(models);
    const uint32_t vocab = logits.cols();
    const uint32_t d = models[0]->config().dModel;

    // Argmax of the current state, then advance with the forced
    // token when provided.
    Matrix x(static_cast<uint32_t>(sessions.size()), d);
    std::vector<Model::Member> members;
    for (uint32_t i = 0; i < sessions.size(); ++i) {
        StreamingSession &s = *sessions[i];
        const float *row = logits.row(i);
        const uint32_t best = static_cast<uint32_t>(
            std::max_element(row, row + vocab) - row);
        s.generatedTokens.push_back(best);
        s.logitsPerStep.emplace_back(row, row + vocab);
        const uint32_t next =
            s.forcedPos < s.forced.size() ? s.forced[s.forcedPos++] : best;
        std::copy_n(s.llm.embedTokens({next}).row(0), d, x.row(i));
        members.push_back({&s.llm, 1, -1, TokenStage::GeneratedText});
    }

    const std::vector<BlockStats> stats =
        Model::forward(members, std::move(x));
    for (uint32_t i = 0; i < sessions.size(); ++i)
        sessions[i]->accumulate(stats[i]);
}

void
StreamingSession::apply(const SessionEvent &event)
{
    switch (event.type) {
      case SessionEvent::Type::Frame:
        feedFrame();
        break;
      case SessionEvent::Type::Question:
        feedQuestion(event.tokens);
        break;
      case SessionEvent::Type::Generate:
        generate(event.tokens);
        break;
    }
}

std::vector<SessionEvent>
StreamingSession::unitEvents(const SessionEvent &event)
{
    if (event.type != SessionEvent::Type::Generate)
        return {event};
    return std::vector<SessionEvent>(
        event.tokens, SessionEvent{SessionEvent::Type::Generate, 1});
}

SessionRunResult
StreamingSession::snapshot() const
{
    SessionRunResult out;
    out.generated = generatedTokens;
    out.stepLogits = logitsPerStep;
    out.frames = framesFed;
    out.frameRatio = frameN ? frameSum / frameN : 1.0;
    out.textRatio = textN ? textSum / textN : 1.0;
    if (ratioBlocks > 0) {
        out.layerHeadRatio = ratioSums;
        for (auto &layer : out.layerHeadRatio)
            for (auto &v : layer)
                v /= ratioBlocks;
    }
    out.totalTokens = llm.cache().tokenCount();
    return out;
}

SessionRunResult
StreamingSession::run(const SessionScript &script)
{
    return run(script, {});
}

SessionRunResult
StreamingSession::run(const SessionScript &script,
                      const std::vector<uint32_t> &forced_tokens)
{
    begin(script.name, script.video, script.seed, forced_tokens);
    for (const auto &event : script.events)
        apply(event);
    return snapshot();
}

std::vector<uint8_t>
StreamingSession::serialize() const
{
    serial::ByteWriter w(kBlobVersion);

    // Identity block: validated (not applied) by restore().
    w.put<uint64_t>(weights->backbone.seed);
    const ModelConfig &cfg = llm.config();
    w.putString(cfg.name);
    w.put<uint32_t>(cfg.nLayers);
    w.put<uint32_t>(cfg.dModel);
    w.put<uint32_t>(cfg.nHeads);
    w.put<uint32_t>(cfg.nKvHeads);
    w.put<uint32_t>(cfg.ffnDim);
    w.put<uint32_t>(cfg.vocabSize);
    w.put<float>(cfg.ropeTheta);
    w.putBool(llm.policy() != nullptr);

    // Stream block (absent before begin()).
    w.putBool(gen.has_value());
    if (gen) {
        const VideoConfig &video = gen->config();
        w.putString(streamName);
        w.put<uint32_t>(video.tokensPerFrame);
        w.put<uint32_t>(video.latentDim);
        w.put<double>(video.driftRate);
        w.put<double>(video.sceneCutProb);
        w.put<double>(video.tokenNoise);
        w.put<double>(video.tokenIdentity);
        w.put<uint64_t>(scriptSeed);
        gen->serialize(w);
    }

    // Executor position.
    w.putVec(forced);
    w.put<uint32_t>(forcedPos);
    w.put<int32_t>(frameId);
    w.put<uint32_t>(questionNo);

    // Model mutable state (KV cache, last hidden).
    llm.serializeState(w);

    // Retrieval-policy state (the full decorator stack forwards).
    if (llm.policy())
        llm.policy()->serializeState(w);

    // Snapshot accumulators.
    w.putVec(generatedTokens);
    w.put<uint64_t>(logitsPerStep.size());
    for (const auto &step : logitsPerStep)
        w.putVec(step);
    w.put<uint64_t>(ratioSums.size());
    for (const auto &layer : ratioSums)
        w.putVec(layer);
    w.put<uint32_t>(ratioBlocks);
    w.put<uint32_t>(framesFed);
    w.put<double>(frameSum);
    w.put<double>(textSum);
    w.put<uint32_t>(frameN);
    w.put<uint32_t>(textN);

    return w.finish();
}

void
StreamingSession::restore(const std::vector<uint8_t> &blob)
{
    serial::ByteReader r(blob, kBlobVersion);

    // Identity block.
    const uint64_t seed = weights->backbone.seed;
    const uint64_t blob_seed = r.get<uint64_t>();
    if (blob_seed != seed)
        throw serial::SerialError(
            "StreamingSession::restore: seed mismatch (blob " +
            std::to_string(blob_seed) + ", session " +
            std::to_string(seed) + ")");
    const ModelConfig &cfg = llm.config();
    const std::string blob_model = r.getString();
    const bool geom_ok = blob_model == cfg.name &&
        r.get<uint32_t>() == cfg.nLayers &&
        r.get<uint32_t>() == cfg.dModel &&
        r.get<uint32_t>() == cfg.nHeads &&
        r.get<uint32_t>() == cfg.nKvHeads &&
        r.get<uint32_t>() == cfg.ffnDim &&
        r.get<uint32_t>() == cfg.vocabSize &&
        r.get<float>() == cfg.ropeTheta;
    if (!geom_ok)
        throw serial::SerialError(
            "StreamingSession::restore: model geometry mismatch "
            "(blob was serialized from model '" + blob_model + "')");
    const bool blob_has_policy = r.getBool();
    if (blob_has_policy != (llm.policy() != nullptr))
        throw serial::SerialError(
            "StreamingSession::restore: policy presence mismatch "
            "(blob and session must carry the same policy spec)");

    // Stream block: start the generator exactly as begin() does,
    // then overlay the serialized generator position.
    if (r.getBool()) {
        streamName = r.getString();
        VideoConfig video;
        video.tokensPerFrame = r.get<uint32_t>();
        video.latentDim = r.get<uint32_t>();
        video.driftRate = r.get<double>();
        video.sceneCutProb = r.get<double>();
        video.tokenNoise = r.get<double>();
        video.tokenIdentity = r.get<double>();
        scriptSeed = r.get<uint64_t>();
        if (video.latentDim != weights->tower.latentDim())
            throw serial::SerialError("StreamingSession::restore: stream "
                                      "latentDim is not the vision "
                                      "tower's input width");
        // The blob holds the generator's tokensPerFrame x latentDim
        // offsets: refuse a larger shape before the generator
        // allocates it.
        if (uint64_t(video.tokensPerFrame) * video.latentDim *
                sizeof(float) > r.remaining())
            throw serial::SerialError("StreamingSession::restore: "
                                      "truncated blob (stream shape)");
        gen.emplace(video, seed ^ scriptSeed, streamName);
        gen->restore(r);
    } else {
        gen.reset();
        streamName.clear();
        scriptSeed = 0;
    }

    // Executor position.
    forced = r.getVec<uint32_t>();
    forcedPos = r.get<uint32_t>();
    frameId = r.get<int32_t>();
    questionNo = r.get<uint32_t>();

    // Model mutable state.
    llm.restoreState(r);

    // Policy state.
    if (llm.policy())
        llm.policy()->restoreState(r);

    // Snapshot accumulators.
    generatedTokens = r.getVec<uint32_t>();
    const uint64_t n_steps = r.get<uint64_t>();
    logitsPerStep.clear();
    for (uint64_t i = 0; i < n_steps; ++i)
        logitsPerStep.push_back(r.getVec<float>());
    const uint64_t n_layers = r.get<uint64_t>();
    ratioSums.clear();
    for (uint64_t i = 0; i < n_layers; ++i)
        ratioSums.push_back(r.getVec<double>());
    ratioBlocks = r.get<uint32_t>();
    framesFed = r.get<uint32_t>();
    frameSum = r.get<double>();
    textSum = r.get<double>();
    frameN = r.get<uint32_t>();
    textN = r.get<uint32_t>();

    r.expectEnd();
}

} // namespace vrex
