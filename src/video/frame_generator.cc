#include "video/frame_generator.hh"

namespace vrex
{

FrameGenerator::FrameGenerator(const VideoConfig &config, uint64_t seed,
                               const std::string &stream_name)
    : cfg(config), rng(seed, stream_name)
{
    startScene();
}

void
FrameGenerator::startScene()
{
    sceneLatent.assign(cfg.latentDim, 0.0f);
    for (auto &v : sceneLatent)
        v = static_cast<float>(rng.gaussian());
    tokenOffsets.assign(cfg.tokensPerFrame,
                        std::vector<float>(cfg.latentDim, 0.0f));
    for (auto &offset : tokenOffsets)
        for (auto &v : offset)
            v = static_cast<float>(rng.gaussian(0.0,
                                                cfg.tokenIdentity));
    ++scenes;
}

Matrix
FrameGenerator::nextFrameLatents()
{
    if (frameCount > 0 && rng.bernoulli(cfg.sceneCutProb))
        startScene();

    // Drift the scene latent.
    for (auto &v : sceneLatent)
        v += static_cast<float>(rng.gaussian(0.0, cfg.driftRate));

    Matrix latents(cfg.tokensPerFrame, cfg.latentDim);
    for (uint32_t t = 0; t < cfg.tokensPerFrame; ++t) {
        float *row = latents.row(t);
        for (uint32_t d = 0; d < cfg.latentDim; ++d) {
            row[d] = sceneLatent[d] + tokenOffsets[t][d] +
                static_cast<float>(rng.gaussian(0.0, cfg.tokenNoise));
        }
    }
    ++frameCount;
    return latents;
}

void
FrameGenerator::serialize(serial::ByteWriter &w) const
{
    const RngState st = rng.state();
    for (int i = 0; i < 4; ++i)
        w.put<uint64_t>(st.s[i]);
    w.put<double>(st.spare);
    w.putBool(st.hasSpare);
    w.putVec(sceneLatent);
    w.put<uint64_t>(tokenOffsets.size());
    for (const auto &offset : tokenOffsets)
        w.putVec(offset);
    w.put<uint32_t>(frameCount);
    w.put<uint32_t>(scenes);
}

void
FrameGenerator::restore(serial::ByteReader &r)
{
    RngState st;
    for (int i = 0; i < 4; ++i)
        st.s[i] = r.get<uint64_t>();
    st.spare = r.get<double>();
    st.hasSpare = r.getBool();
    rng.setState(st);
    // nextFrameLatents() indexes latentDim columns of the scene and
    // of tokensPerFrame offset rows: refuse any other shape.
    const auto bad_shape = [] {
        return serial::SerialError("FrameGenerator::restore: scene "
                                   "state is not tokensPerFrame x "
                                   "latentDim");
    };
    sceneLatent = r.getVec<float>();
    const uint64_t n = r.get<uint64_t>();
    if (sceneLatent.size() != cfg.latentDim || n != cfg.tokensPerFrame)
        throw bad_shape();
    tokenOffsets.clear();
    tokenOffsets.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        tokenOffsets.push_back(r.getVec<float>());
        if (tokenOffsets.back().size() != cfg.latentDim)
            throw bad_shape();
    }
    frameCount = r.get<uint32_t>();
    scenes = r.get<uint32_t>();
}

} // namespace vrex
