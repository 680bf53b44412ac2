/**
 * @file
 * Synthetic streaming-video latent generator.
 *
 * Substitute for real COIN video frames: each scene has a base latent
 * that drifts slowly frame to frame; scene cuts re-randomize it. Each
 * spatial token has a persistent identity offset within a scene plus
 * small per-frame noise. This reproduces the property ReSV exploits —
 * high spatial-temporal similarity of key tokens across adjacent
 * frames (paper Fig. 7a) — with controllable strength.
 */

#ifndef VREX_VIDEO_FRAME_GENERATOR_HH
#define VREX_VIDEO_FRAME_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serial.hh"
#include "tensor/matrix.hh"

namespace vrex
{

/** Statistical knobs of the synthetic video stream. */
struct VideoConfig
{
    uint32_t tokensPerFrame = 16;
    /** Latent width of each token; must equal the vision tower's
     *  input width, which SessionWeights fixes at this default. */
    uint32_t latentDim = 32;
    /** Per-frame scene-latent drift stddev (higher = less similar). */
    double driftRate = 0.08;
    /** Probability a frame starts a new scene. */
    double sceneCutProb = 0.04;
    /** Per-token per-frame iid noise stddev. */
    double tokenNoise = 0.08;
    /** Stddev of persistent per-token identity offsets. */
    double tokenIdentity = 0.6;
};

/** Produces one frame of token latents at a time. */
class FrameGenerator
{
  public:
    FrameGenerator(const VideoConfig &config, uint64_t seed,
                   const std::string &stream_name = "video");

    /** Latents of the next frame: tokensPerFrame x latentDim. */
    Matrix nextFrameLatents();

    uint32_t framesGenerated() const { return frameCount; }
    uint32_t sceneCount() const { return scenes; }

    const VideoConfig &config() const { return cfg; }

    /**
     * Serialize the full stream position (RNG state, current scene
     * latent/offsets, counters). Restoring onto a generator built
     * with the same config + seed resumes the stream bit-exactly;
     * restore() throws serial::SerialError when the scene state is
     * not tokensPerFrame x latentDim.
     */
    void serialize(serial::ByteWriter &w) const;
    void restore(serial::ByteReader &r);

  private:
    void startScene();

    VideoConfig cfg;
    Rng rng;
    std::vector<float> sceneLatent;
    std::vector<std::vector<float>> tokenOffsets;
    uint32_t frameCount = 0;
    uint32_t scenes = 0;
};

} // namespace vrex

#endif // VREX_VIDEO_FRAME_GENERATOR_HH
