/**
 * @file
 * Vision tower + MLP projector substitute.
 *
 * Stands in for SigLIP-ViT-L-384: maps frame token latents to vision
 * features (VisionTower) and adapts them to the LLM embedding space
 * (MlpProjector), matching the three-module architecture of Fig. 3.
 * The compute/memory cost of the real ViT is charged analytically by
 * the timing model (sim/compute_model); here only the functional data
 * path matters.
 */

#ifndef VREX_VIDEO_VISION_TOWER_HH
#define VREX_VIDEO_VISION_TOWER_HH

#include <cstdint>

#include "tensor/matrix.hh"

namespace vrex
{

/** Two-layer GELU MLP from latent space to vision-feature space. */
class VisionTower
{
  public:
    VisionTower(uint32_t latent_dim, uint32_t vision_dim, uint64_t seed);

    /** Encode frame latents (T x latentDim) -> T x visionDim. */
    Matrix encode(const Matrix &latents) const;

    /** Input (latent) and output (vision feature) widths. */
    uint32_t latentDim() const { return w1.cols(); }
    uint32_t visionDim() const { return w2.rows(); }

    /** Bytes of the weight arrays held (fp32). */
    uint64_t bytes() const { return (w1.size() + w2.size()) * sizeof(float); }

  private:
    Matrix w1, w2;  // [out x in] layout.
};

/** Linear projector from vision features to the LLM embedding space. */
class MlpProjector
{
  public:
    MlpProjector(uint32_t vision_dim, uint32_t d_model, uint64_t seed);

    /** Project features (T x visionDim) -> T x dModel. */
    Matrix project(const Matrix &features) const;

    /** Bytes of the weight array held (fp32). */
    uint64_t bytes() const { return w.size() * sizeof(float); }

  private:
    Matrix w;  // [dModel x visionDim].
};

} // namespace vrex

#endif // VREX_VIDEO_VISION_TOWER_HH
