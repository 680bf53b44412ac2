#include "video/vision_tower.hh"

#include <cmath>

#include "common/rng.hh"
#include "tensor/ops.hh"

namespace vrex
{

namespace
{
Matrix
randomWeight(uint32_t out_dim, uint32_t in_dim, Rng &rng)
{
    Matrix w(out_dim, in_dim);
    rng.fillGaussian(w.raw(), w.size(),
                     1.0f / std::sqrt(static_cast<float>(in_dim)));
    return w;
}

void
gelu(float *x, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i) {
        float v = x[i];
        x[i] = 0.5f * v *
            (1.0f + std::tanh(0.7978845608f *
                              (v + 0.044715f * v * v * v)));
    }
}
} // namespace

VisionTower::VisionTower(uint32_t latent_dim, uint32_t vision_dim,
                         uint64_t seed)
{
    Rng rng(seed, "vision-tower");
    const uint32_t hidden = 2 * vision_dim;
    w1 = randomWeight(hidden, latent_dim, rng);
    w2 = randomWeight(vision_dim, hidden, rng);
}

Matrix
VisionTower::encode(const Matrix &latents) const
{
    Matrix h, out;
    matmulTransposed(latents, w1, h);
    for (uint32_t t = 0; t < h.rows(); ++t)
        gelu(h.row(t), h.cols());
    matmulTransposed(h, w2, out);
    return out;
}

MlpProjector::MlpProjector(uint32_t vision_dim, uint32_t d_model,
                           uint64_t seed)
{
    Rng rng(seed, "mlp-projector");
    w = randomWeight(d_model, vision_dim, rng);
}

Matrix
MlpProjector::project(const Matrix &features) const
{
    Matrix out;
    matmulTransposed(features, w, out);
    return out;
}

} // namespace vrex
