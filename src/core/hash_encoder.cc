#include "core/hash_encoder.hh"

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/kernels.hh"
#include "tensor/ops.hh"

namespace vrex
{

namespace
{

/** nbits rounded up to a whole number of encode blocks. */
uint32_t
encodeStride(uint32_t nbits)
{
    const uint32_t block = kernels::kEncodeBlock;
    return (nbits + block - 1) / block * block;
}

} // namespace

HashEncoder::HashEncoder(uint32_t key_dim, uint32_t n_bits,
                         uint64_t seed)
    : dim(key_dim), nBits(n_bits), planes(n_bits, key_dim),
      planesT(key_dim, encodeStride(n_bits))
{
    VREX_ASSERT(key_dim > 0 && n_bits > 0, "bad hash encoder shape");
    Rng rng(seed, "hash-hyperplanes");
    rng.fillGaussian(planes.raw(), planes.size(), 1.0f);
    // Bit-major transpose for the SIMD encode kernels; the padding
    // columns stay zero (their lanes are discarded by the bit mask).
    for (uint32_t b = 0; b < nBits; ++b)
        for (uint32_t j = 0; j < dim; ++j)
            planesT.at(j, b) = planes.at(b, j);
}

kernels::HashPlanes
HashEncoder::planesView() const
{
    return {planes.raw(), planesT.raw(), dim, nBits, planesT.cols()};
}

BitSig
HashEncoder::encode(const float *key) const
{
    BitSig sig(nBits);
    encode(key, sig.rawMutable());
    return sig;
}

void
HashEncoder::encode(const float *key, uint64_t *words) const
{
    kernels::active().hashEncode(planesView(), key, words);
}

std::vector<BitSig>
HashEncoder::encodeRows(const Matrix &keys) const
{
    VREX_ASSERT(keys.cols() == dim, "key width mismatch");
    const kernels::HashPlanes view = planesView();
    const auto encodeKernel = kernels::active().hashEncode;
    std::vector<BitSig> sigs;
    sigs.reserve(keys.rows());
    for (uint32_t r = 0; r < keys.rows(); ++r) {
        BitSig sig(nBits);
        encodeKernel(view, keys.row(r), sig.rawMutable());
        sigs.push_back(std::move(sig));
    }
    return sigs;
}

} // namespace vrex
