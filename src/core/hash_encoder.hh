/**
 * @file
 * Hash-bit generation (ReSV step 1, paper Fig. 8 left).
 *
 * A fixed set of N_hp random hyperplanes reduces each key vector to an
 * N_hp-bit sign signature. Hamming distance between signatures tracks
 * cosine distance (the classic SimHash property; the paper measures a
 * 0.8 correlation, reproduced by bench/fig07_similarity). N_hp is
 * <= 0.5% of the original key dimension for Llama-3-8B heads.
 */

#ifndef VREX_CORE_HASH_ENCODER_HH
#define VREX_CORE_HASH_ENCODER_HH

#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "core/kernels.hh"
#include "tensor/matrix.hh"

namespace vrex
{

/**
 * Random-hyperplane sign hasher for key vectors.
 *
 * encode() runs on the runtime-dispatched kernel layer
 * (core/kernels): the hyperplanes are kept both row-major (scalar
 * walks one contiguous row per bit) and as a zero-padded transpose
 * (SIMD loads one coefficient of kernels::kEncodeBlock adjacent bits
 * per vector load). Every ISA produces bit-identical signatures; see
 * the contract in kernels.hh.
 */
class HashEncoder
{
  public:
    /**
     * @param key_dim Dimensionality of the hashed keys (head dim).
     * @param n_bits  Number of hyperplanes N_hp (signature width).
     * @param seed    RNG seed for the hyperplane directions.
     */
    HashEncoder(uint32_t key_dim, uint32_t n_bits, uint64_t seed);

    /** Signature of one key vector of length keyDim(). */
    BitSig encode(const float *key) const;

    /**
     * Signature of one key vector into @p words, which must hold
     * bitWords(bits()) words (fully rewritten, padding zeroed): the
     * allocation-free form the HC-table insert path uses.
     */
    void encode(const float *key, uint64_t *words) const;

    /** Signatures for each row of @p keys (cols == keyDim()). */
    std::vector<BitSig> encodeRows(const Matrix &keys) const;

    uint32_t keyDim() const { return dim; }
    uint32_t bits() const { return nBits; }

    /** The hyperplane matrix (nBits x keyDim), for tests. */
    const Matrix &hyperplanes() const { return planes; }

  private:
    /** Kernel-facing views of both hyperplane layouts. */
    kernels::HashPlanes planesView() const;

    uint32_t dim;
    uint32_t nBits;
    Matrix planes;
    /** keyDim x colStride transpose of planes, zero-padded to
     * kernels::kEncodeBlock columns. */
    Matrix planesT;
};

} // namespace vrex

#endif // VREX_CORE_HASH_ENCODER_HH
