/**
 * @file
 * NEON kernel table for aarch64, where NEON (Advanced SIMD) is an
 * architectural baseline — no runtime probe needed beyond compiling
 * for the target. Everywhere else this TU is an empty probe.
 *
 * Numeric contract (see kernels.hh): hashEncode assigns one signature
 * bit per float lane and walks the key dimension sequentially with
 * *unfused* vmul+vadd — never vfma — and the whole project builds
 * with -ffp-contract=off, so each lane reproduces the scalar
 * hashEncode's sequential rounding exactly. minMax, Hamming and the
 * range bitmap are integer or exact-predicate operations; the HCU scan
 * (hammingNearest) and the dense float kernels (dot, GEMM, fused
 * score-max, gather, gathered axpy) point at the scalar references.
 */

#include "core/kernels.hh"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <bit>

#include "common/bits.hh"

namespace vrex::kernels
{

namespace
{

uint32_t
hammingWordsNeon(const uint64_t *a, const uint64_t *b, size_t n)
{
    uint64_t dist = 0;
    size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        const uint8x16_t va = vreinterpretq_u8_u64(vld1q_u64(a + w));
        const uint8x16_t vb = vreinterpretq_u8_u64(vld1q_u64(b + w));
        const uint8x16_t x = veorq_u8(va, vb);
        // Per-byte popcount, then a horizontal add across the vector.
        dist += vaddlvq_u8(vcntq_u8(x));
    }
    for (; w < n; ++w)
        dist += static_cast<uint64_t>(std::popcount(a[w] ^ b[w]));
    return static_cast<uint32_t>(dist);
}

void
hashEncodeNeon(const HashPlanes &p, const float *key, uint64_t *words)
{
    const uint32_t nwords = bitWords(p.nbits);
    std::fill(words, words + nwords, 0ull);

    // Two 4-lane accumulators cover one kEncodeBlock (8 bits).
    static_assert(kEncodeBlock == 8,
                  "NEON encode assumes 8 lanes per block");
    const uint32_t blockEnd = p.nbits & ~(kEncodeBlock - 1);
    for (uint32_t b0 = 0; b0 < blockEnd; b0 += kEncodeBlock) {
        float32x4_t acc0 = vdupq_n_f32(0.0f);
        float32x4_t acc1 = vdupq_n_f32(0.0f);
        const float *col = p.cols + b0;
        for (uint32_t j = 0; j < p.dim; ++j) {
            const float32x4_t kj = vdupq_n_f32(key[j]);
            const float *pj =
                col + static_cast<size_t>(j) * p.colStride;
            // vmul + vadd kept separate: vfma would fuse the rounding
            // step and break bit-identity with the scalar loop.
            acc0 = vaddq_f32(acc0, vmulq_f32(kj, vld1q_f32(pj)));
            acc1 = vaddq_f32(acc1, vmulq_f32(kj, vld1q_f32(pj + 4)));
        }
        const uint32x4_t gt0 = vcgtq_f32(acc0, vdupq_n_f32(0.0f));
        const uint32x4_t gt1 = vcgtq_f32(acc1, vdupq_n_f32(0.0f));
        uint64_t mask = 0;
        alignas(16) uint32_t lanes[4];
        vst1q_u32(lanes, gt0);
        for (int k = 0; k < 4; ++k)
            mask |= static_cast<uint64_t>(lanes[k] & 1u) << k;
        vst1q_u32(lanes, gt1);
        for (int k = 0; k < 4; ++k)
            mask |= static_cast<uint64_t>(lanes[k] & 1u) << (4 + k);
        words[b0 >> 6] |= mask << (b0 & 63u);
    }

    for (uint32_t b = blockEnd; b < p.nbits; ++b) {
        const float *row = p.rows + static_cast<size_t>(b) * p.dim;
        float s = 0.0f;
        for (uint32_t j = 0; j < p.dim; ++j)
            s += key[j] * row[j];
        if (s > 0.0f)
            words[b >> 6] |= 1ull << (b & 63u);
    }
}

void
minMaxF32Neon(const float *s, size_t n, float *lo, float *hi)
{
    size_t i = 0;
    float mn = s[0], mx = s[0];
    if (n >= 4) {
        float32x4_t vmn = vld1q_f32(s);
        float32x4_t vmx = vmn;
        for (i = 4; i + 4 <= n; i += 4) {
            const float32x4_t v = vld1q_f32(s + i);
            vmn = vminq_f32(vmn, v);
            vmx = vmaxq_f32(vmx, v);
        }
        mn = vminvq_f32(vmn);
        mx = vmaxvq_f32(vmx);
    }
    for (; i < n; ++i) {
        mn = std::min(mn, s[i]);
        mx = std::max(mx, s[i]);
    }
    *lo = mn;
    *hi = mx;
}

void
rangeBitmapNeon(const float *s, size_t n, double lower, double upper,
                bool closedTop, uint64_t *bitmap)
{
    const size_t nwords = bitWords(static_cast<uint32_t>(n));
    std::fill(bitmap, bitmap + nwords, 0ull);

    const float64x2_t vlo = vdupq_n_f64(lower);
    const float64x2_t vhi = vdupq_n_f64(upper);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        // Widen to double before comparing, matching the scalar
        // sweep's double(s[i]) promotion (exact conversion).
        const float32x4_t f = vld1q_f32(s + i);
        const float64x2_t d0 = vcvt_f64_f32(vget_low_f32(f));
        const float64x2_t d1 = vcvt_f64_f32(vget_high_f32(f));
        uint64x2_t in0 = vcgeq_f64(d0, vlo);
        uint64x2_t in1 = vcgeq_f64(d1, vlo);
        if (!closedTop) {
            in0 = vandq_u64(in0, vcltq_f64(d0, vhi));
            in1 = vandq_u64(in1, vcltq_f64(d1, vhi));
        }
        uint64_t mask = 0;
        mask |= (vgetq_lane_u64(in0, 0) & 1u) << 0;
        mask |= (vgetq_lane_u64(in0, 1) & 1u) << 1;
        mask |= (vgetq_lane_u64(in1, 0) & 1u) << 2;
        mask |= (vgetq_lane_u64(in1, 1) & 1u) << 3;
        bitmap[i >> 6] |= mask << (i & 63u);
    }
    for (; i < n; ++i) {
        const double v = s[i];
        const bool in =
            closedTop ? (v >= lower) : (v >= lower && v < upper);
        if (in)
            bitmap[i >> 6] |= 1ull << (i & 63u);
    }
}

const Ops kNeonOps = {
    "neon",
    &hammingWordsNeon,
    &hammingNearestScalar,
    &hashEncodeNeon,
    &minMaxF32Neon,
    &rangeBitmapNeon,
    // The dense kernels stay on the scalar references until a NEON
    // variant can be verified on an aarch64 host.
    &vrex::detail::dotF32Scalar,
    &vrex::detail::gemmRowsF32Scalar,
    &vrex::detail::gemmRowsMaxF32Scalar,
    &vrex::detail::dotGatherF32Scalar,
    &vrex::detail::axpyGatherF32Scalar,
};

} // namespace

const Ops *
neonOpsOrNull()
{
    return &kNeonOps;
}

} // namespace vrex::kernels

#else // !aarch64 NEON

namespace vrex::kernels
{

const Ops *
neonOpsOrNull()
{
    return nullptr;
}

} // namespace vrex::kernels

#endif // aarch64 NEON
