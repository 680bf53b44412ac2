/**
 * @file
 * AVX2 kernel table. This translation unit is compiled with
 * `-mavx2 -mno-fma` on x86-64 (see the top-level CMakeLists) and as an
 * empty probe elsewhere; the dispatcher only calls into it after a
 * CPUID check, so the library stays runnable on non-AVX2 x86 parts.
 *
 * Numeric contract (see kernels.hh): hashEncode assigns one signature
 * bit per float lane and walks the key dimension sequentially with
 * unfused mul+add, so each lane reproduces the scalar encode loop's
 * rounding exactly. The dense kernels (dot, GEMM, fused score-max,
 * gather) hold the canonical order's eight lane sums in one 256-bit
 * accumulator per output and combine them with the canonical tree; the
 * score-max folds each scaled dot with maxps(v, raw), which keeps raw
 * on ties and NaN exactly as std::max(raw, v) does. The gathered axpy
 * (attention's p·V) puts one output element per lane and walks the
 * keys sequentially, the scalar loop's order. -mno-fma plus the
 * global -ffp-contract=off guarantee the compiler cannot fuse the
 * mul/add intrinsics into an FMA. All other kernels are integer or
 * exact-predicate operations.
 */

#include "core/kernels.hh"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

#include "common/bits.hh"

namespace vrex::kernels
{

namespace
{

/**
 * Mula's nibble-LUT popcount: per-byte popcounts via two PSHUFB table
 * lookups, horizontally summed into the four 64-bit lanes with SAD.
 */
inline __m256i
popcount256(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

uint32_t
hammingWordsAvx2(const uint64_t *a, const uint64_t *b, size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + w));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + w));
        acc = _mm256_add_epi64(acc,
                               popcount256(_mm256_xor_si256(va, vb)));
    }
    uint64_t dist = 0;
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    dist = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; w < n; ++w)
        dist += static_cast<uint64_t>(std::popcount(a[w] ^ b[w]));
    return static_cast<uint32_t>(dist);
}

/**
 * HCU scan. One-word signatures (N_hp <= 64, the paper's 32) go four
 * to a register: popcount256's SAD leaves each signature's distance in
 * its own 64-bit lane, and a lane compare against the best distance so
 * far filters the rare blocks that can change the answer. Those are
 * walked lane by lane in index order, so the first minimum wins as in
 * the scalar loop. Wider signatures take the per-signature word
 * kernel. Once a distance of 0 is found nothing later can replace it.
 */
uint32_t
hammingNearestAvx2(const uint64_t *table, uint32_t count, size_t nwords,
                   const uint64_t *sig, uint32_t limit)
{
    uint32_t best = count;
    uint64_t best_dist = static_cast<uint64_t>(limit) + 1;
    if (nwords != 1) {
        for (uint32_t c = 0; c < count; ++c) {
            const uint32_t d =
                hammingWordsAvx2(table + c * nwords, sig, nwords);
            if (d < best_dist) {
                best_dist = d;
                best = c;
                if (d == 0)
                    break;
            }
        }
        return best;
    }

    const __m256i s = _mm256_set1_epi64x(static_cast<long long>(sig[0]));
    __m256i bestv = _mm256_set1_epi64x(static_cast<long long>(best_dist));
    // Distances of block c (its first @p live lanes valid). Returns
    // true once a distance of 0 settles the scan.
    auto visit = [&](__m256i d, __m256i valid, uint32_t c, uint32_t live) {
        const __m256i closer =
            _mm256_and_si256(_mm256_cmpgt_epi64(bestv, d), valid);
        if (_mm256_testz_si256(closer, closer))
            return false;
        alignas(32) uint64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), d);
        for (uint32_t l = 0; l < live; ++l) {
            if (lanes[l] < best_dist) {
                best_dist = lanes[l];
                best = c + l;
            }
        }
        bestv = _mm256_set1_epi64x(static_cast<long long>(best_dist));
        return best_dist == 0;
    };
    const __m256i all = _mm256_set1_epi64x(-1);
    uint32_t c = 0;
    for (; c + 4 <= count; c += 4) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(table + c));
        if (visit(popcount256(_mm256_xor_si256(w, s)), all, c, 4))
            return best;
    }
    if (c < count) {
        // Ragged last block: load only the live lanes and mask the
        // rest out of the compare.
        const uint32_t live = count - c;
        const __m256i m = _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(live), _mm256_setr_epi64x(0, 1, 2, 3));
        const __m256i w = _mm256_maskload_epi64(
            reinterpret_cast<const long long *>(table + c), m);
        visit(popcount256(_mm256_xor_si256(w, s)), m, c, live);
    }
    return best;
}

void
hashEncodeAvx2(const HashPlanes &p, const float *key, uint64_t *words)
{
    static_assert(kEncodeBlock == 8,
                  "AVX2 encode assumes 8 float lanes per block");
    const uint32_t nwords = bitWords(p.nbits);
    std::fill(words, words + nwords, 0ull);

    const uint32_t blockEnd = p.nbits & ~(kEncodeBlock - 1);
    for (uint32_t b0 = 0; b0 < blockEnd; b0 += kEncodeBlock) {
        // Lane k accumulates dot(key, plane_{b0+k}) in key-dimension
        // order: the same mul-then-add sequence per lane as the
        // scalar encode loop, hence the same rounding and sign.
        __m256 acc = _mm256_setzero_ps();
        const float *col = p.cols + b0;
        for (uint32_t j = 0; j < p.dim; ++j) {
            const __m256 kj = _mm256_set1_ps(key[j]);
            const __m256 pj = _mm256_loadu_ps(
                col + static_cast<size_t>(j) * p.colStride);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(kj, pj));
        }
        const __m256 gt = _mm256_cmp_ps(acc, _mm256_setzero_ps(),
                                        _CMP_GT_OQ);
        const uint64_t mask =
            static_cast<uint64_t>(
                static_cast<uint32_t>(_mm256_movemask_ps(gt))) &
            0xffull;
        // b0 is a multiple of 8, so a block never straddles a word.
        words[b0 >> 6] |= mask << (b0 & 63u);
    }

    // Ragged tail: per-bit scalar dot over the row-major planes.
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
minMaxF32Avx2(const float *s, size_t n, float *lo, float *hi)
{
    size_t i = 0;
    float mn = s[0], mx = s[0];
    if (n >= 8) {
        __m256 vmn = _mm256_loadu_ps(s);
        __m256 vmx = vmn;
        for (i = 8; i + 8 <= n; i += 8) {
            const __m256 v = _mm256_loadu_ps(s + i);
            vmn = _mm256_min_ps(vmn, v);
            vmx = _mm256_max_ps(vmx, v);
        }
        alignas(32) float lanes[8];
        _mm256_store_ps(lanes, vmn);
        mn = lanes[0];
        for (int k = 1; k < 8; ++k)
            mn = std::min(mn, lanes[k]);
        _mm256_store_ps(lanes, vmx);
        mx = lanes[0];
        for (int k = 1; k < 8; ++k)
            mx = std::max(mx, lanes[k]);
    }
    for (; i < n; ++i) {
        mn = std::min(mn, s[i]);
        mx = std::max(mx, s[i]);
    }
    *lo = mn;
    *hi = mx;
}

void
rangeBitmapAvx2(const float *s, size_t n, double lower, double upper,
                bool closedTop, uint64_t *bitmap)
{
    const size_t nwords = bitWords(static_cast<uint32_t>(n));
    std::fill(bitmap, bitmap + nwords, 0ull);

    const __m256d vlo = _mm256_set1_pd(lower);
    const __m256d vhi = _mm256_set1_pd(upper);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // The scalar sweep compares double(s[i]) against double
        // bounds; float->double conversion is exact, so widening the
        // lanes preserves the predicate bit-for-bit.
        const __m128 f0 = _mm_loadu_ps(s + i);
        const __m128 f1 = _mm_loadu_ps(s + i + 4);
        const __m256d d0 = _mm256_cvtps_pd(f0);
        const __m256d d1 = _mm256_cvtps_pd(f1);
        __m256d in0 = _mm256_cmp_pd(d0, vlo, _CMP_GE_OQ);
        __m256d in1 = _mm256_cmp_pd(d1, vlo, _CMP_GE_OQ);
        if (!closedTop) {
            in0 = _mm256_and_pd(in0,
                                _mm256_cmp_pd(d0, vhi, _CMP_LT_OQ));
            in1 = _mm256_and_pd(in1,
                                _mm256_cmp_pd(d1, vhi, _CMP_LT_OQ));
        }
        const uint64_t mask =
            (static_cast<uint64_t>(
                 static_cast<uint32_t>(_mm256_movemask_pd(in0))) &
             0xfull) |
            ((static_cast<uint64_t>(
                  static_cast<uint32_t>(_mm256_movemask_pd(in1))) &
              0xfull)
             << 4);
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

// ---------------------------------------------------------------------
// Dense kernels in the canonical 8-lane order (tensor dot()). Lane l
// of an accumulator sums a[8i+l] * b[8i+l] in i order. The ragged
// tail is a zero-filled masked load: lanes >= n % 8 then add
// +0 * +0 = +0, which leaves any lane sum unchanged (a sum that
// starts at +0 is never -0 under round-to-nearest), so the tail adds
// into exactly the first n % 8 lanes as the reference does.
// ---------------------------------------------------------------------

/** Load mask for the first @p rem lanes (rem <= 8). */
inline __m256i
tailMask(uint32_t rem)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** t = [s0+s4, s1+s5, s2+s6, s3+s7]: the tree's first level. */
inline __m128
foldHalves(__m256 v)
{
    return _mm_add_ps(_mm256_castps256_ps128(v),
                      _mm256_extractf128_ps(v, 1));
}

/** ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)) of one accumulator. */
inline float
reduceCanonical(__m256 v)
{
    const __m128 t = foldHalves(v);
    const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
    return _mm_cvtss_f32(
        _mm_add_ss(u, _mm_shuffle_ps(u, u, _MM_SHUFFLE(1, 1, 1, 1))));
}

/**
 * The canonical tree of four accumulators at once: after the
 * transpose, c_m holds first-level sum m of every accumulator, so
 * lane r of the result is ((t0+t2)+(t1+t3)) of accumulator r.
 */
inline __m128
reduceCanonical4(__m256 a0, __m256 a1, __m256 a2, __m256 a3)
{
    __m128 c0 = foldHalves(a0), c1 = foldHalves(a1),
           c2 = foldHalves(a2), c3 = foldHalves(a3);
    _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
    return _mm_add_ps(_mm_add_ps(c0, c2), _mm_add_ps(c1, c3));
}

inline __m256
mulAdd(__m256 acc, __m256 x, __m256 y)
{
    return _mm256_add_ps(acc, _mm256_mul_ps(x, y));
}

float
dotF32Avx2(const float *a, const float *b, uint32_t n)
{
    const uint32_t body = n & ~7u;
    __m256 acc = _mm256_setzero_ps();
    for (uint32_t i = 0; i < body; i += 8)
        acc = mulAdd(acc, _mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    if (n & 7u) {
        const __m256i m = tailMask(n & 7u);
        acc = mulAdd(acc, _mm256_maskload_ps(a + body, m),
                     _mm256_maskload_ps(b + body, m));
    }
    return reduceCanonical(acc);
}

/**
 * Four canonical dots of @p x against @p b0..b3, in lanes 0..3: four
 * independent accumulators, so the adds of four rows overlap.
 */
inline __m128
dot4(const float *x, const float *b0, const float *b1, const float *b2,
     const float *b3, uint32_t n)
{
    const uint32_t body = n & ~7u;
    __m256 s0 = _mm256_setzero_ps(), s1 = s0, s2 = s0, s3 = s0;
    for (uint32_t k = 0; k < body; k += 8) {
        const __m256 xv = _mm256_loadu_ps(x + k);
        s0 = mulAdd(s0, xv, _mm256_loadu_ps(b0 + k));
        s1 = mulAdd(s1, xv, _mm256_loadu_ps(b1 + k));
        s2 = mulAdd(s2, xv, _mm256_loadu_ps(b2 + k));
        s3 = mulAdd(s3, xv, _mm256_loadu_ps(b3 + k));
    }
    if (n & 7u) {
        const __m256i m = tailMask(n & 7u);
        const __m256 xv = _mm256_maskload_ps(x + body, m);
        s0 = mulAdd(s0, xv, _mm256_maskload_ps(b0 + body, m));
        s1 = mulAdd(s1, xv, _mm256_maskload_ps(b1 + body, m));
        s2 = mulAdd(s2, xv, _mm256_maskload_ps(b2 + body, m));
        s3 = mulAdd(s3, xv, _mm256_maskload_ps(b3 + body, m));
    }
    return reduceCanonical4(s0, s1, s2, s3);
}

void
gemmRowsF32Avx2(const float *a, size_t lda, uint32_t rows, const float *b,
                size_t ldb, uint32_t cols, uint32_t k, float *out,
                size_t ldo)
{
    // Weight rows outer, four at a time; batch rows inner, so the
    // four weight rows stay in L1 for every row of the group.
    uint32_t j = 0;
    for (; j + 4 <= cols; j += 4) {
        const float *b0 = b + j * ldb;
        for (uint32_t i = 0; i < rows; ++i)
            _mm_storeu_ps(out + i * ldo + j,
                          dot4(a + i * lda, b0, b0 + ldb, b0 + 2 * ldb,
                               b0 + 3 * ldb, k));
    }
    for (; j < cols; ++j)
        for (uint32_t i = 0; i < rows; ++i)
            out[i * ldo + j] = dotF32Avx2(a + i * lda, b + j * ldb, k);
}

void
gemmRowsMaxF32Avx2(const float *a, size_t lda, uint32_t rows,
                   const float *b, size_t ldb, uint32_t cols, uint32_t k,
                   float scale, float *raw)
{
    // Four candidate columns' running maxima stay in one register
    // while every row is scored against them, rows in order.
    const __m128 vscale = _mm_set1_ps(scale);
    uint32_t j = 0;
    for (; j + 4 <= cols; j += 4) {
        const float *b0 = b + j * ldb;
        __m128 m = _mm_loadu_ps(raw + j);
        for (uint32_t i = 0; i < rows; ++i)
            m = _mm_max_ps(
                _mm_mul_ps(dot4(a + i * lda, b0, b0 + ldb, b0 + 2 * ldb,
                                b0 + 3 * ldb, k),
                           vscale),
                m);
        _mm_storeu_ps(raw + j, m);
    }
    for (; j < cols; ++j)
        for (uint32_t i = 0; i < rows; ++i)
            raw[j] = std::max(raw[j],
                              dotF32Avx2(a + i * lda, b + j * ldb, k) *
                                  scale);
}

void
dotGatherF32Avx2(const float *q, const float *base, size_t stride,
                 const uint32_t *idx, size_t count, uint32_t n,
                 float *out)
{
    size_t i = 0;
    for (; i + 4 <= count; i += 4)
        _mm_storeu_ps(out + i,
                      dot4(q, base + idx[i] * stride,
                           base + idx[i + 1] * stride,
                           base + idx[i + 2] * stride,
                           base + idx[i + 3] * stride, n));
    for (; i < count; ++i)
        out[i] = dotF32Avx2(q, base + idx[i] * stride, n);
}

// ---------------------------------------------------------------------
// Gathered p·V in the sequential per-element order: lane d of an
// accumulator is out[d], and it adds p[i] * row_i[d] key after key —
// the scalar reference's mul-then-add chain, lane by lane. A pass
// covers up to 16 columns (two accumulators held in registers across
// all keys); a ragged pass loads and stores its last accumulator
// through a mask, so no column at or past n is read or written.
// ---------------------------------------------------------------------

void
axpyGatherF32Avx2(const float *p, const float *base, size_t stride,
                  const uint32_t *idx, size_t count, uint32_t n,
                  float *out)
{
    uint32_t d = 0;
    for (; d + 16 <= n; d += 16) {
        __m256 a0 = _mm256_loadu_ps(out + d);
        __m256 a1 = _mm256_loadu_ps(out + d + 8);
        for (size_t i = 0; i < count; ++i) {
            if (p[i] == 0.0f)
                continue;
            const __m256 pv = _mm256_set1_ps(p[i]);
            const float *row = base + idx[i] * stride + d;
            a0 = mulAdd(a0, pv, _mm256_loadu_ps(row));
            a1 = mulAdd(a1, pv, _mm256_loadu_ps(row + 8));
        }
        _mm256_storeu_ps(out + d, a0);
        _mm256_storeu_ps(out + d + 8, a1);
    }
    const uint32_t rem = n - d;
    if (rem > 8) {
        const __m256i m = tailMask(rem - 8);
        __m256 a0 = _mm256_loadu_ps(out + d);
        __m256 a1 = _mm256_maskload_ps(out + d + 8, m);
        for (size_t i = 0; i < count; ++i) {
            if (p[i] == 0.0f)
                continue;
            const __m256 pv = _mm256_set1_ps(p[i]);
            const float *row = base + idx[i] * stride + d;
            a0 = mulAdd(a0, pv, _mm256_loadu_ps(row));
            a1 = mulAdd(a1, pv, _mm256_maskload_ps(row + 8, m));
        }
        _mm256_storeu_ps(out + d, a0);
        _mm256_maskstore_ps(out + d + 8, m, a1);
    } else if (rem > 0) {
        const __m256i m = tailMask(rem);
        __m256 a0 = _mm256_maskload_ps(out + d, m);
        for (size_t i = 0; i < count; ++i) {
            if (p[i] == 0.0f)
                continue;
            const __m256 pv = _mm256_set1_ps(p[i]);
            a0 = mulAdd(a0, pv,
                        _mm256_maskload_ps(base + idx[i] * stride + d, m));
        }
        _mm256_maskstore_ps(out + d, m, a0);
    }
}

const Ops kAvx2Ops = {
    "avx2",
    &hammingWordsAvx2,
    &hammingNearestAvx2,
    &hashEncodeAvx2,
    &minMaxF32Avx2,
    &rangeBitmapAvx2,
    &dotF32Avx2,
    &gemmRowsF32Avx2,
    &gemmRowsMaxF32Avx2,
    &dotGatherF32Avx2,
    &axpyGatherF32Avx2,
};

} // namespace

const Ops *
avx2OpsOrNull()
{
    return &kAvx2Ops;
}

} // namespace vrex::kernels

#else // !defined(__AVX2__)

namespace vrex::kernels
{

const Ops *
avx2OpsOrNull()
{
    return nullptr;
}

} // namespace vrex::kernels

#endif // defined(__AVX2__)
