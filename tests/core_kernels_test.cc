/**
 * @file
 * Property suite locking the bit-identical contract of the runtime-
 * dispatched kernels (core/kernels): every compiled ISA variant must
 * produce output exactly equal to the scalar reference — for the raw
 * DRE and dense kernels, end-to-end through BitSig / HashEncoder /
 * HCTable / WiCSum and attentionForward, and through a whole ReSV
 * streaming session. Also covers the dispatch plumbing itself
 * (selection, overrides, unavailable ISAs) and the hardening added
 * alongside it (width-mismatch assert, debug bounds asserts, bitWords
 * overflow).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/bits.hh"
#include "common/rng.hh"
#include "core/hash_encoder.hh"
#include "core/hc_table.hh"
#include "core/kernels.hh"
#include "core/resv.hh"
#include "core/wicsum.hh"
#include "llm/attention.hh"
#include "pipeline/streaming_session.hh"
#include "tensor/matrix.hh"
#include "tensor/ops.hh"
#include "testutil.hh"

using namespace vrex;

namespace
{

/** Force one ISA for a scope; teardown re-runs the auto selection. */
class ForcedIsa
{
  public:
    explicit ForcedIsa(kernels::Isa isa)
        : ok_(kernels::setActive(isa))
    {
    }
    ~ForcedIsa() { kernels::resetToAuto(); }
    bool ok() const { return ok_; }

  private:
    bool ok_;
};

/** Every ISA this binary can actually run, Scalar first. */
std::vector<kernels::Isa>
runnableIsas()
{
    std::vector<kernels::Isa> out;
    for (kernels::Isa isa : kernels::compiledIsas()) {
        if (kernels::isaAvailable(isa))
            out.push_back(isa);
    }
    return out;
}

/** The Ops table of each runnable ISA (selection restored after). */
std::vector<std::pair<kernels::Isa, const kernels::Ops *>>
runnableOps()
{
    std::vector<std::pair<kernels::Isa, const kernels::Ops *>> out;
    for (kernels::Isa isa : runnableIsas()) {
        EXPECT_TRUE(kernels::setActive(isa));
        out.emplace_back(isa, &kernels::active());
    }
    kernels::resetToAuto();
    return out;
}

/** Bit-by-bit Hamming reference, independent of the word kernels. */
uint32_t
naiveHamming(const std::vector<uint64_t> &a,
             const std::vector<uint64_t> &b, uint32_t nbits)
{
    uint32_t d = 0;
    for (uint32_t i = 0; i < nbits; ++i) {
        const uint64_t abit = (a[i >> 6] >> (i & 63u)) & 1u;
        const uint64_t bbit = (b[i >> 6] >> (i & 63u)) & 1u;
        d += static_cast<uint32_t>(abit ^ bbit);
    }
    return d;
}

class CoreKernelsTest : public testutil::SeededRngTest
{
};

// ---------------------------------------------------------------------
// Hamming: every ISA == scalar == naive, across widths and patterns.
// ---------------------------------------------------------------------

TEST_F(CoreKernelsTest, HammingEquivalenceAllWidths)
{
    const auto ops = runnableOps();
    ASSERT_FALSE(ops.empty());
    for (uint32_t nbits = 1; nbits <= 512; ++nbits) {
        const size_t nwords = bitWords(nbits);
        std::vector<uint64_t> a(nwords), b(nwords);
        for (size_t w = 0; w < nwords; ++w) {
            a[w] = rng.nextU64();
            b[w] = rng.nextU64();
        }
        // Mask padding so the naive reference sees the same universe.
        if (nbits & 63u) {
            const uint64_t mask = (1ull << (nbits & 63u)) - 1;
            a.back() &= mask;
            b.back() &= mask;
        }
        const uint32_t want = naiveHamming(a, b, nbits);
        for (const auto &[isa, table] : ops) {
            EXPECT_EQ(table->hammingWords(a.data(), b.data(), nwords),
                      want)
                << "isa=" << kernels::isaName(isa)
                << " nbits=" << nbits;
        }
    }
}

TEST_F(CoreKernelsTest, HammingAdversarialPatterns)
{
    const auto ops = runnableOps();
    const std::vector<uint64_t> fills = {
        0x0ull, ~0x0ull, 0xAAAAAAAAAAAAAAAAull,
        0x5555555555555555ull, 0x8000000000000001ull};
    for (uint32_t nbits :
         {1u, 63u, 64u, 65u, 127u, 128u, 255u, 256u, 511u, 512u}) {
        const size_t nwords = bitWords(nbits);
        for (uint64_t fa : fills) {
            for (uint64_t fb : fills) {
                std::vector<uint64_t> a(nwords, fa), b(nwords, fb);
                if (nbits & 63u) {
                    const uint64_t mask =
                        (1ull << (nbits & 63u)) - 1;
                    a.back() &= mask;
                    b.back() &= mask;
                }
                const uint32_t want = naiveHamming(a, b, nbits);
                for (const auto &[isa, table] : ops) {
                    EXPECT_EQ(table->hammingWords(a.data(), b.data(),
                                                  nwords),
                              want)
                        << "isa=" << kernels::isaName(isa)
                        << " nbits=" << nbits;
                }
            }
        }
    }
}

TEST_F(CoreKernelsTest, BitSigHammingUsesDispatchedKernel)
{
    for (kernels::Isa isa : runnableIsas()) {
        ForcedIsa guard(isa);
        ASSERT_TRUE(guard.ok());
        BitSig a(130), b(130);
        for (uint32_t i = 0; i < 130; i += 3)
            a.set(i, true);
        for (uint32_t i = 0; i < 130; i += 5)
            b.set(i, true);
        EXPECT_EQ(a.hamming(b),
                  naiveHamming(a.raw(), b.raw(), 130))
            << "isa=" << kernels::isaName(isa);
        EXPECT_EQ(a.hamming(a), 0u);
    }
}

// ---------------------------------------------------------------------
// Hash encode: raw kernel and HashEncoder path, all ISAs vs scalar.
// ---------------------------------------------------------------------

TEST_F(CoreKernelsTest, HashEncodeKernelEquivalence)
{
    const auto ops = runnableOps();
    for (uint32_t dim : {3u, 8u, 16u, 128u}) {
        for (uint32_t nbits : {1u, 7u, 8u, 31u, 32u, 33u, 64u, 512u}) {
            // Build the two plane views by hand: random row-major
            // planes plus the zero-padded transpose the SIMD side
            // consumes.
            const uint32_t stride =
                (nbits + kernels::kEncodeBlock - 1) /
                kernels::kEncodeBlock * kernels::kEncodeBlock;
            Matrix rows(nbits, dim);
            Matrix cols(dim, stride);
            for (uint32_t b = 0; b < nbits; ++b) {
                for (uint32_t j = 0; j < dim; ++j) {
                    const float v = static_cast<float>(
                        rng.uniform(-1.0, 1.0));
                    rows.at(b, j) = v;
                    cols.at(j, b) = v;
                }
            }
            const kernels::HashPlanes view{rows.row(0), cols.row(0),
                                           dim, nbits, stride};
            std::vector<float> key(dim);
            rng.fillGaussian(key.data(), dim, 1.0f);

            const size_t nwords = bitWords(nbits);
            // Poisoned output buffers: the kernels must overwrite
            // every word, including zeroing the padding bits.
            std::vector<uint64_t> want(nwords, ~0ull);
            kernels::scalarOps().hashEncode(view, key.data(),
                                            want.data());
            if (nbits & 63u) {
                EXPECT_EQ(want.back() >> (nbits & 63u), 0u);
            }
            for (const auto &[isa, table] : ops) {
                std::vector<uint64_t> got(nwords, ~0ull);
                table->hashEncode(view, key.data(), got.data());
                EXPECT_EQ(got, want)
                    << "isa=" << kernels::isaName(isa)
                    << " dim=" << dim << " nbits=" << nbits;
            }
        }
    }
}

TEST_F(CoreKernelsTest, HashEncoderCrossIsaEquivalence)
{
    for (uint32_t dim : {3u, 16u, 128u}) {
        for (uint32_t nbits : {1u, 31u, 32u, 33u, 512u}) {
            const HashEncoder enc(dim, nbits, /*seed=*/42);
            std::vector<float> key(dim);
            rng.fillGaussian(key.data(), dim, 1.0f);
            const std::vector<float> zero(dim, 0.0f);

            BitSig want, wantZero;
            {
                ForcedIsa guard(kernels::Isa::Scalar);
                ASSERT_TRUE(guard.ok());
                want = enc.encode(key.data());
                wantZero = enc.encode(zero.data());
            }
            EXPECT_EQ(want.size(), nbits);
            for (kernels::Isa isa : runnableIsas()) {
                ForcedIsa guard(isa);
                ASSERT_TRUE(guard.ok());
                // operator== compares widths AND all words, so this
                // also locks the padding-stays-zero contract.
                EXPECT_TRUE(enc.encode(key.data()) == want)
                    << "isa=" << kernels::isaName(isa)
                    << " dim=" << dim << " nbits=" << nbits;
                EXPECT_TRUE(enc.encode(zero.data()) == wantZero)
                    << "zero key, isa=" << kernels::isaName(isa);
            }
        }
    }
}

TEST_F(CoreKernelsTest, EncodeRowsCrossIsaEquivalence)
{
    const uint32_t dim = 24, nbits = 48, n = 17;
    const HashEncoder enc(dim, nbits, 7);
    Matrix keys(n, dim);
    rng.fillGaussian(keys.row(0), keys.size(), 1.0f);

    std::vector<BitSig> want;
    {
        ForcedIsa guard(kernels::Isa::Scalar);
        ASSERT_TRUE(guard.ok());
        want = enc.encodeRows(keys);
    }
    ASSERT_EQ(want.size(), n);
    for (kernels::Isa isa : runnableIsas()) {
        ForcedIsa guard(isa);
        ASSERT_TRUE(guard.ok());
        const auto got = enc.encodeRows(keys);
        ASSERT_EQ(got.size(), n);
        for (uint32_t i = 0; i < n; ++i)
            EXPECT_TRUE(got[i] == want[i])
                << "row " << i << " isa=" << kernels::isaName(isa);
    }
}

// ---------------------------------------------------------------------
// minMaxF32 / rangeBitmap: exact equality across ISAs.
// ---------------------------------------------------------------------

TEST_F(CoreKernelsTest, MinMaxEquivalence)
{
    const auto ops = runnableOps();
    for (size_t n : {1u, 2u, 7u, 8u, 9u, 31u, 64u, 1000u}) {
        std::vector<float> s(n);
        for (auto &v : s)
            v = static_cast<float>(rng.uniform(-100.0, 100.0));
        float wantLo, wantHi;
        kernels::scalarOps().minMaxF32(s.data(), n, &wantLo, &wantHi);
        for (const auto &[isa, table] : ops) {
            float lo = 0, hi = 0;
            table->minMaxF32(s.data(), n, &lo, &hi);
            EXPECT_EQ(lo, wantLo)
                << "isa=" << kernels::isaName(isa) << " n=" << n;
            EXPECT_EQ(hi, wantHi)
                << "isa=" << kernels::isaName(isa) << " n=" << n;
        }
        // All-equal input: lo == hi exactly.
        std::fill(s.begin(), s.end(), 3.25f);
        for (const auto &[isa, table] : ops) {
            float lo = 0, hi = 0;
            table->minMaxF32(s.data(), n, &lo, &hi);
            EXPECT_EQ(lo, 3.25f) << kernels::isaName(isa);
            EXPECT_EQ(hi, 3.25f) << kernels::isaName(isa);
        }
    }
}

TEST_F(CoreKernelsTest, RangeBitmapEquivalence)
{
    const auto ops = runnableOps();
    for (size_t n : {1u, 5u, 8u, 64u, 65u, 333u}) {
        std::vector<float> s(n);
        for (auto &v : s)
            v = static_cast<float>(rng.uniform());
        // Boundary landmines: values exactly at the bucket edges.
        s[0] = 0.25f;
        if (n > 2)
            s[n / 2] = 0.75f;
        const size_t nwords = bitWords(static_cast<uint32_t>(n));
        for (bool closedTop : {false, true}) {
            std::vector<uint64_t> want(nwords, ~0ull);
            kernels::scalarOps().rangeBitmap(s.data(), n, 0.25, 0.75,
                                             closedTop, want.data());
            if (n & 63u) {
                EXPECT_EQ(want.back() >> (n & 63u), 0u);
            }
            for (const auto &[isa, table] : ops) {
                std::vector<uint64_t> got(nwords, ~0ull);
                table->rangeBitmap(s.data(), n, 0.25, 0.75, closedTop,
                                   got.data());
                EXPECT_EQ(got, want)
                    << "isa=" << kernels::isaName(isa) << " n=" << n
                    << " closedTop=" << closedTop;
            }
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end: WiCSum selection and HCTable clustering are invariant
// under the active ISA.
// ---------------------------------------------------------------------

TEST_F(CoreKernelsTest, WicsumCrossIsaEquivalence)
{
    for (size_t n : {1u, 17u, 256u, 4096u}) {
        std::vector<float> scores(n);
        std::vector<uint32_t> counts(n);
        for (size_t i = 0; i < n; ++i) {
            scores[i] = static_cast<float>(rng.uniform());
            counts[i] =
                1 + static_cast<uint32_t>(rng.uniformInt(32));
        }
        WicsumResult want;
        {
            ForcedIsa guard(kernels::Isa::Scalar);
            ASSERT_TRUE(guard.ok());
            want = wicsumSelectEarlyExit(scores, counts, 0.3f, 16);
        }
        for (kernels::Isa isa : runnableIsas()) {
            ForcedIsa guard(isa);
            ASSERT_TRUE(guard.ok());
            const WicsumResult got =
                wicsumSelectEarlyExit(scores, counts, 0.3f, 16);
            EXPECT_EQ(got.selected, want.selected)
                << "isa=" << kernels::isaName(isa) << " n=" << n;
            EXPECT_EQ(got.scanned, want.scanned);
            EXPECT_EQ(got.bucketsVisited, want.bucketsVisited);
        }
    }
    // Degenerate row: all scores equal (hi <= lo fallback path).
    const std::vector<float> flat(64, 0.5f);
    const std::vector<uint32_t> ones(64, 1);
    WicsumResult want;
    {
        ForcedIsa guard(kernels::Isa::Scalar);
        ASSERT_TRUE(guard.ok());
        want = wicsumSelectEarlyExit(flat, ones, 0.3f, 16);
    }
    for (kernels::Isa isa : runnableIsas()) {
        ForcedIsa guard(isa);
        ASSERT_TRUE(guard.ok());
        const WicsumResult got =
            wicsumSelectEarlyExit(flat, ones, 0.3f, 16);
        EXPECT_EQ(got.selected, want.selected);
        EXPECT_EQ(got.bucketsVisited, want.bucketsVisited);
    }
}

TEST_F(CoreKernelsTest, HCTableCrossIsaEquivalence)
{
    const uint32_t dim = 16, nbits = 32, n = 200;
    std::vector<float> keys(static_cast<size_t>(n) * dim);
    rng.fillGaussian(keys.data(), keys.size(), 1.0f);

    auto run = [&](kernels::Isa isa, std::vector<uint32_t> &assign) {
        ForcedIsa guard(isa);
        ASSERT_TRUE(guard.ok());
        const HashEncoder enc(dim, nbits, 9);
        HCTable tab(dim, nbits, 7);
        for (uint32_t t = 0; t < n; ++t) {
            const float *key = keys.data() +
                               static_cast<size_t>(t) * dim;
            assign.push_back(tab.insert(t, key, enc.encode(key)));
        }
    };
    std::vector<uint32_t> want;
    run(kernels::Isa::Scalar, want);
    ASSERT_EQ(want.size(), n);
    for (kernels::Isa isa : runnableIsas()) {
        std::vector<uint32_t> got;
        run(isa, got);
        EXPECT_EQ(got, want) << "isa=" << kernels::isaName(isa);
    }
}

// ---------------------------------------------------------------------
// HCU scan: every ISA == the naive first-minimum loop.
// ---------------------------------------------------------------------

/** Bit-by-bit distance of every table row to @p sig. */
std::vector<uint32_t>
naiveDistances(const std::vector<uint64_t> &table, size_t nwords,
               const std::vector<uint64_t> &sig, uint32_t nbits)
{
    std::vector<uint32_t> dist;
    for (size_t at = 0; at < table.size(); at += nwords)
        dist.push_back(naiveHamming(
            std::vector<uint64_t>(table.begin() + at,
                                  table.begin() + at + nwords),
            sig, nbits));
    return dist;
}

/** The first index at minimal distance <= limit, or dist.size(). */
uint32_t
firstNearest(const std::vector<uint32_t> &dist, uint32_t limit)
{
    const auto n = static_cast<uint32_t>(dist.size());
    uint32_t best = n;
    for (uint32_t c = 0; c < n; ++c)
        if (dist[c] <= limit && (best == n || dist[c] < dist[best]))
            best = c;
    return best;
}

TEST_F(CoreKernelsTest, HammingNearestEquivalence)
{
    const auto ops = runnableOps();
    // Widths with and without padding bits, one to three words.
    for (const uint32_t nbits : {32u, 64u, 100u, 128u, 150u}) {
        const size_t nwords = bitWords(nbits);
        const uint64_t pad =
            (nbits & 63u) ? (1ull << (nbits & 63u)) - 1 : ~0ull;
        auto randomSig = [&] {
            std::vector<uint64_t> v(nwords);
            for (auto &w : v)
                w = rng.nextU64();
            v.back() &= pad;
            return v;
        };
        for (uint32_t count = 0; count <= 300; ++count) {
            const std::vector<uint64_t> sig = randomSig();
            // Rows near the query (a few flipped bits, so minimal
            // distances repeat and ties are common) and unrelated
            // ones.
            std::vector<uint64_t> table;
            for (uint32_t c = 0; c < count; ++c) {
                std::vector<uint64_t> row = sig;
                if (rng.uniformInt(4) == 0) {
                    row = randomSig();
                } else {
                    const uint64_t flips = 1 + rng.uniformInt(6);
                    for (uint64_t f = 0; f < flips; ++f) {
                        const uint64_t b = rng.uniformInt(nbits);
                        row[b >> 6] ^= 1ull << (b & 63u);
                    }
                }
                table.insert(table.end(), row.begin(), row.end());
            }
            const auto dist = naiveDistances(table, nwords, sig, nbits);
            for (const uint32_t limit : {0u, 2u, 7u, nbits}) {
                const uint32_t want = firstNearest(dist, limit);
                for (const auto &[isa, t] : ops)
                    ASSERT_EQ(t->hammingNearest(table.data(), count,
                                                nwords, sig.data(), limit),
                              want)
                        << "isa=" << kernels::isaName(isa)
                        << " nbits=" << nbits << " count=" << count
                        << " limit=" << limit;
            }

            if (count == 0)
                continue;
            // Exact ties: two copies of the query at random rows, the
            // rest one bit away. The lower copy must win, at every
            // limit; at limit 0 with the copies removed, nothing is
            // within the limit.
            std::vector<uint64_t> ties;
            for (uint32_t c = 0; c < count; ++c) {
                std::vector<uint64_t> row = sig;
                row[0] ^= 1ull << (c % (nbits < 64 ? nbits : 64));
                ties.insert(ties.end(), row.begin(), row.end());
            }
            ASSERT_EQ(firstNearest(naiveDistances(ties, nwords, sig, nbits),
                                   0),
                      count);
            const uint32_t i0 = static_cast<uint32_t>(rng.uniformInt(count));
            const uint32_t i1 = static_cast<uint32_t>(rng.uniformInt(count));
            for (const uint32_t i : {i0, i1})
                std::copy(sig.begin(), sig.end(),
                          ties.begin() + i * nwords);
            for (const auto &[isa, t] : ops) {
                for (const uint32_t limit : {0u, 1u, nbits})
                    ASSERT_EQ(t->hammingNearest(ties.data(), count, nwords,
                                                sig.data(), limit),
                              std::min(i0, i1))
                        << "isa=" << kernels::isaName(isa)
                        << " nbits=" << nbits << " count=" << count;
            }
            // A zero query against rows with every bit set: the
            // ragged last block's missing rows (zeros to a masked
            // load) must not win, so no row is within nbits - 1.
            std::vector<uint64_t> far(count * nwords, ~0ull);
            for (uint32_t c = 0; c < count; ++c)
                far[c * nwords + nwords - 1] &= pad;
            const std::vector<uint64_t> zero(nwords, 0ull);
            for (const auto &[isa, t] : ops) {
                EXPECT_EQ(t->hammingNearest(far.data(), count, nwords,
                                            zero.data(), nbits - 1),
                          count)
                    << "isa=" << kernels::isaName(isa);
                EXPECT_EQ(t->hammingNearest(far.data(), count, nwords,
                                            zero.data(), nbits),
                          0u)
                    << "isa=" << kernels::isaName(isa);
            }
            // Every row one bit away: a tie across the whole table
            // resolves to row 0 once the limit admits it.
            for (uint32_t c = 0; c < count; ++c) {
                std::copy(sig.begin(), sig.end(), ties.begin() + c * nwords);
                ties[c * nwords] ^= 1ull;
            }
            for (const auto &[isa, t] : ops) {
                EXPECT_EQ(t->hammingNearest(ties.data(), count, nwords,
                                            sig.data(), 0),
                          count)
                    << "isa=" << kernels::isaName(isa);
                EXPECT_EQ(t->hammingNearest(ties.data(), count, nwords,
                                            sig.data(), 1),
                          0u)
                    << "isa=" << kernels::isaName(isa);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Dense kernels (dot, GEMM, gather): every ISA == the tensor scalar
// reference of the canonical 8-lane order, bit for bit.
// ---------------------------------------------------------------------

const uint32_t kDenseWidths[] = {0,  1,  7,   8,   9,   15,  16,
                                 17, 31, 128, 255, 256, 1027};

/** Value families the dense kernels must agree on. */
enum class Fill
{
    Gaussian,
    Specials,     // ±0, denormals, ±inf, NaN, huge and tiny values.
    Denormals,    // Finite: denormal products and sums next to ±1.
    Cancelling,   // Finite ±1e20-scale terms next to ±1: rounding-
                  // sensitive sums whose order decides the result.
    SignedZeros,  // Only ±0: the result's sign of zero must match.
};

const Fill kFills[] = {Fill::Gaussian, Fill::Specials, Fill::Denormals,
                       Fill::Cancelling, Fill::SignedZeros};

std::vector<float>
denseValues(Rng &rng, size_t n, Fill fill)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {
        0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(), 1e-39f, -3e-39f,
        std::numeric_limits<float>::min(), inf, -inf,
        std::numeric_limits<float>::quiet_NaN(), 1.0f, -1.0f,
        3.0e38f, -3.0e38f};
    const float denormals[] = {
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(), 1e-39f, -3e-39f,
        std::numeric_limits<float>::min(), 0.0f, -0.0f, 1.0f, -0.5f};
    const float cancelling[] = {1e20f, -1e20f, 1.0f, -1.0f, 3.0f,
                                1e-3f, 7e19f, -7e19f};
    std::vector<float> v(n);
    for (float &x : v) {
        switch (fill) {
          case Fill::Gaussian:
            x = static_cast<float>(rng.gaussian());
            break;
          case Fill::Specials:
            x = specials[rng.uniformInt(std::size(specials))];
            break;
          case Fill::Denormals:
            x = denormals[rng.uniformInt(std::size(denormals))];
            break;
          case Fill::Cancelling:
            x = cancelling[rng.uniformInt(std::size(cancelling))];
            break;
          case Fill::SignedZeros:
            x = rng.uniformInt(2) ? 0.0f : -0.0f;
            break;
        }
    }
    return v;
}

/** Bit-equal, or both NaN (NaN payloads are not part of the contract:
 *  IEEE leaves the choice between two NaN operands open). */
bool
sameFloat(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    uint32_t ua, ub;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return ua == ub;
}

TEST_F(CoreKernelsTest, DenseDotEquivalence)
{
    const auto ops = runnableOps();
    for (Fill fill : kFills) {
        for (uint32_t n : kDenseWidths) {
            for (int rep = 0; rep < 8; ++rep) {
                const auto a = denseValues(rng, n, fill);
                const auto b = denseValues(rng, n, fill);
                const float want =
                    detail::dotF32Scalar(a.data(), b.data(), n);
                for (const auto &[isa, table] : ops) {
                    const float got = table->dotF32(a.data(), b.data(), n);
                    EXPECT_TRUE(sameFloat(got, want))
                        << "isa=" << kernels::isaName(isa) << " n=" << n
                        << " fill=" << static_cast<int>(fill) << " got "
                        << got << " want " << want;
                }
            }
        }
    }
}

TEST_F(CoreKernelsTest, DenseGemmRowsEquivalence)
{
    const auto ops = runnableOps();
    const float poison = -12345.0f;
    for (Fill fill : kFills) {
        for (uint32_t k : kDenseWidths) {
            for (uint32_t rows : {1u, 2u, 3u, 5u, 16u}) {
                for (uint32_t cols = 1; cols <= 9; ++cols) {
                    // Padded strides: the kernel must honour lda/ldb/ldo
                    // and leave the padding of `out` untouched.
                    const size_t lda = k + 3, ldb = k + 5, ldo = cols + 2;
                    const auto a = denseValues(rng, rows * lda, fill);
                    const auto b = denseValues(rng, cols * ldb, fill);
                    std::vector<float> want(rows * ldo, poison);
                    detail::gemmRowsF32Scalar(a.data(), lda, rows,
                                              b.data(), ldb, cols, k,
                                              want.data(), ldo);
                    for (uint32_t i = 0; i < rows; ++i)
                        for (uint32_t j = 0; j < cols; ++j)
                            ASSERT_TRUE(sameFloat(
                                want[i * ldo + j],
                                detail::dotF32Scalar(a.data() + i * lda,
                                                     b.data() + j * ldb,
                                                     k)));
                    for (const auto &[isa, table] : ops) {
                        std::vector<float> got(rows * ldo, poison);
                        table->gemmRowsF32(a.data(), lda, rows, b.data(),
                                           ldb, cols, k, got.data(), ldo);
                        for (size_t e = 0; e < got.size(); ++e)
                            ASSERT_TRUE(sameFloat(got[e], want[e]))
                                << "isa=" << kernels::isaName(isa)
                                << " k=" << k << " rows=" << rows
                                << " cols=" << cols << " elem=" << e;
                    }
                }
            }
        }
    }
}

TEST_F(CoreKernelsTest, DenseGemmRowsMaxEquivalence)
{
    const auto ops = runnableOps();
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // Starting maxima: the -inf ReSV starts from, finite values, ±0
    // (ties against ±0 scores keep raw) and NaN (which sticks).
    const float starts[] = {-inf, -inf, 1.5f, -2.0f, 0.0f, -0.0f, nan,
                            1e30f, -3e-39f};
    const float sentinel = -4242.0f;
    for (Fill fill : kFills) {
        for (uint32_t k : kDenseWidths) {
            for (uint32_t rows : {0u, 1u, 3u, 16u, 25u}) {
                for (uint32_t cols : {0u, 1u, 3u, 4u, 5u, 9u, 37u}) {
                    // Padded strides, as a query head inside a wider
                    // row and keys at the cache stride.
                    const size_t lda = k + 3, ldb = k + 5;
                    const auto a = denseValues(rng, rows * lda, fill);
                    const auto b = denseValues(rng, cols * ldb, fill);
                    std::vector<float> start(cols + 1, sentinel);
                    for (uint32_t j = 0; j < cols; ++j)
                        start[j] = starts[rng.uniformInt(std::size(starts))];
                    for (const float scale : {0.25f, 0.3779645f, -1.5f}) {
                        std::vector<float> want = start;
                        detail::gemmRowsMaxF32Scalar(a.data(), lda, rows,
                                                     b.data(), ldb, cols, k,
                                                     scale, want.data());
                        // The reference is std::max over the rows in
                        // order of each scaled canonical dot.
                        for (uint32_t j = 0; j < cols; ++j) {
                            float m = start[j];
                            for (uint32_t i = 0; i < rows; ++i)
                                m = std::max(
                                    m, detail::dotF32Scalar(a.data() + i * lda,
                                                            b.data() + j * ldb,
                                                            k) *
                                           scale);
                            ASSERT_TRUE(sameFloat(want[j], m)) << "j=" << j;
                        }
                        ASSERT_EQ(want[cols], sentinel);
                        for (const auto &[isa, table] : ops) {
                            std::vector<float> got = start;
                            table->gemmRowsMaxF32(a.data(), lda, rows,
                                                  b.data(), ldb, cols, k,
                                                  scale, got.data());
                            for (uint32_t j = 0; j < cols; ++j)
                                ASSERT_TRUE(sameFloat(got[j], want[j]))
                                    << "isa=" << kernels::isaName(isa)
                                    << " k=" << k << " rows=" << rows
                                    << " cols=" << cols << " scale="
                                    << scale << " fill="
                                    << static_cast<int>(fill)
                                    << " j=" << j;
                            ASSERT_EQ(got[cols], sentinel)
                                << "isa=" << kernels::isaName(isa)
                                << " wrote past cols";
                        }
                    }
                }
            }
        }
    }
}

TEST_F(CoreKernelsTest, DenseDotGatherEquivalence)
{
    const auto ops = runnableOps();
    const uint32_t nKeys = 40;
    for (Fill fill : kFills) {
        for (uint32_t n : kDenseWidths) {
            // Keys sit at a column offset inside wider rows, as one
            // head's slice of a KV cache row does.
            const size_t offset = 3, stride = n + 11;
            const auto keys = denseValues(rng, nKeys * stride, fill);
            const auto q = denseValues(rng, n, fill);
            for (size_t count : {size_t(0), size_t(1), size_t(3),
                                 size_t(4), size_t(5), size_t(9),
                                 size_t(37)}) {
                std::vector<uint32_t> idx(count);
                for (uint32_t &i : idx)  // Repeats and any order.
                    i = static_cast<uint32_t>(rng.uniformInt(nKeys));
                std::vector<float> want(count + 1, -1.0f);
                detail::dotGatherF32Scalar(q.data(), keys.data() + offset,
                                           stride, idx.data(), count, n,
                                           want.data());
                for (size_t i = 0; i < count; ++i)
                    ASSERT_TRUE(sameFloat(
                        want[i],
                        detail::dotF32Scalar(q.data(),
                                             keys.data() + offset +
                                                 idx[i] * stride,
                                             n)));
                for (const auto &[isa, table] : ops) {
                    std::vector<float> got(count + 1, -1.0f);
                    table->dotGatherF32(q.data(), keys.data() + offset,
                                        stride, idx.data(), count, n,
                                        got.data());
                    for (size_t i = 0; i <= count; ++i)
                        ASSERT_TRUE(sameFloat(got[i], want[i]))
                            << "isa=" << kernels::isaName(isa)
                            << " n=" << n << " count=" << count
                            << " i=" << i;
                }
            }
        }
    }
}

TEST_F(CoreKernelsTest, DenseAxpyGatherEquivalence)
{
    const auto ops = runnableOps();
    const uint32_t nKeys = 40;
    const float sentinel = -4242.0f;
    for (Fill fill : kFills) {
        for (uint32_t n : kDenseWidths) {
            // Value rows sit at a column offset inside wider rows, as
            // one head's slice of a KV cache row does.
            const size_t offset = 3, stride = n + 11;
            const auto values = denseValues(rng, nKeys * stride, fill);
            for (size_t count : {size_t(0), size_t(1), size_t(3),
                                 size_t(4), size_t(5), size_t(9),
                                 size_t(37)}) {
                std::vector<uint32_t> idx(count);
                for (uint32_t &i : idx)  // Repeats and any order.
                    i = static_cast<uint32_t>(rng.uniformInt(nKeys));
                auto p = denseValues(rng, count, fill);
                // Exact zeros take the skip path; -0 must skip too.
                for (size_t i = 0; i < count; i += 3)
                    p[i] = (i % 2) ? -0.0f : 0.0f;
                // A nonzero start: the kernel accumulates into out.
                std::vector<float> start = denseValues(rng, n, fill);
                start.push_back(sentinel);

                std::vector<float> want = start;
                detail::axpyGatherF32Scalar(p.data(),
                                            values.data() + offset, stride,
                                            idx.data(), count, n,
                                            want.data());
                // The reference is the sequential per-element sum.
                for (uint32_t d = 0; d < n; ++d) {
                    float acc = start[d];
                    for (size_t i = 0; i < count; ++i)
                        if (p[i] != 0.0f)
                            acc += p[i] *
                                values[offset + idx[i] * stride + d];
                    ASSERT_TRUE(sameFloat(want[d], acc)) << "d=" << d;
                }
                ASSERT_EQ(want[n], sentinel);
                for (const auto &[isa, table] : ops) {
                    std::vector<float> got = start;
                    table->axpyGatherF32(p.data(), values.data() + offset,
                                         stride, idx.data(), count, n,
                                         got.data());
                    for (size_t d = 0; d < n; ++d)
                        ASSERT_TRUE(sameFloat(got[d], want[d]))
                            << "isa=" << kernels::isaName(isa)
                            << " n=" << n << " count=" << count
                            << " fill=" << static_cast<int>(fill)
                            << " d=" << d;
                    ASSERT_EQ(got[n], sentinel)
                        << "isa=" << kernels::isaName(isa) << " n=" << n
                        << " wrote past the row";
                }
            }
        }
    }
}

TEST_F(CoreKernelsTest, DenseHooksFollowTheSelection)
{
    const auto a = denseValues(rng, 1027, Fill::Gaussian);
    const auto b = denseValues(rng, 1027, Fill::Gaussian);
    const float want = detail::dotF32Scalar(a.data(), b.data(), 1027);
    for (kernels::Isa isa : runnableIsas()) {
        ForcedIsa guard(isa);
        ASSERT_TRUE(guard.ok());
        EXPECT_EQ(detail::dotF32Hook.load(), kernels::active().dotF32);
        EXPECT_EQ(detail::gemmRowsF32Hook.load(),
                  kernels::active().gemmRowsF32);
        EXPECT_EQ(detail::gemmRowsMaxF32Hook.load(),
                  kernels::active().gemmRowsMaxF32);
        EXPECT_EQ(detail::dotGatherF32Hook.load(),
                  kernels::active().dotGatherF32);
        EXPECT_EQ(detail::axpyGatherF32Hook.load(),
                  kernels::active().axpyGatherF32);
        EXPECT_TRUE(sameFloat(dot(a.data(), b.data(), 1027), want))
            << kernels::isaName(isa);
    }
}

// ---------------------------------------------------------------------
// attentionForward on the dispatched kernels == the per-(head, row)
// loop on the scalar references, bit for bit, under every ISA.
// ---------------------------------------------------------------------

/**
 * Reference attention: for every query head, member and row, build
 * the attended list (selected past, then the causal block prefix),
 * score it with the scalar canonical dot, softmax, and add p·V one
 * key at a time in the sequential order, skipping p == 0.
 */
Matrix
referenceAttention(const ModelConfig &cfg, const Matrix &q,
                   const std::vector<AttentionMember> &members)
{
    const uint32_t head_dim = cfg.headDim();
    Matrix out(q.rows(), cfg.dModel);
    std::vector<uint32_t> attended;
    std::vector<float> scores;
    for (uint32_t h = 0; h < cfg.nHeads; ++h) {
        const uint32_t kv_head = h / cfg.groupSize();
        const uint32_t q_off = h * head_dim;
        const uint32_t kv_off = kv_head * head_dim;
        uint32_t row = 0;
        for (const AttentionMember &m : members) {
            const HeadSelection *hsel =
                m.sel ? &m.sel->kvHeads[kv_head] : nullptr;
            for (uint32_t t = 0; t < m.rows; ++t, ++row) {
                attended.clear();
                if (!hsel || hsel->selectAll) {
                    for (uint32_t i = 0; i < m.pastLen; ++i)
                        attended.push_back(i);
                } else {
                    attended = hsel->indices;
                }
                for (uint32_t i = 0; i <= t; ++i)
                    attended.push_back(m.pastLen + i);
                scores.resize(attended.size());
                const float scale = 1.0f / std::sqrt((float)head_dim);
                for (size_t i = 0; i < attended.size(); ++i)
                    scores[i] = detail::dotF32Scalar(
                                    q.row(row) + q_off,
                                    m.kv->keys.row(attended[i]) + kv_off,
                                    head_dim) *
                        scale;
                softmax(scores.data(),
                        static_cast<uint32_t>(scores.size()));
                float *ov = out.row(row) + q_off;
                for (size_t i = 0; i < attended.size(); ++i) {
                    const float p = scores[i];
                    if (p == 0.0f)
                        continue;
                    const float *vvec =
                        m.kv->values.row(attended[i]) + kv_off;
                    for (uint32_t d = 0; d < head_dim; ++d)
                        ov[d] += p * vvec[d];
                }
            }
        }
    }
    return out;
}

TEST_F(CoreKernelsTest, AttentionMatchesPerHeadRowReference)
{
    // head_dim 16 (tiny), 32, 10 (a masked second accumulator) and
    // 6 (one masked accumulator); group sizes 2 and 4.
    std::vector<ModelConfig> geometries{ModelConfig::tiny(),
                                        ModelConfig::smallVideo()};
    ModelConfig ragged = ModelConfig::tiny();
    ragged.dModel = 60;
    ragged.nHeads = 6;
    ragged.nKvHeads = 3;
    geometries.push_back(ragged);
    ModelConfig narrow = ModelConfig::tiny();
    narrow.dModel = 24;
    narrow.nHeads = 4;
    narrow.nKvHeads = 1;
    geometries.push_back(narrow);

    for (const ModelConfig &cfg : geometries) {
        const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
        // (pastLen, rows) per member: ragged blocks, a member with
        // no past, and an empty block between the others.
        const std::pair<uint32_t, uint32_t> shapes[] = {
            {9, 3}, {0, 4}, {0, 0}, {23, 1}, {5, 6}, {14, 2}};
        std::vector<LayerKV> caches(std::size(shapes));
        std::vector<LayerSelection> sels(std::size(shapes));
        std::vector<AttentionMember> members;
        uint32_t rows = 0;
        for (size_t i = 0; i < std::size(shapes); ++i) {
            const auto [past, block] = shapes[i];
            if (block == 0) {
                members.push_back({nullptr, past, nullptr, 0});
                continue;
            }
            LayerKV &kv = caches[i];
            kv.keys = Matrix(past + block, kv_dim);
            kv.values = Matrix(past + block, kv_dim);
            rng.fillGaussian(kv.keys.raw(), kv.keys.size(), 1.0f);
            rng.fillGaussian(kv.values.raw(), kv.values.size(), 1.0f);
            // Member 0 and the no-past member attend the full cache
            // through a null selection; the others mix selectAll,
            // empty and explicit per-head lists.
            const LayerSelection *sel = nullptr;
            if (past > 0 && i != 0) {
                LayerSelection &s = sels[i];
                s.kvHeads.resize(cfg.nKvHeads);
                for (uint32_t h = 0; h < cfg.nKvHeads; ++h) {
                    HeadSelection &hs = s.kvHeads[h];
                    const uint32_t mode = (h + i) % 3;
                    hs.selectAll = mode == 0;
                    if (mode == 2)
                        for (uint32_t t = 0; t < past; ++t)
                            if (rng.uniformInt(2))
                                hs.indices.push_back(t);
                }
                sel = &s;
            }
            members.push_back({&kv, past, sel, block});
            rows += block;
        }
        Matrix q(rows, cfg.nHeads * cfg.headDim());
        rng.fillGaussian(q.raw(), q.size(), 1.0f);

        const Matrix want = referenceAttention(cfg, q, members);
        for (kernels::Isa isa : runnableIsas()) {
            ForcedIsa guard(isa);
            ASSERT_TRUE(guard.ok());
            Matrix got;
            attentionForward(cfg, q, members, got);
            ASSERT_EQ(got.rows(), want.rows());
            ASSERT_EQ(got.cols(), want.cols());
            for (size_t e = 0; e < got.size(); ++e)
                ASSERT_TRUE(sameFloat(got.raw()[e], want.raw()[e]))
                    << "isa=" << kernels::isaName(isa) << " cfg="
                    << cfg.name << " head_dim=" << cfg.headDim()
                    << " elem=" << e;
        }
    }
}

/** Tokens and blob of one tiny ReSV session under the active ISA. */
std::pair<std::vector<uint32_t>, std::vector<uint8_t>>
resvSessionRun()
{
    const ModelConfig model = ModelConfig::tiny();
    ResvPolicy policy(model, ResvConfig{});
    StreamingSession s(model, &policy, 13);
    s.begin("isa-identity", VideoConfig{}, 5);
    for (int f = 0; f < 6; ++f)
        s.feedFrame();
    s.feedQuestion(12);
    s.generate(10);
    for (int f = 0; f < 3; ++f)
        s.feedFrame();
    s.feedQuestion(7);
    s.generate(6);
    return {s.snapshot().generated, s.serialize()};
}

TEST(CoreKernelsSessionTest, ScalarAndAvx2SessionsAreByteIdentical)
{
    if (!kernels::isaAvailable(kernels::Isa::Avx2))
        GTEST_SKIP() << "AVX2 not compiled or not supported here";
    std::pair<std::vector<uint32_t>, std::vector<uint8_t>> scalar, avx2;
    {
        ForcedIsa guard(kernels::Isa::Scalar);
        ASSERT_TRUE(guard.ok());
        scalar = resvSessionRun();
    }
    {
        ForcedIsa guard(kernels::Isa::Avx2);
        ASSERT_TRUE(guard.ok());
        avx2 = resvSessionRun();
    }
    ASSERT_EQ(scalar.first.size(), 16u);
    EXPECT_EQ(avx2.first, scalar.first);
    EXPECT_EQ(avx2.second, scalar.second);
}

// ---------------------------------------------------------------------
// ReSV retrieval on the contiguous HC table, the fused score-max and
// the bitmap selection == the per-cluster table, packed GEMM, scalar
// max-pool and sort it replaced, under every ISA.
// ---------------------------------------------------------------------

/** One per-cluster HC table, with the pointer-scan insert. */
struct LegacyTable
{
    struct Row
    {
        BitSig signature;
        std::vector<float> centroid;
        std::vector<uint32_t> tokenIdx;
        std::vector<uint32_t> bitOnes;
    };

    uint32_t keyDim, nBits, thHd;
    uint64_t comparisons = 0;
    std::vector<Row> rows;

    uint32_t
    insert(uint32_t token_idx, const float *key, const BitSig &sig)
    {
        const auto hamming = kernels::active().hammingWords;
        uint32_t best = std::numeric_limits<uint32_t>::max();
        uint32_t best_dist = thHd + 1;
        for (uint32_t c = 0; c < rows.size(); ++c) {
            const uint32_t d = hamming(rows[c].signature.raw().data(),
                                       sig.raw().data(), sig.raw().size());
            ++comparisons;
            if (d < best_dist) {
                best_dist = d;
                best = c;
            }
        }
        if (best == std::numeric_limits<uint32_t>::max()) {
            Row row{sig, std::vector<float>(key, key + keyDim), {token_idx},
                    std::vector<uint32_t>(nBits, 0)};
            for (uint32_t b = 0; b < nBits; ++b)
                row.bitOnes[b] = sig.get(b) ? 1 : 0;
            rows.push_back(std::move(row));
            return static_cast<uint32_t>(rows.size()) - 1;
        }
        Row &row = rows[best];
        const double n = static_cast<double>(row.tokenIdx.size());
        for (uint32_t d = 0; d < keyDim; ++d)
            row.centroid[d] = static_cast<float>(
                (row.centroid[d] * n + key[d]) / (n + 1.0));
        for (uint32_t b = 0; b < nBits; ++b)
            row.bitOnes[b] += sig.get(b) ? 1 : 0;
        row.tokenIdx.push_back(token_idx);
        const auto size = static_cast<uint32_t>(row.tokenIdx.size());
        for (uint32_t b = 0; b < nBits; ++b)
            row.signature.set(b, 2 * row.bitOnes[b] > size);
        return best;
    }
};

/**
 * ReSV with the per-cluster table: centroids packed per call, one
 * gemmRows() score matrix per query head, a scalar max-pool over it,
 * WiCSum, then std::sort of the selected tokens.
 */
class LegacyResv
{
  public:
    LegacyResv(const ModelConfig &model_cfg, const ResvConfig &config)
        : model(model_cfg), cfg(config),
          encoder(model_cfg.headDim(), config.nHp, config.seed)
    {
        for (uint32_t i = 0; i < model.nLayers * model.nKvHeads; ++i)
            tables.push_back({model.headDim(), cfg.nHp, cfg.thHd, 0, {}});
    }

    void
    onBlockAppended(uint32_t layer, const KVCache &cache,
                    uint32_t block_start, uint32_t block_len)
    {
        if (!cfg.clustering)
            return;
        const Matrix &keys = cache.layer(layer).keys;
        for (uint32_t h = 0; h < model.nKvHeads; ++h) {
            for (uint32_t t = 0; t < block_len; ++t) {
                const float *key =
                    keys.row(block_start + t) + h * model.headDim();
                tables[layer * model.nKvHeads + h].insert(
                    block_start + t, key, encoder.encode(key));
            }
        }
    }

    LayerSelection
    select(uint32_t layer, const Matrix &q, const KVCache &cache,
           uint32_t past_len, TokenStage stage)
    {
        ResvCounters &ctr =
            stage == TokenStage::VideoFrame ? frame : text;
        ++ctr.selectCalls;
        if (past_len == 0)
            return LayerSelection::full(model.nKvHeads);
        ctr.pastTokens += static_cast<uint64_t>(past_len) * model.nKvHeads;
        const uint32_t head_dim = model.headDim();
        const uint32_t group = model.groupSize();
        const float scale = 1.0f / std::sqrt((float)head_dim);
        const Matrix &keys = cache.layer(layer).keys;
        const uint32_t block = q.rows();
        LayerSelection sel;
        sel.kvHeads.resize(model.nKvHeads);
        std::vector<float> packed, dots, raw;
        std::vector<uint32_t> counts;
        for (uint32_t h = 0; h < model.nKvHeads; ++h) {
            const auto &rows = tables[layer * model.nKvHeads + h].rows;
            HeadSelection &hsel = sel.kvHeads[h];
            hsel.selectAll = false;
            const float *cand = nullptr;
            size_t cand_stride = head_dim;
            uint32_t n_cand = 0;
            if (cfg.clustering) {
                n_cand = static_cast<uint32_t>(rows.size());
                packed.resize(static_cast<size_t>(n_cand) * head_dim);
                counts.resize(n_cand);
                for (uint32_t c = 0; c < n_cand; ++c) {
                    std::copy(rows[c].centroid.begin(),
                              rows[c].centroid.end(),
                              packed.begin() +
                                  static_cast<size_t>(c) * head_dim);
                    counts[c] =
                        static_cast<uint32_t>(rows[c].tokenIdx.size());
                }
                cand = packed.data();
            } else {
                n_cand = past_len;
                cand = keys.raw() + h * head_dim;
                cand_stride = keys.cols();
                counts.assign(past_len, 1);
            }
            if (n_cand == 0)
                continue;
            raw.assign(n_cand, -std::numeric_limits<float>::infinity());
            dots.resize(static_cast<size_t>(block) * n_cand);
            for (uint32_t g = 0; g < group; ++g) {
                const uint32_t q_off = (h * group + g) * head_dim;
                gemmRows(q.raw() + q_off, q.cols(), block, cand,
                         cand_stride, n_cand, head_dim, dots.data(), n_cand);
                for (uint32_t t = 0; t < block; ++t)
                    for (uint32_t c = 0; c < n_cand; ++c)
                        raw[c] = std::max(
                            raw[c],
                            dots[static_cast<size_t>(t) * n_cand + c] *
                                scale);
            }
            ctr.predictionMacs += static_cast<uint64_t>(n_cand) *
                head_dim * group * block;
            ctr.clustersScanned += n_cand;
            const WicsumResult picked = wicsumSelectEarlyExit(
                expNormalize(raw), counts, cfg.thrWics, cfg.nBuckets);
            ctr.wicsumScanned += picked.scanned;
            ctr.clustersSelected += picked.selected.size();
            if (cfg.clustering) {
                for (uint32_t c : picked.selected)
                    for (uint32_t token : rows[c].tokenIdx)
                        if (token < past_len)
                            hsel.indices.push_back(token);
            } else {
                hsel.indices = picked.selected;
            }
            std::sort(hsel.indices.begin(), hsel.indices.end());
            ctr.tokensSelected += hsel.indices.size();
        }
        return sel;
    }

    ModelConfig model;
    ResvConfig cfg;
    HashEncoder encoder;
    std::vector<LegacyTable> tables;
    ResvCounters frame, text;
};

/**
 * Runs ResvPolicy and LegacyResv side by side on one session: after
 * every appended block each table must hold the same clusters (so
 * every token joined the same cluster), and every selection must be
 * equal. The session attends ResvPolicy's selection.
 */
class ResvAgainstLegacy final : public SelectionPolicy
{
  public:
    ResvAgainstLegacy(const ModelConfig &model_cfg, const ResvConfig &config)
        : model(model_cfg), fresh(model_cfg, config), legacy(model_cfg, config)
    {
    }

    void
    onBlockAppended(uint32_t layer, const KVCache &cache,
                    uint32_t block_start, uint32_t block_len,
                    TokenStage stage) override
    {
        fresh.onBlockAppended(layer, cache, block_start, block_len, stage);
        legacy.onBlockAppended(layer, cache, block_start, block_len);
        for (uint32_t h = 0; h < model.nKvHeads; ++h) {
            const HCTable &tab = fresh.table(layer, h);
            const LegacyTable &ref =
                legacy.tables[layer * model.nKvHeads + h];
            ASSERT_EQ(tab.clusterCount(), ref.rows.size());
            EXPECT_EQ(tab.hammingComparisons(), ref.comparisons);
            for (uint32_t c = 0; c < tab.clusterCount(); ++c) {
                const auto &row = ref.rows[c];
                ASSERT_EQ(tab.tokens(c), row.tokenIdx)
                    << "layer " << layer << " head " << h << " cluster "
                    << c;
                EXPECT_EQ(std::memcmp(tab.centroid(c), row.centroid.data(),
                                      row.centroid.size() * sizeof(float)),
                          0);
                EXPECT_TRUE(std::equal(row.signature.raw().begin(),
                                       row.signature.raw().end(),
                                       tab.signature(c)));
            }
        }
    }

    LayerSelection
    select(uint32_t layer, const Matrix &q, const KVCache &cache,
           uint32_t past_len, TokenStage stage) override
    {
        LayerSelection got = fresh.select(layer, q, cache, past_len, stage);
        const LayerSelection want =
            legacy.select(layer, q, cache, past_len, stage);
        EXPECT_EQ(got.kvHeads.size(), want.kvHeads.size());
        for (size_t h = 0; h < want.kvHeads.size(); ++h) {
            EXPECT_EQ(got.kvHeads[h].selectAll, want.kvHeads[h].selectAll);
            EXPECT_EQ(got.kvHeads[h].indices, want.kvHeads[h].indices)
                << "layer " << layer << " head " << h;
            partial += !want.kvHeads[h].selectAll &&
                want.kvHeads[h].indices.size() < past_len;
        }
        ++selects;
        return got;
    }

    void
    reset() override
    {
        fresh.reset();
        legacy = LegacyResv(legacy.model, legacy.cfg);
    }

    ModelConfig model;
    ResvPolicy fresh;
    LegacyResv legacy;
    uint32_t selects = 0;
    uint32_t partial = 0;  //!< Head selections that pruned something.
};

void
expectSameCounters(const ResvCounters &got, const ResvCounters &want)
{
    EXPECT_EQ(got.predictionMacs, want.predictionMacs);
    EXPECT_EQ(got.clustersScanned, want.clustersScanned);
    EXPECT_EQ(got.clustersSelected, want.clustersSelected);
    EXPECT_EQ(got.tokensSelected, want.tokensSelected);
    EXPECT_EQ(got.pastTokens, want.pastTokens);
    EXPECT_EQ(got.wicsumScanned, want.wicsumScanned);
    EXPECT_EQ(got.selectCalls, want.selectCalls);
}

TEST(ResvPolicy, SelectMatchesPackedGemmSortReference)
{
    const ModelConfig model = ModelConfig::tiny();
    for (const bool clustering : {true, false}) {
        for (kernels::Isa isa : runnableIsas()) {
            ForcedIsa guard(isa);
            ASSERT_TRUE(guard.ok());
            ResvConfig rc;
            rc.clustering = clustering;
            ResvAgainstLegacy policy(model, rc);
            StreamingSession s(model, &policy, 17);
            s.begin("legacy-resv", VideoConfig{}, 3);
            for (int f = 0; f < 8; ++f)
                s.feedFrame();
            s.feedQuestion(9);
            s.generate(6);
            for (int f = 0; f < 3; ++f)
                s.feedFrame();
            s.feedQuestion(5);
            s.generate(4);

            SCOPED_TRACE(std::string("isa=") + kernels::isaName(isa) +
                         " clustering=" + (clustering ? "1" : "0"));
            EXPECT_GT(policy.selects, 0u);
            EXPECT_GT(policy.partial, 0u) << "nothing was pruned";
            expectSameCounters(policy.fresh.frameCounters(),
                               policy.legacy.frame);
            expectSameCounters(policy.fresh.textCounters(),
                               policy.legacy.text);
            if (clustering) {
                EXPECT_GT(policy.fresh.totalHammingComparisons(), 0u);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch plumbing: selection, parsing, unavailable ISAs.
// ---------------------------------------------------------------------

TEST(CoreKernelsDispatchTest, ScalarAlwaysCompiledAndSelectable)
{
    const auto compiled = kernels::compiledIsas();
    ASSERT_FALSE(compiled.empty());
    EXPECT_EQ(compiled.front(), kernels::Isa::Scalar);
    EXPECT_TRUE(kernels::isaAvailable(kernels::Isa::Scalar));
    {
        ForcedIsa guard(kernels::Isa::Scalar);
        EXPECT_TRUE(guard.ok());
        EXPECT_EQ(kernels::activeIsa(), kernels::Isa::Scalar);
        EXPECT_STREQ(kernels::active().name, "scalar");
    }
    // resetToAuto restored a runnable selection.
    EXPECT_TRUE(kernels::isaAvailable(kernels::activeIsa()));
}

TEST(CoreKernelsDispatchTest, SetActiveUnavailableIsRefused)
{
    for (kernels::Isa isa :
         {kernels::Isa::Scalar, kernels::Isa::Avx2,
          kernels::Isa::Neon}) {
        if (kernels::isaAvailable(isa))
            continue;
        const kernels::Isa before = kernels::activeIsa();
        EXPECT_FALSE(kernels::setActive(isa))
            << kernels::isaName(isa);
        EXPECT_EQ(kernels::activeIsa(), before)
            << "refused setActive must not change the selection";
    }
}

TEST(CoreKernelsDispatchTest, ParseIsa)
{
    kernels::Isa isa = kernels::Isa::Scalar;
    bool isAuto = false;
    EXPECT_TRUE(kernels::parseIsa("avx2", isa, isAuto));
    EXPECT_EQ(isa, kernels::Isa::Avx2);
    EXPECT_FALSE(isAuto);
    EXPECT_TRUE(kernels::parseIsa("neon", isa, isAuto));
    EXPECT_EQ(isa, kernels::Isa::Neon);
    EXPECT_TRUE(kernels::parseIsa("scalar", isa, isAuto));
    EXPECT_EQ(isa, kernels::Isa::Scalar);
    isa = kernels::Isa::Neon;
    EXPECT_TRUE(kernels::parseIsa("auto", isa, isAuto));
    EXPECT_TRUE(isAuto);
    EXPECT_EQ(isa, kernels::Isa::Neon) << "auto must not touch out";
    EXPECT_FALSE(kernels::parseIsa("sse9", isa, isAuto));
    EXPECT_FALSE(kernels::parseIsa("", isa, isAuto));
}

TEST(CoreKernelsDispatchTest, IsaNames)
{
    EXPECT_STREQ(kernels::isaName(kernels::Isa::Scalar), "scalar");
    EXPECT_STREQ(kernels::isaName(kernels::Isa::Avx2), "avx2");
    EXPECT_STREQ(kernels::isaName(kernels::Isa::Neon), "neon");
}

// ---------------------------------------------------------------------
// Hardening: width-mismatch assert, debug bounds asserts, bitWords
// overflow.
// ---------------------------------------------------------------------

TEST(BitSigDeathTest, HammingWidthMismatchAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    BitSig a(64), b(128);
    EXPECT_DEATH({ (void)a.hamming(b); }, "width mismatch");
}

#ifndef NDEBUG
TEST(BitSigDeathTest, OutOfRangeAccessAbortsInDebug)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    BitSig sig(64);
    EXPECT_DEATH(sig.set(64, true), "out of range");
    EXPECT_DEATH((void)sig.get(1000), "out of range");
}
#endif

TEST(BitsTest, BitWordsNoOverflow)
{
    EXPECT_EQ(bitWords(0), 0u);
    EXPECT_EQ(bitWords(1), 1u);
    EXPECT_EQ(bitWords(64), 1u);
    EXPECT_EQ(bitWords(65), 2u);
    // (UINT32_MAX + 63) wraps in 32-bit arithmetic and used to yield
    // 0 words; the widened computation returns the true count.
    EXPECT_EQ(bitWords(UINT32_MAX), 67108864u);
    EXPECT_EQ(bitWords(UINT32_MAX - 62), 67108864u);
}

} // namespace
