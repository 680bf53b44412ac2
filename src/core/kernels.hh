/**
 * @file
 * Runtime-dispatched SIMD kernels for the DRE hot loops (paper §V:
 * the HCU XOR/popcount datapath, hash-bit generation, and the WTU
 * WiCSum sweep) and for the transformer's dense float kernels (dot,
 * GEMM, attention scoring and value accumulation). One `Ops` table
 * per instruction set — scalar always, AVX2 on x86-64, NEON on
 * aarch64 — selected once at startup from CPUID (x86) / compile
 * target (arm), overridable for testing via the
 * `VREX_KERNELS=scalar|avx2|neon|auto` environment variable or
 * `setActive()`.
 *
 * ## Bit-identical contract
 *
 * Every variant of every kernel produces output *bit-identical* to the
 * scalar reference, so switching ISAs can never move a figure metric:
 *
 *  - `hammingWords`, `hammingNearest`, `rangeBitmap`: exact integer /
 *    exact-predicate kernels — equality is unconditional.
 *    `hammingNearest` is the HCU scan: the first-minimum loop over a
 *    contiguous signature table, so ties resolve to the lowest index
 *    on every ISA.
 *  - `minMaxF32`: min/max are value-exact regardless of evaluation
 *    order (inputs must be NaN-free, which the score pipeline
 *    guarantees).
 *  - `dotF32`, `gemmRowsF32`, `gemmRowsMaxF32`, `dotGatherF32`: the
 *    canonical 8-lane FP order of tensor `dot()` (see tensor/ops.hh).
 *    Lane l sums a[8i+l] * b[8i+l] in i order, the ragged tail adds
 *    into the first n % 8 lanes, and the fixed tree ((s0+s4)+(s2+s6))
 *    + ((s1+s5)+(s3+s7)) combines them. One 256-bit accumulator holds
 *    exactly those eight lanes; the GEMM keeps four weight rows'
 *    accumulators in registers and the gather four keys', but every
 *    output element is still one canonical dot. The scalar entries
 *    are the tensor layer's references, and the selected entries are
 *    installed into tensor's hooks (`detail::dotF32Hook` and
 *    friends), so `dot()`, `matmulTransposedGrouped()`, attention
 *    scoring and ReSV's candidate scoring run them.
 *    `gemmRowsMaxF32` folds each scaled dot into its column with
 *    `std::max(raw, v)`, rows in order; the AVX2 `maxps(v, raw)`
 *    returns its second operand on ties (±0) and on NaN, exactly as
 *    std::max keeps `raw`.
 *  - `hashEncode`: each signature bit is the sign of a float dot
 *    product in its own *sequential* order (one running sum over the
 *    key dimension), not the canonical 8-lane order, so the hash bits
 *    do not depend on the dense kernels. The SIMD variants assign
 *    one *bit* per lane and walk the key dimension sequentially, so
 *    every lane performs the same mul-then-add sequence, in the same
 *    order, at the same precision as the scalar loop — identical
 *    rounding, identical sign.
 *
 * All float kernels require unfused mul+add everywhere: the build
 * compiles with `-ffp-contract=off` and the AVX2 translation unit
 * additionally with `-mno-fma` (see the top-level CMakeLists).
 *
 * The contract is locked by the scalar-vs-SIMD property suite in
 * tests/core_kernels_test.cc, which forces every compiled ISA over
 * many widths and adversarial bit patterns (±0, denormals, ±inf, NaN,
 * large cancellation).
 *
 * ## Adding an ISA variant
 *
 * See src/core/README.md for the step-by-step recipe (new TU, Ops
 * table, probe hook, property-suite coverage).
 */

#ifndef VREX_CORE_KERNELS_HH
#define VREX_CORE_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/ops.hh"

namespace vrex::kernels
{

/** Instruction sets a kernel table can target. */
enum class Isa : uint8_t
{
    Scalar = 0,
    Avx2,
    Neon,
};

/** Lanes per hash-encode block; colStride pads to a multiple of this. */
inline constexpr uint32_t kEncodeBlock = 8;

/**
 * Hyperplane views consumed by the hash-encode kernels. `rows` is the
 * natural nbits x dim row-major matrix (scalar walks one contiguous
 * row per bit); `cols` is its dim x colStride transpose, zero-padded
 * to kEncodeBlock, so a SIMD block loads the j-th coefficient of
 * kEncodeBlock adjacent bits with one contiguous load.
 */
struct HashPlanes
{
    const float *rows;
    const float *cols;
    uint32_t dim;
    uint32_t nbits;
    uint32_t colStride;
};

/**
 * One dispatch table: every kernel the DRE hot path consumes, plus
 * the dense float kernels under the transformer (dot, GEMM, attention
 * scoring and value accumulation).
 */
struct Ops
{
    const char *name;

    /**
     * Popcount of the XOR of two n-word packed bit vectors
     * (BitSig::hamming; the HC table scans with hammingNearest).
     */
    uint32_t (*hammingWords)(const uint64_t *a, const uint64_t *b,
                             size_t n);

    /**
     * HCU scan over @p count signatures of @p nwords words each,
     * stored back to back at @p table: the lowest index whose Hamming
     * distance to @p sig is minimal, provided that distance is
     * <= @p limit; @p count when no signature is that close.
     */
    uint32_t (*hammingNearest)(const uint64_t *table, uint32_t count,
                               size_t nwords, const uint64_t *sig,
                               uint32_t limit);

    /**
     * Sign-hash one key vector: words[b>>6] bit (b&63) = one iff
     * dot(key, plane_b) > 0, for b in [0, nbits). Writes the full
     * bitWords(nbits) words; padding bits are zeroed.
     */
    void (*hashEncode)(const HashPlanes &planes, const float *key,
                       uint64_t *words);

    /**
     * Min and max of n floats (n >= 1, NaN-free input). Matches the
     * scalar std::min/std::max fold by value.
     */
    void (*minMaxF32)(const float *s, size_t n, float *lo, float *hi);

    /**
     * Bucket-membership bitmap for the WiCSum sweep: bit i of the
     * output = one iff double(s[i]) >= lower and (closedTop or
     * double(s[i]) < upper). bitmap must hold bitWords(n) words;
     * fully rewritten, padding zeroed.
     */
    void (*rangeBitmap)(const float *s, size_t n, double lower,
                        double upper, bool closedTop, uint64_t *bitmap);

    /** Canonical 8-lane dot product (tensor dot()). */
    vrex::detail::DotF32Fn dotF32;

    /**
     * The row-group body of matmulTransposedGrouped(): out[i][j] =
     * dot(a row i, b row j), weight rows outer, batch rows inner.
     */
    vrex::detail::GemmRowsF32Fn gemmRowsF32;

    /**
     * The GEMM fused with a column max-pool: raw[j] = std::max(raw[j],
     * dot(a row i, b row j) * scale), rows i in order — ReSV's
     * candidate scoring without a score matrix.
     */
    vrex::detail::GemmRowsMaxF32Fn gemmRowsMaxF32;

    /**
     * One query scored against key rows given by index: out[i] =
     * dot(q, base + idx[i] * stride) — attention's per-(head, query)
     * scoring.
     */
    vrex::detail::DotGatherF32Fn dotGatherF32;

    /**
     * Probability-weighted sum of value rows given by index:
     * out[d] += p[i] * (base + idx[i] * stride)[d], keys in order,
     * p[i] == 0 skipped — attention's per-(head, query) p·V.
     */
    vrex::detail::AxpyGatherF32Fn axpyGatherF32;
};

/** The scalar reference table (always compiled). */
const Ops &scalarOps();

/** Scalar reference of Ops::hammingNearest (NEON's entry too). */
uint32_t hammingNearestScalar(const uint64_t *table, uint32_t count,
                              size_t nwords, const uint64_t *sig,
                              uint32_t limit);

/**
 * The active table. First use resolves `VREX_KERNELS` (default: auto,
 * the widest compiled + runtime-supported ISA) and installs the
 * BitSig Hamming hook and the tensor dense-kernel hooks; afterwards
 * this is one atomic load.
 */
const Ops &active();

/** ISA of the active table. */
Isa activeIsa();

/**
 * Force an ISA (tests, micro benches). Returns false — leaving the
 * current selection untouched — when the ISA is not compiled in or
 * not supported by this CPU. Not thread-safe: call before spawning
 * workers, as the serve layer reads the table concurrently.
 */
bool setActive(Isa isa);

/** Re-run the VREX_KERNELS / auto selection (test teardown). */
void resetToAuto();

/** True when the ISA is compiled in and runtime-supported here. */
bool isaAvailable(Isa isa);

/** Every ISA compiled into this binary (Scalar always included). */
std::vector<Isa> compiledIsas();

/** Lower-case ISA name ("scalar", "avx2", "neon"). */
const char *isaName(Isa isa);

/**
 * Parse a VREX_KERNELS value. Returns false on an unknown token;
 * "auto" sets @p isAuto and leaves @p out untouched.
 */
bool parseIsa(const std::string &text, Isa &out, bool &isAuto);

/** Dispatched Hamming distance over packed words. */
inline uint32_t
hammingDistance(const uint64_t *a, const uint64_t *b, size_t nwords)
{
    return active().hammingWords(a, b, nwords);
}

} // namespace vrex::kernels

#endif // VREX_CORE_KERNELS_HH
