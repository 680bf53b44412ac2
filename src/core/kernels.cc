#include "core/kernels.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>

#include "common/bits.hh"
#include "common/logging.hh"
#include "tensor/ops.hh"

namespace vrex::kernels
{

// Probe hooks defined by the per-ISA translation units
// (kernels_avx2.cc / kernels_neon.cc). Each returns its Ops table, or
// nullptr when that ISA is not compiled for this target — so the
// dispatcher needs no compile-time knowledge of what got built.
const Ops *avx2OpsOrNull();
const Ops *neonOpsOrNull();

namespace
{

// ---------------------------------------------------------------------
// Scalar reference kernels. These define the semantics every SIMD
// variant must reproduce bit-for-bit. The dense float references live
// in the tensor layer (detail::dotF32Scalar and friends).
// ---------------------------------------------------------------------

void
hashEncodeScalar(const HashPlanes &p, const float *key, uint64_t *words)
{
    // One sequential sum per bit, not dot()'s 8-lane order: the
    // encode contract pins this order (see kernels.hh).
    const uint32_t nwords = bitWords(p.nbits);
    std::fill(words, words + nwords, 0ull);
    for (uint32_t b = 0; b < p.nbits; ++b) {
        const float *row = p.rows + static_cast<size_t>(b) * p.dim;
        float s = 0.0f;
        for (uint32_t j = 0; j < p.dim; ++j)
            s += key[j] * row[j];
        if (s > 0.0f)
            words[b >> 6] |= 1ull << (b & 63u);
    }
}

} // namespace

uint32_t
hammingNearestScalar(const uint64_t *table, uint32_t count, size_t nwords,
                     const uint64_t *sig, uint32_t limit)
{
    uint32_t best = count;
    uint64_t best_dist = static_cast<uint64_t>(limit) + 1;
    for (uint32_t c = 0; c < count; ++c) {
        const uint32_t d = vrex::detail::hammingWordsScalar(
            table + c * nwords, sig, nwords);
        if (d < best_dist) {
            best_dist = d;
            best = c;
        }
    }
    return best;
}

namespace
{

void
minMaxF32Scalar(const float *s, size_t n, float *lo, float *hi)
{
    float mn = s[0], mx = s[0];
    for (size_t i = 1; i < n; ++i) {
        mn = std::min(mn, s[i]);
        mx = std::max(mx, s[i]);
    }
    *lo = mn;
    *hi = mx;
}

void
rangeBitmapScalar(const float *s, size_t n, double lower, double upper,
                  bool closedTop, uint64_t *bitmap)
{
    const size_t nwords =
        bitWords(static_cast<uint32_t>(n));
    std::fill(bitmap, bitmap + nwords, 0ull);
    for (size_t i = 0; i < n; ++i) {
        const double v = s[i];
        const bool in =
            closedTop ? (v >= lower) : (v >= lower && v < upper);
        if (in)
            bitmap[i >> 6] |= 1ull << (i & 63u);
    }
}

const Ops kScalarOps = {
    "scalar",
    &vrex::detail::hammingWordsScalar,
    &hammingNearestScalar,
    &hashEncodeScalar,
    &minMaxF32Scalar,
    &rangeBitmapScalar,
    &vrex::detail::dotF32Scalar,
    &vrex::detail::gemmRowsF32Scalar,
    &vrex::detail::gemmRowsMaxF32Scalar,
    &vrex::detail::dotGatherF32Scalar,
    &vrex::detail::axpyGatherF32Scalar,
};

// ---------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------

std::atomic<const Ops *> gActive{&kScalarOps};
std::atomic<Isa> gActiveIsa{Isa::Scalar};

void
install(const Ops *ops, Isa isa)
{
    gActive.store(ops, std::memory_order_release);
    gActiveIsa.store(isa, std::memory_order_release);
    // Route BitSig::hamming (common layer) and the dense tensor
    // kernels (tensor layer), which cannot depend on core, through
    // the same selection.
    vrex::detail::bitsigHammingHook.store(ops->hammingWords,
                                          std::memory_order_release);
    vrex::detail::dotF32Hook.store(ops->dotF32,
                                   std::memory_order_release);
    vrex::detail::gemmRowsF32Hook.store(ops->gemmRowsF32,
                                        std::memory_order_release);
    vrex::detail::gemmRowsMaxF32Hook.store(ops->gemmRowsMaxF32,
                                           std::memory_order_release);
    vrex::detail::dotGatherF32Hook.store(ops->dotGatherF32,
                                         std::memory_order_release);
    vrex::detail::axpyGatherF32Hook.store(ops->axpyGatherF32,
                                          std::memory_order_release);
}

const Ops *
opsForCompiled(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return &kScalarOps;
      case Isa::Avx2:
        return avx2OpsOrNull();
      case Isa::Neon:
        return neonOpsOrNull();
    }
    return nullptr;
}

bool
runtimeSupports(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return true;
      case Isa::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
      case Isa::Neon:
        // NEON is architecturally guaranteed on aarch64, the only
        // target the NEON TU compiles for.
        return true;
    }
    return false;
}

Isa
resolveAuto()
{
    for (Isa isa : {Isa::Avx2, Isa::Neon}) {
        if (opsForCompiled(isa) && runtimeSupports(isa))
            return isa;
    }
    return Isa::Scalar;
}

void
applySelection()
{
    Isa pick = resolveAuto();
    if (const char *env = std::getenv("VREX_KERNELS")) {
        Isa forced = Isa::Scalar;
        bool isAuto = false;
        if (!parseIsa(env, forced, isAuto)) {
            warn("VREX_KERNELS=%s not recognized "
                 "(want scalar|avx2|neon|auto); using auto", env);
        } else if (!isAuto) {
            if (opsForCompiled(forced) && runtimeSupports(forced)) {
                pick = forced;
            } else {
                warn("VREX_KERNELS=%s unavailable on this "
                     "build/CPU; using auto (%s)",
                     env, isaName(pick));
            }
        }
    }
    install(opsForCompiled(pick), pick);
}

bool
ensureInit()
{
    static const bool once = [] {
        applySelection();
        return true;
    }();
    return once;
}

/**
 * Eager init: any binary that links a core object referencing the
 * dispatch layer gets the SIMD Hamming and dense hooks installed
 * before main(), so BitSig::hamming, dot() and the dense matmul are
 * dispatched even on paths that never call active() themselves.
 */
[[maybe_unused]] const bool gKernelsEagerInit = ensureInit();

} // namespace

const Ops &
scalarOps()
{
    return kScalarOps;
}

const Ops &
active()
{
    ensureInit();
    return *gActive.load(std::memory_order_acquire);
}

Isa
activeIsa()
{
    ensureInit();
    return gActiveIsa.load(std::memory_order_acquire);
}

bool
setActive(Isa isa)
{
    ensureInit();
    const Ops *ops = opsForCompiled(isa);
    if (!ops || !runtimeSupports(isa))
        return false;
    install(ops, isa);
    return true;
}

void
resetToAuto()
{
    ensureInit();
    applySelection();
}

bool
isaAvailable(Isa isa)
{
    return opsForCompiled(isa) != nullptr && runtimeSupports(isa);
}

std::vector<Isa>
compiledIsas()
{
    std::vector<Isa> out{Isa::Scalar};
    if (avx2OpsOrNull())
        out.push_back(Isa::Avx2);
    if (neonOpsOrNull())
        out.push_back(Isa::Neon);
    return out;
}

const char *
isaName(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return "scalar";
      case Isa::Avx2:
        return "avx2";
      case Isa::Neon:
        return "neon";
    }
    return "unknown";
}

bool
parseIsa(const std::string &text, Isa &out, bool &isAuto)
{
    std::string low;
    low.reserve(text.size());
    for (char c : text)
        low.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    isAuto = false;
    if (low == "auto") {
        isAuto = true;
        return true;
    }
    if (low == "scalar") {
        out = Isa::Scalar;
        return true;
    }
    if (low == "avx2") {
        out = Isa::Avx2;
        return true;
    }
    if (low == "neon") {
        out = Isa::Neon;
        return true;
    }
    return false;
}

} // namespace vrex::kernels
