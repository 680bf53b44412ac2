/**
 * @file
 * Host-speed calibration. The reference host is a shared VM whose speed
 * swings by up to ~50% for seconds to minutes at a time as its
 * neighbours' load changes, and thread CPU time swings with it (the
 * code runs slower; it is not only descheduled). The benchmark
 * therefore times a fixed kernel next to the work it measures and
 * reports CPU times scaled by kCalRefUs / (the kernel's time then).
 *
 * The kernel is written here, not taken from the library, so no change
 * under src/ can change its speed, and a change that speeds the library
 * up shows in full. It has two parts, timed together:
 *  - an fp32 dot product with one accumulator over 3 MiB, larger than
 *    a core's L2: latency-bound and streaming, like the model's dot
 *    products over its 2.4 MiB of weights;
 *  - a splitmix64 fill of 256 KiB: throughput-bound integer work, like
 *    weight generation and the rest of the model's index arithmetic.
 * Neighbours slow the two differently (on the reference host, by 1.37x
 * and 1.82x in one slow phase, while frame prefill slowed 1.59x and
 * session creation 1.49x); their sum slowed 1.52x.
 */

#include <cstddef>
#include <vector>

#include "bench.hh"

namespace vrex::perfbench
{

namespace
{

// Two 1.5 MiB vectors: together larger than a core's L2 (2 MiB on the
// reference host).
constexpr size_t kDotLen = 3u << 17;
constexpr size_t kMixLen = 1u << 15; // 256 KiB of uint64_t.
constexpr int kMixPasses = 4;

struct Operands
{
    std::vector<float> a, b;
    std::vector<uint64_t> mix;

    Operands() : a(kDotLen), b(kDotLen), mix(kMixLen)
    {
        for (size_t i = 0; i < kDotLen; ++i) {
            a[i] = static_cast<float>(i % 251) * 1e-3f;
            b[i] = 1.0f - static_cast<float>(i % 127) * 1e-3f;
        }
    }
};

} // namespace

// The kernel's code must not change with the build's flags: GCC would
// otherwise vectorize the integer loop when a wider ISA is enabled.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
double
calibrationSampleUs()
{
    static Operands ops;
    double us = 0.0;
    // The first pass pulls the operands back into the caches (the
    // serving work in between evicts them); only the second is timed,
    // so every sample starts from the same cache state.
    for (int pass = 0; pass < 2; ++pass) {
        volatile float sink = 0.0f;
        const int64_t c0 = threadCpuNs();
        float acc = 0.0f;
        for (size_t i = 0; i < kDotLen; ++i)
            acc += ops.a[i] * ops.b[i];
        sink = acc;
        uint64_t x = 0x5eedu;
        for (int p = 0; p < kMixPasses; ++p) {
            for (size_t i = 0; i < kMixLen; ++i) {
                x += 0x9e3779b97f4a7c15ull;
                uint64_t z = x;
                z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
                z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
                ops.mix[i] = z ^ (z >> 31);
            }
        }
        const int64_t c1 = threadCpuNs();
        sink = sink + static_cast<float>(ops.mix[kMixLen / 2] & 1u);
        (void)sink;
        us = static_cast<double>(c1 - c0) / 1e3;
    }
    return us;
}

} // namespace vrex::perfbench
