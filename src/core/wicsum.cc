#include "core/wicsum.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/bits.hh"
#include "common/logging.hh"
#include "core/kernels.hh"

namespace vrex
{

namespace
{

/**
 * Eq. 1 accumulation. Deliberately scalar on every ISA: the result
 * feeds the Eq. 2/3 threshold comparisons, and a reassociated
 * (vectorized) double sum can differ in the last ulp — enough to flip
 * a selection at the boundary and move a figure. The sequential
 * accumulation order *is* the contract.
 */
double
weightedSum(const std::vector<float> &scores,
            const std::vector<uint32_t> &counts)
{
    double sum = 0.0;
    for (size_t i = 0; i < scores.size(); ++i)
        sum += static_cast<double>(scores[i]) * counts[i];
    return sum;
}

} // namespace

WicsumResult
wicsumSelectReference(const std::vector<float> &scores,
                      const std::vector<uint32_t> &counts,
                      float thr_ratio)
{
    VREX_ASSERT(scores.size() == counts.size(),
                "scores/counts size mismatch");
    WicsumResult result;
    if (scores.empty())
        return result;

    const double threshold = weightedSum(scores, counts) * thr_ratio;

    std::vector<uint32_t> order(scores.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return scores[a] > scores[b];
                     });

    double acc = 0.0;
    for (uint32_t idx : order) {
        result.selected.push_back(idx);
        ++result.scanned;
        acc += static_cast<double>(scores[idx]) * counts[idx];
        if (acc > threshold)
            break;
    }
    return result;
}

WicsumResult
wicsumSelectEarlyExit(const std::vector<float> &scores,
                      const std::vector<uint32_t> &counts,
                      float thr_ratio, uint32_t n_buckets)
{
    VREX_ASSERT(scores.size() == counts.size(),
                "scores/counts size mismatch");
    VREX_ASSERT(n_buckets > 0, "need at least one bucket");
    WicsumResult result;
    if (scores.empty())
        return result;

    // Preprocess step: weighted sum, threshold, min/max (Fig. 11).
    // min/max runs on the dispatched SIMD kernel — value-exact in any
    // evaluation order, so the bucket boundaries below are unchanged.
    const double threshold = weightedSum(scores, counts) * thr_ratio;
    float lo, hi;
    kernels::active().minMaxF32(scores.data(), scores.size(), &lo, &hi);
    if (hi <= lo) {
        // Degenerate row: all scores equal; accumulate in index order.
        double acc = 0.0;
        for (uint32_t i = 0; i < scores.size(); ++i) {
            result.selected.push_back(i);
            ++result.scanned;
            acc += static_cast<double>(scores[i]) * counts[i];
            if (acc > threshold)
                break;
        }
        result.bucketsVisited = 1;
        return result;
    }

    // Token selection step: sweep buckets from the highest range. The
    // membership scan (compare all scores against the bucket bounds)
    // is the hot loop and runs on the dispatched rangeBitmap kernel;
    // the bitmap is then walked in ascending index order, so the
    // visit order and the sequential threshold accumulation are
    // exactly the scalar sweep's.
    const double width =
        (static_cast<double>(hi) - lo) / n_buckets;
    const auto rangeBitmap = kernels::active().rangeBitmap;
    std::vector<uint64_t> bitmap(
        bitWords(static_cast<uint32_t>(scores.size())));
    double acc = 0.0;
    for (uint32_t b = n_buckets; b-- > 0;) {
        ++result.bucketsVisited;
        const double lower = lo + width * b;
        const double upper = lo + width * (b + 1);
        rangeBitmap(scores.data(), scores.size(), lower, upper,
                    b + 1 == n_buckets, bitmap.data());
        for (size_t w = 0; w < bitmap.size(); ++w) {
            uint64_t bits = bitmap[w];
            while (bits != 0) {
                const uint32_t i = static_cast<uint32_t>(
                    w * 64 + static_cast<uint32_t>(
                                 std::countr_zero(bits)));
                bits &= bits - 1;
                result.selected.push_back(i);
                ++result.scanned;
                acc += static_cast<double>(scores[i]) * counts[i];
                if (acc > threshold)
                    return result;  // Early exit.
            }
        }
    }
    return result;
}

std::vector<float>
expNormalize(const std::vector<float> &raw_scores)
{
    std::vector<float> out;
    expNormalize(raw_scores, out);
    return out;
}

void
expNormalize(const std::vector<float> &raw_scores, std::vector<float> &out)
{
    out.resize(raw_scores.size());
    if (raw_scores.empty())
        return;
    float mx = raw_scores[0];
    for (float s : raw_scores)
        mx = std::max(mx, s);
    for (size_t i = 0; i < raw_scores.size(); ++i)
        out[i] = std::exp(raw_scores[i] - mx);
}

} // namespace vrex
