/**
 * @file
 * Weighted cumulative sum (WiCSum) thresholding (paper §IV-C, Fig. 9)
 * and its early-exit bucket-sorted variant (paper Fig. 11), the
 * dataflow the WTU implements in hardware.
 *
 * Given per-cluster relevance scores and token counts, WiCSum selects
 * the smallest prefix of clusters (in descending score order) whose
 * weighted score mass exceeds Th_r-wics of the total weighted mass:
 *
 *   Sum   = sum_j score_j * TC_j                     (Eq. 1)
 *   Th    = Sum * Th_r-wics                          (Eq. 2)
 *   pick descending until Acc(t) > Th                (Eq. 3)
 *
 * Scores must be non-negative; ReSV feeds exp-normalized attention
 * scores (a monotone transform of Q.K_cluster, approximating each
 * cluster's softmax attention mass).
 */

#ifndef VREX_CORE_WICSUM_HH
#define VREX_CORE_WICSUM_HH

#include <cstdint>
#include <vector>

namespace vrex
{

/** Outcome of one WiCSum selection. */
struct WicsumResult
{
    /** Selected cluster indices (descending score order). */
    std::vector<uint32_t> selected;
    /** Elements examined before the threshold was crossed. */
    uint32_t scanned = 0;
    /** Buckets visited (early-exit variant only). */
    uint32_t bucketsVisited = 0;
};

/** Exact reference: full descending sort, then cumulate (Eq. 1-3). */
WicsumResult wicsumSelectReference(const std::vector<float> &scores,
                                   const std::vector<uint32_t> &counts,
                                   float thr_ratio);

/**
 * Early-exit bucket variant: scores are bucketed over [min, max];
 * buckets are swept from the highest range and the sweep terminates
 * as soon as the accumulated weighted sum crosses the threshold,
 * skipping the sort of everything below (paper reports an average of
 * 16% of each row carrying the bulk of the mass).
 *
 * Within a bucket, elements are visited in index order — the same
 * bucket-granular ordering the WTU hardware produces.
 */
WicsumResult wicsumSelectEarlyExit(const std::vector<float> &scores,
                                   const std::vector<uint32_t> &counts,
                                   float thr_ratio,
                                   uint32_t n_buckets = 16);

/**
 * Convert raw max-query attention logits into the non-negative
 * relevance scores WiCSum consumes: exp(s - max(s)). Monotone, so the
 * selection order matches the raw scores, and the weighted mass
 * approximates cluster softmax attention mass.
 */
std::vector<float> expNormalize(const std::vector<float> &raw_scores);

/** expNormalize() into @p out (resized to match), reusing its storage. */
void expNormalize(const std::vector<float> &raw_scores,
                  std::vector<float> &out);

} // namespace vrex

#endif // VREX_CORE_WICSUM_HH
