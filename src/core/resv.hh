/**
 * @file
 * ReSV: the training-free dynamic KV cache retrieval policy (paper
 * §IV). Combines hash-bit key clustering (HashEncoder + HCTable, one
 * table per layer and KV head) with WiCSum thresholding to pick, per
 * layer and head, the minimal set of past tokens attention must read.
 */

#ifndef VREX_CORE_RESV_HH
#define VREX_CORE_RESV_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hash_encoder.hh"
#include "core/hc_table.hh"
#include "core/wicsum.hh"
#include "llm/selection.hh"

namespace vrex
{

/** Hyper-parameters of ReSV (paper defaults: N_hp=32, Th_hd=7). */
struct ResvConfig
{
    uint32_t nHp = 32;         //!< Hash signature bits.
    uint32_t thHd = 7;         //!< Hamming clustering threshold.
    /** WiCSum mass ratio Th_r-wics. The paper tunes this empirically
     *  per deployment (0.3 on COIN); 0.5 is the calibrated operating
     *  point for this repo's synthetic score distributions, keeping
     *  the accuracy-proxy drop under 1% at the lowest ratios. */
    float thrWics = 0.5f;
    uint32_t nBuckets = 16;    //!< Early-exit sorter buckets.
    bool clustering = true;    //!< false = Fig. 19 "w/o clustering".
    uint64_t seed = 7;         //!< Hyperplane seed.
};

/** Aggregate work counters, split by pipeline stage. */
struct ResvCounters
{
    uint64_t predictionMacs = 0;    //!< Q x Key_cluster^T MACs.
    uint64_t clustersScanned = 0;
    uint64_t clustersSelected = 0;
    uint64_t tokensSelected = 0;
    uint64_t pastTokens = 0;        //!< Sum of past lengths seen.
    uint64_t wicsumScanned = 0;     //!< Elements the sorter touched.
    uint64_t selectCalls = 0;

    double
    selectedRatio() const
    {
        return pastTokens
            ? static_cast<double>(tokensSelected) / pastTokens
            : 1.0;
    }
};

/** The ReSV selection policy. */
class ResvPolicy : public SelectionPolicy
{
  public:
    ResvPolicy(const ModelConfig &model, const ResvConfig &config);

    void onBlockAppended(uint32_t layer, const KVCache &cache,
                         uint32_t block_start, uint32_t block_len,
                         TokenStage stage) override;

    LayerSelection select(uint32_t layer, const Matrix &q,
                          const KVCache &cache, uint32_t past_len,
                          TokenStage stage) override;

    void reset() override;

    const ResvConfig &config() const { return cfg; }

    /** The HC table of (layer, kv_head). */
    const HCTable &table(uint32_t layer, uint32_t kv_head) const;

    /** Work counters for the frame-processing stage. */
    const ResvCounters &frameCounters() const { return frameCtr; }

    /** Work counters for the text-generation stage. */
    const ResvCounters &textCounters() const { return textCtr; }

    /** Total HC-table bytes across layers and heads. */
    uint64_t tableMemoryBytes() const;

    /** Mean tokens per cluster across all tables. */
    double avgClusterSize() const;

    /** Total Hamming comparisons performed (HCU work). */
    uint64_t totalHammingComparisons() const;

    /** HC tables + stage counters (encoder is seed-deterministic). */
    void serializeState(serial::ByteWriter &w) const override;
    void restoreState(serial::ByteReader &r) override;

  private:
    ResvCounters &countersFor(TokenStage stage);

    ModelConfig model;
    ResvConfig cfg;
    HashEncoder encoder;
    /** tables[layer * nKvHeads + head]. */
    std::vector<HCTable> tables;
    ResvCounters frameCtr;
    ResvCounters textCtr;

    // Scratch reused across calls (not state: never serialized).
    std::vector<uint64_t> sigScratch;    //!< One token's signature.
    std::vector<float> rawScratch;       //!< Pooled candidate scores.
    std::vector<float> scoreScratch;     //!< expNormalize(raw).
    std::vector<uint32_t> countScratch;  //!< Candidate token counts.
    std::vector<uint64_t> pickScratch;   //!< Selected-token bitmap.
};

} // namespace vrex

#endif // VREX_CORE_RESV_HH
