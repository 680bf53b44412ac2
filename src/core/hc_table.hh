/**
 * @file
 * The hash cluster (HC) table (ReSV step 2, paper Fig. 8 right).
 *
 * Incoming key tokens join the nearest existing cluster when the
 * Hamming distance between hash-bit signatures is below Th_hd,
 * otherwise they found a new cluster. Each cluster keeps: the cluster
 * index, its member token indices, the representative key
 * (Key_cluster, a running mean of member keys), the representative
 * hash-bit signature (per-bit majority of members), and the token
 * count — exactly the columns of the paper's HC table.
 *
 * ## Layout
 *
 * Like the DRE's table, every fixed-width column is one contiguous
 * array with cluster c at row c, held once:
 *  - signatures: clusterCount() x sigWords() packed words. The HCU
 *    scan (kernels::Ops::hammingNearest) walks it in one pass.
 *  - centroids: clusterCount() x keyDim floats. ReSV scores them in
 *    place as its candidate rows (gemmRowsMax).
 *  - bit one-counts: clusterCount() x nBits, the majority tallies.
 * Member token lists are per cluster.
 *
 * ## Invariants
 *
 * insert() keeps them when tokens arrive in ascending index order, as
 * ReSV appends them; restore() refuses a blob that breaks any of them.
 *  - Signature padding bits (at and above nBits) are zero: the
 *    Hamming kernels count every word bit.
 *  - Every token index appears once in the table, ascending within
 *    its cluster, so a selection can mark tokens without duplicates.
 *  - The cluster sizes sum to tokenCount().
 *  - A bit one-count never exceeds its cluster's size.
 */

#ifndef VREX_CORE_HC_TABLE_HH
#define VREX_CORE_HC_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/serial.hh"

namespace vrex
{

/** Incremental Hamming-distance clustering of one head's key cache. */
class HCTable
{
  public:
    /**
     * @param key_dim Key dimensionality (head dim).
     * @param n_bits  Signature width.
     * @param th_hd   Hamming-distance clustering threshold Th_hd.
     */
    HCTable(uint32_t key_dim, uint32_t n_bits, uint32_t th_hd);

    /**
     * Insert one token whose signature is @p sig, sigWords() packed
     * words with zero padding. Joins the closest cluster with
     * distance <= thHd (ties: lowest cluster index) or creates a new
     * cluster.
     *
     * @return The cluster index the token joined.
     */
    uint32_t insert(uint32_t token_idx, const float *key,
                    const uint64_t *sig);

    /** insert() of a BitSig, whose width must be nBits. */
    uint32_t insert(uint32_t token_idx, const float *key,
                    const BitSig &sig);

    uint32_t
    clusterCount() const
    {
        return static_cast<uint32_t>(members.size());
    }

    uint32_t tokenCount() const { return numTokens; }

    /** Packed words per signature. */
    uint32_t sigWords() const { return nWords; }

    /** Cluster @p c's signature: sigWords() words. */
    const uint64_t *
    signature(uint32_t c) const
    {
        VREX_DEBUG_ASSERT(c < clusterCount(), "cluster %u out of range",
                          c);
        return sigs.data() + static_cast<size_t>(c) * nWords;
    }

    /** Every centroid: clusterCount() rows of keyDim floats. */
    const float *centroids() const { return cents.data(); }

    /** Cluster @p c's centroid (keyDim floats). */
    const float *
    centroid(uint32_t c) const
    {
        VREX_DEBUG_ASSERT(c < clusterCount(), "cluster %u out of range",
                          c);
        return cents.data() + static_cast<size_t>(c) * keyDim;
    }

    /** Cluster @p c's member token indices, ascending. */
    const std::vector<uint32_t> &
    tokens(uint32_t c) const
    {
        return members[c];
    }

    uint32_t
    clusterSize(uint32_t c) const
    {
        return static_cast<uint32_t>(members[c].size());
    }

    /** Mean tokens per cluster (0 when empty). */
    double avgClusterSize() const;

    /**
     * HC-table memory footprint in bytes (centroids + signatures +
     * index lists), for the paper's 1.67%-of-KV overhead claim.
     */
    uint64_t memoryBytes() const;

    /** Number of Hamming comparisons performed so far (HCU work). */
    uint64_t hammingComparisons() const { return comparisons; }

    void clear();

    /**
     * Serialize the clustering state (rows, counters). The geometry
     * (key_dim, n_bits, th_hd) is NOT serialized — restore() runs on
     * a table constructed with the same parameters and validates the
     * blob against them and against the invariants above.
     */
    void serialize(serial::ByteWriter &w) const;
    void restore(serial::ByteReader &r);

  private:
    void refreshSignature(uint32_t c);

    uint32_t keyDim;
    uint32_t nBits;
    uint32_t nWords;
    uint32_t thHd;
    uint32_t numTokens = 0;
    uint64_t comparisons = 0;
    std::vector<uint64_t> sigs;    //!< clusterCount() x nWords.
    std::vector<float> cents;      //!< clusterCount() x keyDim.
    std::vector<uint32_t> ones;    //!< clusterCount() x nBits.
    std::vector<std::vector<uint32_t>> members;
};

} // namespace vrex

#endif // VREX_CORE_HC_TABLE_HH
