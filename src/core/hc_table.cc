#include "core/hc_table.hh"

#include <algorithm>
#include <functional>

#include "core/kernels.hh"

namespace vrex
{

namespace
{

inline uint32_t
sigBit(const uint64_t *sig, uint32_t b)
{
    return static_cast<uint32_t>((sig[b >> 6] >> (b & 63u)) & 1u);
}

} // namespace

HCTable::HCTable(uint32_t key_dim, uint32_t n_bits, uint32_t th_hd)
    : keyDim(key_dim), nBits(n_bits), nWords(bitWords(n_bits)),
      thHd(th_hd)
{
    VREX_ASSERT(key_dim > 0 && n_bits > 0, "bad HC table shape");
}

uint32_t
HCTable::insert(uint32_t token_idx, const float *key, const BitSig &sig)
{
    VREX_ASSERT(sig.size() == nBits, "signature width mismatch");
    return insert(token_idx, key, sig.raw().data());
}

uint32_t
HCTable::insert(uint32_t token_idx, const float *key, const uint64_t *sig)
{
    // The HCU hot loop: one dispatched scan over every signature.
    const uint32_t n = clusterCount();
    const uint32_t best =
        kernels::active().hammingNearest(sigs.data(), n, nWords, sig, thHd);
    comparisons += n;

    if (best == n) {
        sigs.insert(sigs.end(), sig, sig + nWords);
        cents.insert(cents.end(), key, key + keyDim);
        for (uint32_t b = 0; b < nBits; ++b)
            ones.push_back(sigBit(sig, b));
        members.push_back({token_idx});
    } else {
        float *centroid = cents.data() + static_cast<size_t>(best) * keyDim;
        const double size = members[best].size();
        for (uint32_t d = 0; d < keyDim; ++d) {
            centroid[d] = static_cast<float>(
                (centroid[d] * size + key[d]) / (size + 1.0));
        }
        uint32_t *one = ones.data() + static_cast<size_t>(best) * nBits;
        for (uint32_t b = 0; b < nBits; ++b)
            one[b] += sigBit(sig, b);
        members[best].push_back(token_idx);
        refreshSignature(best);
    }
    ++numTokens;
    return best;
}

void
HCTable::refreshSignature(uint32_t c)
{
    const uint32_t n = clusterSize(c);
    const uint32_t *one = ones.data() + static_cast<size_t>(c) * nBits;
    uint64_t *words = sigs.data() + static_cast<size_t>(c) * nWords;
    std::fill(words, words + nWords, 0ull);
    for (uint32_t b = 0; b < nBits; ++b)
        if (2 * one[b] > n)
            words[b >> 6] |= 1ull << (b & 63u);
}

double
HCTable::avgClusterSize() const
{
    if (members.empty())
        return 0.0;
    return static_cast<double>(numTokens) /
        static_cast<double>(members.size());
}

uint64_t
HCTable::memoryBytes() const
{
    // Per cluster: centroid, signature and the token count field;
    // plus one index per member token.
    const uint64_t per_cluster = keyDim * sizeof(float) +
        nWords * sizeof(uint64_t) + sizeof(uint32_t);
    return clusterCount() * per_cluster +
        static_cast<uint64_t>(numTokens) * sizeof(uint32_t);
}

void
HCTable::clear()
{
    sigs.clear();
    cents.clear();
    ones.clear();
    members.clear();
    numTokens = 0;
    comparisons = 0;
}

void
HCTable::serialize(serial::ByteWriter &w) const
{
    // Each column is written as the length-prefixed vector the
    // per-cluster layout used to write (blob version 2).
    w.put<uint32_t>(keyDim);
    w.put<uint32_t>(nBits);
    w.put<uint32_t>(thHd);
    w.put<uint32_t>(numTokens);
    w.put<uint64_t>(comparisons);
    w.put<uint64_t>(members.size());
    for (uint32_t c = 0; c < clusterCount(); ++c) {
        w.put<uint64_t>(nWords);
        w.putBytes(signature(c), nWords * sizeof(uint64_t));
        w.put<uint64_t>(keyDim);
        w.putBytes(centroid(c), keyDim * sizeof(float));
        w.putVec(members[c]);
        w.put<uint64_t>(nBits);
        w.putBytes(ones.data() + static_cast<size_t>(c) * nBits,
                   nBits * sizeof(uint32_t));
    }
}

void
HCTable::restore(serial::ByteReader &r)
{
    const uint32_t key_dim = r.get<uint32_t>();
    const uint32_t n_bits = r.get<uint32_t>();
    const uint32_t th_hd = r.get<uint32_t>();
    if (key_dim != keyDim || n_bits != nBits || th_hd != thHd)
        throw serial::SerialError(
            "HCTable::restore: blob geometry mismatch");
    const uint32_t num_tokens = r.get<uint32_t>();
    const uint64_t n_comparisons = r.get<uint64_t>();
    const uint64_t n_rows = r.get<uint64_t>();

    // Parse into fresh columns; the table changes only once the whole
    // blob has been validated.
    std::vector<uint64_t> new_sigs;
    std::vector<float> new_cents;
    std::vector<uint32_t> new_ones;
    std::vector<std::vector<uint32_t>> new_members;
    const uint64_t pad_mask =
        (nBits & 63u) ? ~((1ull << (nBits & 63u)) - 1) : 0ull;
    uint64_t listed = 0;
    for (uint64_t i = 0; i < n_rows; ++i) {
        if (r.get<uint64_t>() != nWords)
            throw serial::SerialError(
                "HCTable::restore: signature width mismatch");
        new_sigs.resize(new_sigs.size() + nWords);
        r.getBytes(new_sigs.data() + new_sigs.size() - nWords,
                   nWords * sizeof(uint64_t));
        if (new_sigs.back() & pad_mask)
            throw serial::SerialError(
                "HCTable::restore: signature padding bits set");
        if (r.get<uint64_t>() != keyDim)
            throw serial::SerialError(
                "HCTable::restore: cluster shape mismatch");
        new_cents.resize(new_cents.size() + keyDim);
        r.getBytes(new_cents.data() + new_cents.size() - keyDim,
                   keyDim * sizeof(float));
        std::vector<uint32_t> tokens = r.getVec<uint32_t>();
        if (r.get<uint64_t>() != nBits)
            throw serial::SerialError(
                "HCTable::restore: cluster shape mismatch");
        new_ones.resize(new_ones.size() + nBits);
        r.getBytes(new_ones.data() + new_ones.size() - nBits,
                   nBits * sizeof(uint32_t));

        if (std::adjacent_find(tokens.begin(), tokens.end(),
                               std::greater_equal<uint32_t>()) !=
            tokens.end())
            throw serial::SerialError(
                "HCTable::restore: cluster tokens not strictly ascending");
        if (std::any_of(new_ones.end() - nBits, new_ones.end(),
                        [&](uint32_t n) { return n > tokens.size(); }))
            throw serial::SerialError(
                "HCTable::restore: bit count exceeds cluster size");
        listed += tokens.size();
        new_members.push_back(std::move(tokens));
    }
    if (listed != num_tokens)
        throw serial::SerialError(
            "HCTable::restore: cluster sizes do not sum to the token "
            "count");
    std::vector<uint32_t> all;
    all.reserve(listed);
    for (const auto &tokens : new_members)
        all.insert(all.end(), tokens.begin(), tokens.end());
    std::sort(all.begin(), all.end());
    if (std::adjacent_find(all.begin(), all.end()) != all.end())
        throw serial::SerialError(
            "HCTable::restore: token listed in two clusters");

    sigs = std::move(new_sigs);
    cents = std::move(new_cents);
    ones = std::move(new_ones);
    members = std::move(new_members);
    numTokens = num_tokens;
    comparisons = n_comparisons;
}

} // namespace vrex
