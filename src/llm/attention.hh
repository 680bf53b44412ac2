/**
 * @file
 * Grouped-query attention over the KV cache, with optional per-head
 * sparse token selection (the "light attention" of ReSV's execution
 * stage).
 */

#ifndef VREX_LLM_ATTENTION_HH
#define VREX_LLM_ATTENTION_HH

#include <vector>

#include "llm/config.hh"
#include "llm/kv_cache.hh"
#include "llm/selection.hh"
#include "tensor/matrix.hh"

namespace vrex
{

/**
 * One member of a ragged attention batch: @p rows consecutive query
 * tokens attending their own session's cache under its own selection.
 *
 * Degenerate-input contract (asserted, not silently tolerated):
 *  - kv->keys and kv->values must both hold exactly pastLen + rows
 *    rows (the block must already be appended to the cache);
 *  - a non-null selection must carry cfg.nKvHeads head entries, and
 *    every explicit (selectAll == false) index list must stay below
 *    pastLen — in particular, at pastLen == 0 only selectAll or an
 *    empty index list is legal;
 *  - rows == 0 (an empty query block) is legal: the member owns no
 *    output rows and its cache/selection are not read.
 */
struct AttentionMember
{
    const LayerKV *kv = nullptr;
    uint32_t pastLen = 0;
    /** Per-KV-head past-token selection; nullptr = full. Block
     *  tokens are always attended causally. */
    const LayerSelection *sel = nullptr;
    uint32_t rows = 0;
};

/**
 * Attention output for a ragged batch of query blocks.
 *
 * @param cfg     Model geometry shared by every member.
 * @param q       Post-RoPE queries, (sum of rows) x (nHeads*headDim);
 *                the members own consecutive row ranges, in order.
 * @param members One (cache, past length, selection, rows) per block.
 * @param out     Result, (sum of rows) x dModel (heads concatenated).
 *
 * Each member builds one attended-token list per KV head: its selected
 * past (all of 0..pastLen under selectAll or a null selection), then
 * the whole block. The KV head's query heads and every row share that
 * list; row t attends its first nPast + t + 1 entries, the causal
 * prefix. Every (row, head) output slice is still computed on its own
 * (scores by dotGather(), softmax, values by axpyGather()), so a
 * member's rows do not depend on its batch peers.
 */
void attentionForward(const ModelConfig &cfg, const Matrix &q,
                      const std::vector<AttentionMember> &members,
                      Matrix &out);

} // namespace vrex

#endif // VREX_LLM_ATTENTION_HH
