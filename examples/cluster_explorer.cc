/**
 * @file
 * Cluster explorer: visualizes what hash-bit key clustering does to a
 * streaming key cache — cluster count growth, size distribution, and
 * the Hamming/cosine correlation that makes 32-bit signatures a
 * sound stand-in for full-precision similarity. Ends with the same
 * clustering observed in situ: a real engine-served session whose
 * ReSV policy exposes its per-layer/head HC tables.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/hash_encoder.hh"
#include "core/hc_table.hh"
#include "serve/engine.hh"
#include "tensor/ops.hh"
#include "video/frame_generator.hh"
#include "video/workload.hh"

using namespace vrex;

int
main()
{
    VideoConfig video;
    video.tokensPerFrame = 16;
    FrameGenerator gen(video, 42);
    HashEncoder enc(video.latentDim, 32, 7);
    HCTable table(video.latentDim, 32, 7);

    std::printf("streaming 40 frames of %u tokens into one HC table "
                "(N_hp=32, Th_hd=7)\n\n", video.tokensPerFrame);
    std::printf("%6s %8s %10s %14s\n", "frame", "tokens", "clusters",
                "tokens/cluster");

    uint32_t token_idx = 0;
    std::vector<Matrix> frames;
    for (int f = 0; f < 40; ++f) {
        Matrix latents = gen.nextFrameLatents();
        frames.push_back(latents);
        for (uint32_t t = 0; t < latents.rows(); ++t) {
            table.insert(token_idx++, latents.row(t),
                         enc.encode(latents.row(t)));
        }
        if ((f + 1) % 8 == 0) {
            std::printf("%6d %8u %10u %14.1f\n", f + 1,
                        table.tokenCount(), table.clusterCount(),
                        table.avgClusterSize());
        }
    }

    // Cluster size histogram (ASCII).
    std::printf("\ncluster size distribution:\n");
    std::vector<uint32_t> sizes;
    for (uint32_t c = 0; c < table.clusterCount(); ++c)
        sizes.push_back(table.clusterSize(c));
    std::sort(sizes.rbegin(), sizes.rend());
    uint32_t shown = std::min<size_t>(sizes.size(), 12);
    for (uint32_t i = 0; i < shown; ++i) {
        std::printf("  cluster %2u: %4u tokens |", i, sizes[i]);
        for (uint32_t b = 0; b < std::min(sizes[i], 60u); ++b)
            std::printf("#");
        std::printf("\n");
    }

    // Hamming vs cosine correlation over sampled token pairs.
    Rng rng(9);
    std::vector<double> cosines, hammings;
    for (int i = 0; i < 2000; ++i) {
        const Matrix &fa =
            frames[rng.uniformInt(frames.size())];
        const Matrix &fb =
            frames[rng.uniformInt(frames.size())];
        const float *a = fa.row(rng.uniformInt(fa.rows()));
        const float *b = fb.row(rng.uniformInt(fb.rows()));
        cosines.push_back(cosineSimilarity(a, b, video.latentDim));
        hammings.push_back(enc.encode(a).hamming(enc.encode(b)));
    }
    std::printf("\nhash-bit Hamming vs cosine correlation: %.2f "
                "(paper Fig. 7b: ~ -0.8)\n",
                pearson(cosines, hammings));
    std::printf("HC table memory: %.1f KiB for %u tokens\n",
                table.memoryBytes() / 1024.0, table.tokenCount());

    // The same clustering in situ: serve one session through the
    // engine under ReSV and inspect the policy's own HC tables,
    // which cluster post-RoPE *keys* per layer and KV head.
    serve::EngineConfig engine_cfg;
    engine_cfg.model = ModelConfig::tiny();
    engine_cfg.policy = serve::PolicySpec::resv();
    serve::Engine engine(engine_cfg);
    serve::SessionId id =
        engine.submit(WorkloadGenerator::coinAverage(21));
    engine.wait(id);
    const ResvPolicy *resv = engine.policy(id).resv();
    const ModelConfig &mc = engine.config().model;
    std::printf("\nin-session clustering (engine-served, %u layers "
                "x %u KV heads):\n", mc.nLayers, mc.nKvHeads);
    for (uint32_t l = 0; l < mc.nLayers; ++l) {
        std::printf("  layer %u clusters per head:", l);
        for (uint32_t h = 0; h < mc.nKvHeads; ++h)
            std::printf(" %4u", resv->table(l, h).clusterCount());
        std::printf("\n");
    }
    std::printf("overall: %.1f tokens/cluster, HC tables %.1f KiB\n",
                resv->avgClusterSize(),
                resv->tableMemoryBytes() / 1024.0);
    engine.closeSession(id);
    return 0;
}
