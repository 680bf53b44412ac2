/**
 * @file
 * Micro-benchmarks of the kernels behind the runtime dispatch layer
 * (core/kernels): XOR+popcount Hamming, hash-bit encoding, WiCSum
 * min/max + bucket-membership scan, the HC-table scan — the
 * software-side counterparts of the HCU and WTU — and the dense panel
 * (canonical 8-lane dot, tiled GEMM/GEMV, gathered attention scoring
 * and p·V, ReSV's fused score-max), plus a
 * continuity panel for the surrounding operations (cosine similarity,
 * HC-table insert, the reference WiCSum sort).
 *
 * Unlike the figure/table harnesses, the ns/op numbers here are host
 * wall-clock timings, so they are excluded from the figure drift gate
 * (`bench/baseline.json`). Instead every kernel row reports the
 * scalar-vs-dispatched `speedup` ratio — machine-relative and far
 * more stable — and `bench/perf_baseline.json` floor-gates those
 * ratios via `drift_check --baseline` (see bench/README.md: rows with
 * a measured speedup >= 2x get a floor at half the measured value;
 * everything else is recorded as `info`).
 *
 *   micro_core [--json PATH] [--csv PATH] [--quiet]
 *              [--write-perf-baseline PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/bench_compare.hh"
#include "common/bench_report.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "core/hash_encoder.hh"
#include "core/hc_table.hh"
#include "core/kernels.hh"
#include "core/wicsum.hh"
#include "tensor/ops.hh"

using namespace vrex;

namespace
{

/** Optimization sinks: every measured op feeds one of these. */
volatile uint64_t sinkU64 = 0;
volatile float sinkF32 = 0.0f;

/**
 * Best-of-3 ns per call of @p fn: batch size is calibrated until one
 * batch takes >= 1 ms, then the fastest of three batches wins (the
 * usual min-of-reps defense against scheduler noise).
 */
template <typename Fn>
double
nsPerOp(Fn &&fn)
{
    using Clock = std::chrono::steady_clock;
    auto batchNs = [&](uint64_t iters) {
        const auto t0 = Clock::now();
        for (uint64_t i = 0; i < iters; ++i)
            fn();
        return std::chrono::duration<double, std::nano>(
                   Clock::now() - t0)
            .count();
    };
    fn();  // Warm caches and the dispatch table.
    uint64_t iters = 1;
    while (batchNs(iters) < 1e6 && iters < (1ull << 28))
        iters *= 2;
    double best = batchNs(iters);
    for (int rep = 0; rep < 2; ++rep)
        best = std::min(best, batchNs(iters));
    return best / static_cast<double>(iters);
}

/** Non-scalar ISAs usable on this build + CPU. */
std::vector<kernels::Isa>
simdIsas()
{
    std::vector<kernels::Isa> out;
    for (kernels::Isa isa : kernels::compiledIsas()) {
        if (isa != kernels::Isa::Scalar && kernels::isaAvailable(isa))
            out.push_back(isa);
    }
    return out;
}

/** One kernel row: scalar + per-ISA ns/op and the speedup ratio. */
struct RowResult
{
    std::string panel;
    std::string row;
    double scalarNs = 0.0;
    std::vector<std::pair<kernels::Isa, double>> simdNs;
    double speedup = 1.0;  // scalar / best simd (1.0 without SIMD).
};

/**
 * Measure @p fn under the scalar table and under every available SIMD
 * table. @p fn must route through kernels::active() (directly or via
 * the rewired BitSig/HashEncoder/WiCSum paths).
 */
template <typename Fn>
RowResult
measureRow(const std::string &panel, const std::string &row, Fn &&fn)
{
    RowResult out;
    out.panel = panel;
    out.row = row;
    kernels::setActive(kernels::Isa::Scalar);
    out.scalarNs = nsPerOp(fn);
    double bestNs = out.scalarNs;
    for (kernels::Isa isa : simdIsas()) {
        kernels::setActive(isa);
        const double ns = nsPerOp(fn);
        out.simdNs.emplace_back(isa, ns);
        bestNs = std::min(bestNs, ns);
    }
    kernels::resetToAuto();
    out.speedup = out.scalarNs / bestNs;
    return out;
}

std::vector<uint64_t>
randomWords(Rng &rng, size_t n)
{
    std::vector<uint64_t> w(n);
    for (auto &v : w)
        v = rng.nextU64();
    return w;
}

std::vector<float>
randomKeys(uint32_t n, uint32_t dim, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> keys(static_cast<size_t>(n) * dim);
    rng.fillGaussian(keys.data(), keys.size(), 1.0f);
    return keys;
}

void
runKernelRows(std::vector<RowResult> &rows)
{
    // --- Hamming: XOR + popcount over packed signature words. ------
    Rng rng(0x11);
    for (uint32_t nbits : {64u, 256u, 512u, 4096u}) {
        const size_t nwords = bitWords(nbits);
        const auto a = randomWords(rng, nwords);
        const auto b = randomWords(rng, nwords);
        rows.push_back(measureRow(
            "hamming", "nbits=" + std::to_string(nbits), [&] {
                sinkU64 = sinkU64 +
                          kernels::hammingDistance(a.data(), b.data(),
                                                   nwords);
            }));
    }

    // --- HCU scan: one N_hp = 32 signature against a 128-cluster
    // table, nothing within Th_hd (random signatures sit ~16 bits
    // apart), so every row is compared. ---------------------------
    {
        const uint32_t n = 128;
        std::vector<uint64_t> table = randomWords(rng, n);
        for (auto &w : table)
            w &= 0xffffffffull;
        const uint64_t sig = rng.nextU64() & 0xffffffffull;
        rows.push_back(measureRow("hamming", "hc scan nbits=32 n=128", [&] {
            sinkU64 = sinkU64 + kernels::active().hammingNearest(
                                    table.data(), n, 1, &sig, 7);
        }));
    }

    // --- Hash-bit encode (end-to-end HashEncoder::encode). ---------
    for (uint32_t nbits : {32u, 512u}) {
        const uint32_t dim = 128;
        HashEncoder enc(dim, nbits, 7);
        const auto keys = randomKeys(256, dim, 1);
        uint32_t i = 0;
        rows.push_back(measureRow(
            "encode",
            "dim=128,nbits=" + std::to_string(nbits), [&] {
                const BitSig sig =
                    enc.encode(keys.data() + (i++ % 256) * dim);
                sinkU64 = sinkU64 + sig.raw()[0];
            }));
    }

    // --- WiCSum: min/max scan and the early-exit selection. --------
    {
        const uint32_t n = 4096;
        Rng wrng(5);
        std::vector<float> scores(n);
        std::vector<uint32_t> counts(n);
        for (uint32_t i = 0; i < n; ++i) {
            scores[i] = static_cast<float>(wrng.uniform());
            counts[i] =
                1 + static_cast<uint32_t>(wrng.uniformInt(32));
        }
        rows.push_back(measureRow("wicsum", "minmax n=4096", [&] {
            float lo, hi;
            kernels::active().minMaxF32(scores.data(), scores.size(),
                                        &lo, &hi);
            sinkF32 = sinkF32 + lo + hi;
        }));
        rows.push_back(measureRow("wicsum", "select n=4096", [&] {
            const WicsumResult r =
                wicsumSelectEarlyExit(scores, counts, 0.3f, 16);
            sinkU64 = sinkU64 + r.scanned + r.bucketsVisited;
        }));
    }

    // --- Dense: the transformer's dot, GEMM and attention. ---------
    for (uint32_t k : {16u, 128u, 256u}) {
        const auto ab = randomKeys(2, k, 21);
        rows.push_back(measureRow("dense", "dot k=" + std::to_string(k),
                                  [&] {
            sinkF32 = sinkF32 + kernels::active().dotF32(
                                    ab.data(), ab.data() + k, k);
        }));
    }
    // One tiny-model projection per shape: a 16-token frame block
    // against a 128x128 weight, and one decode row against 256x128.
    auto gemmRow = [&](const std::string &name, uint32_t m, uint32_t n,
                       uint32_t k) {
        const auto a = randomKeys(m, k, 22);
        const auto w = randomKeys(n, k, 23);
        std::vector<float> out(static_cast<size_t>(m) * n);
        rows.push_back(measureRow("dense", name, [&] {
            kernels::active().gemmRowsF32(a.data(), k, m, w.data(), k, n,
                                          k, out.data(), n);
            sinkF32 = sinkF32 + out[0];
        }));
    };
    gemmRow("gemm 16x128*(128x128)T", 16, 128, 128);
    gemmRow("gemv 1x128*(256x128)T", 1, 256, 128);
    {
        // One 16-wide head scored against 512 cached keys of a
        // 64-wide KV row (the tiny model's 4 KV heads x 16).
        const uint32_t n = 512, hd = 16, stride = 64;
        const auto keys = randomKeys(n, stride, 24);
        const auto q = randomKeys(1, hd, 25);
        std::vector<uint32_t> idx(n);
        for (uint32_t i = 0; i < n; ++i)
            idx[i] = i;
        std::vector<float> scores(n);
        rows.push_back(measureRow("dense", "gather k=16 n=512", [&] {
            kernels::active().dotGatherF32(q.data(), keys.data() + hd,
                                           stride, idx.data(), n, hd,
                                           scores.data());
            sinkF32 = sinkF32 + scores[0];
        }));
        // The same head's p·V: 512 probabilities weighting the value
        // slices of the same rows, accumulated into one output head.
        std::vector<float> p(n);
        for (uint32_t i = 0; i < n; ++i)
            p[i] = 1.0f / static_cast<float>(i + 2);
        std::vector<float> out(hd);
        rows.push_back(measureRow("dense", "axpy gather k=16 n=512", [&] {
            kernels::active().axpyGatherF32(p.data(), keys.data() + hd,
                                            stride, idx.data(), n, hd,
                                            out.data());
            sinkF32 = sinkF32 + out[0];
        }));
    }
    {
        // ReSV's candidate scoring for one query head: a 16-token
        // block of 16-wide queries against 64 contiguous centroids,
        // max-pooled into the candidates' running scores.
        const uint32_t rowsQ = 16, n = 64, hd = 16;
        const auto q = randomKeys(rowsQ, hd, 26);
        const auto cents = randomKeys(n, hd, 27);
        std::vector<float> raw(n, -1e30f);
        rows.push_back(measureRow(
            "dense", "resv score-max k=16 rows=16 n=64", [&] {
                kernels::active().gemmRowsMaxF32(q.data(), hd, rowsQ,
                                                 cents.data(), hd, n, hd,
                                                 0.25f, raw.data());
                sinkF32 = sinkF32 + raw[0];
            }));
    }
}

/** Info-gated baseline record for a context metric. */
bench::Record
infoRecord(const std::string &row, const std::string &metric,
           double value, const std::string &unit)
{
    bench::Record r;
    r.bench = "micro_core";
    r.panel = "context";
    r.row = row;
    r.metric = metric;
    r.value = value;
    r.unit = unit;
    r.gate = bench::Gate::Info;
    return r;
}

/** Non-dispatched neighbours, for longitudinal context (info only). */
void
runContextRows(bench::Reporter &rep, std::vector<bench::Record> &info)
{
    rep.beginPanel("context",
                   "Non-dispatched neighbours (host ns, info only)");
    rep.note("Wall-clock of the operations the kernels replace or "
             "feed; no dispatch, no gating.");

    const auto keys = randomKeys(2, 128, 3);
    const double nsCosine = nsPerOp([&] {
        sinkF32 = sinkF32 + cosineSimilarity(keys.data(),
                                             keys.data() + 128, 128);
    });
    rep.add("cosine dim=128", "ns", nsCosine, "ns", 1);
    info.push_back(infoRecord("cosine dim=128", "ns", nsCosine, "ns"));

    {
        const uint32_t n = 256, dim = 128;
        HashEncoder enc(dim, 32, 7);
        const auto tkeys = randomKeys(n, dim, 4);
        std::vector<BitSig> sigs;
        for (uint32_t t = 0; t < n; ++t)
            sigs.push_back(
                enc.encode(tkeys.data() + static_cast<size_t>(t) * dim));
        const double nsInsert = nsPerOp([&] {
            HCTable tab(dim, 32, 7);
            for (uint32_t t = 0; t < n; ++t)
                tab.insert(t,
                           tkeys.data() + static_cast<size_t>(t) * dim,
                           sigs[t]);
            sinkU64 = sinkU64 + tab.clusterCount();
        });
        rep.add("hc_insert n=256", "ns_per_token", nsInsert / n, "ns",
                1);
        info.push_back(infoRecord("hc_insert n=256", "ns_per_token",
                                  nsInsert / n, "ns"));
    }

    {
        const uint32_t n = 4096;
        Rng wrng(5);
        std::vector<float> scores(n);
        std::vector<uint32_t> counts(n);
        for (uint32_t i = 0; i < n; ++i) {
            scores[i] = static_cast<float>(wrng.uniform());
            counts[i] =
                1 + static_cast<uint32_t>(wrng.uniformInt(32));
        }
        const double nsRef = nsPerOp([&] {
            const WicsumResult r =
                wicsumSelectReference(scores, counts, 0.3f);
            sinkU64 = sinkU64 + r.scanned;
        });
        rep.add("wicsum_ref n=4096", "ns", nsRef, "ns", 1);
        info.push_back(
            infoRecord("wicsum_ref n=4096", "ns", nsRef, "ns"));
    }
}

void
reportRows(bench::Reporter &rep, const std::vector<RowResult> &rows)
{
    std::string curPanel;
    for (const auto &r : rows) {
        if (r.panel != curPanel) {
            curPanel = r.panel;
            rep.beginPanel(
                r.panel,
                (r.panel == "dense" ? "Dense kernel: " : "DRE kernel: ") +
                    r.panel + " (ns/op per ISA + scalar/simd speedup)");
            rep.note("ns values are host wall-clock (info only); the "
                     "dimensionless speedup ratios are what "
                     "bench/perf_baseline.json floor-gates.");
        }
        rep.add(r.row, "scalar_ns", r.scalarNs, "ns", 1);
        for (const auto &[isa, ns] : r.simdNs)
            rep.add(r.row, std::string(kernels::isaName(isa)) + "_ns",
                    ns, "ns", 1);
        rep.add(r.row, "speedup", r.speedup, "x", 2);
    }
}

/**
 * Derive the floor-gated perf baseline from this run: ns metrics are
 * informational; a speedup only becomes a floor when this machine
 * measured at least 2x (floor = half the measured ratio, so shared
 * runners have headroom), otherwise it is informational too.
 */
bool
writePerfBaseline(const std::string &path,
                  const std::vector<RowResult> &rows,
                  const std::vector<bench::Record> &info)
{
    bench::Baseline base;
    base.defaultRelTol = 0.25;
    base.defaultAbsTol = 1e-6;
    auto push = [&](const std::string &panel, const std::string &row,
                    const std::string &metric, double value,
                    const std::string &unit, bench::Gate gate) {
        bench::Record r;
        r.bench = "micro_core";
        r.panel = panel;
        r.row = row;
        r.metric = metric;
        r.value = value;
        r.unit = unit;
        r.gate = gate;
        base.records.push_back(std::move(r));
    };
    for (const auto &r : rows) {
        push(r.panel, r.row, "scalar_ns", r.scalarNs, "ns",
             bench::Gate::Info);
        for (const auto &[isa, ns] : r.simdNs)
            push(r.panel, r.row,
                 std::string(kernels::isaName(isa)) + "_ns", ns, "ns",
                 bench::Gate::Info);
        const bool gate = r.speedup >= 2.0;
        push(r.panel, r.row, "speedup",
             gate ? r.speedup / 2.0 : r.speedup, "x",
             gate ? bench::Gate::Floor : bench::Gate::Info);
    }
    for (const auto &r : info)
        base.records.push_back(r);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << bench::renderBaseline(base)).flush()) {
        std::fprintf(stderr, "micro_core: cannot write %s\n",
                     path.c_str());
        return false;
    }
    std::printf("wrote %s: %zu perf metrics\n", path.c_str(),
                base.records.size());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the bench-local --write-perf-baseline flag before the
    // shared flag parser sees the command line.
    std::string perfBaselinePath;
    std::vector<char *> passThrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (i + 1 < argc &&
            std::strcmp(argv[i], "--write-perf-baseline") == 0) {
            perfBaselinePath = argv[++i];
            continue;
        }
        passThrough.push_back(argv[i]);
    }

    std::vector<RowResult> rows;
    std::vector<bench::Record> contextInfo;
    const int rc = bench::runBench(
        "micro_core", static_cast<int>(passThrough.size()),
        passThrough.data(),
        [&rows, &contextInfo](bench::Reporter &rep) {
            runKernelRows(rows);
            reportRows(rep, rows);
            runContextRows(rep, contextInfo);
        });
    if (rc != 0)
        return rc;
    if (!perfBaselinePath.empty() &&
        !writePerfBaseline(perfBaselinePath, rows, contextInfo))
        return 1;
    return 0;
}
