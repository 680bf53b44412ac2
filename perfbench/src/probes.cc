/**
 * @file
 * The traced run's forwarding probes: a timed ReSV policy installed
 * through PolicyFactory::registerMaker, a timed cold store passed via
 * KvBudgetConfig::store, and the replay's span recorder.
 */

#include <iterator>

#include "bench.hh"
#include "core/resv.hh"

namespace vrex::perfbench
{

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

const char *
spanName(SpanKind k)
{
    static const char *const names[] = {
        "pipeline.construct",   "pipeline.begin",
        "pipeline.feed_frame",  "pipeline.feed_question",
        "pipeline.generate_token", "pipeline.serialize",
        "pipeline.restore",     "core.cluster",
        "core.select",          "video.frame_gen",
        "video.encode",         "video.project",
        "llm.logits",           "harness.check",
    };
    static_assert(std::size(names) == static_cast<size_t>(SpanKind::Count));
    return names[static_cast<size_t>(k)];
}

const char *
spanLayer(SpanKind k)
{
    switch (k) {
      case SpanKind::CoreCluster:
      case SpanKind::CoreSelect:
        return "core";
      case SpanKind::VideoFrameGen:
      case SpanKind::VideoEncode:
      case SpanKind::VideoProject:
        return "video";
      case SpanKind::LlmLogits:
        return "llm";
      case SpanKind::Check:
        return "harness";
      default:
        return "pipeline";
    }
}

int32_t
Tracer::open(SpanKind kind, uint32_t tid)
{
    Span s;
    s.kind = kind;
    s.tid = tid;
    s.parent = current;
    all.push_back(s);
    current = static_cast<int32_t>(all.size() - 1);
    all.back().startNs = nowNs();
    return current;
}

void
Tracer::close(int32_t idx)
{
    Span &s = all[idx];
    s.durNs = nowNs() - s.startNs;
    current = s.parent;
}

void
Tracer::leaf(SpanKind kind, uint32_t tid, int64_t start_ns, int64_t dur_ns)
{
    Span s;
    s.kind = kind;
    s.tid = current >= 0 ? all[current].tid : tid;
    s.parent = current;
    s.startNs = start_ns;
    s.durNs = dur_ns;
    if (current >= 0 && (kind == SpanKind::CoreCluster ||
                         kind == SpanKind::CoreSelect))
        all[current].coreNs += dur_ns;
    all.push_back(s);
}

// ------------------------------------------------------------------
// Timed ReSV forwarder
// ------------------------------------------------------------------

namespace
{

void
addDelta(ResvCounters &dst, const ResvCounters &now, const ResvCounters &base)
{
    dst.predictionMacs += now.predictionMacs - base.predictionMacs;
    dst.clustersScanned += now.clustersScanned - base.clustersScanned;
    dst.clustersSelected += now.clustersSelected - base.clustersSelected;
    dst.tokensSelected += now.tokensSelected - base.tokensSelected;
    dst.pastTokens += now.pastTokens - base.pastTokens;
    dst.wicsumScanned += now.wicsumScanned - base.wicsumScanned;
    dst.selectCalls += now.selectCalls - base.selectCalls;
}

/**
 * Forwards every hook to an owned ResvPolicy. Timings and computed
 * work accumulate locally (one session runs on one worker at a time)
 * and fold into the shared sink on reset, restore and release.
 * ResvPolicy's counters travel inside hibernation blobs, so only the
 * delta since the last fold (or restore) is added.
 */
class TimedResv final : public SelectionPolicy
{
  public:
    TimedResv(const ModelConfig &model_cfg, const ResvConfig &config,
              CoreSink &core_sink)
        : model(model_cfg), inner(model_cfg, config), sink(core_sink)
    {
    }

    ~TimedResv() override { fold(true); }

    TimedResv(const TimedResv &) = delete;
    TimedResv &operator=(const TimedResv &) = delete;

    void
    onBlockAppended(uint32_t layer, const KVCache &cache,
                    uint32_t block_start, uint32_t block_len,
                    TokenStage stage) override
    {
        const int64_t t0 = nowNs();
        inner.onBlockAppended(layer, cache, block_start, block_len, stage);
        const int64_t dt = nowNs() - t0;
        clusterNs += dt;
        ++clusterCalls;
        if (sink.tracer)
            sink.tracer->leaf(SpanKind::CoreCluster, 0, t0, dt);
    }

    LayerSelection
    select(uint32_t layer, const Matrix &q, const KVCache &cache,
           uint32_t past_len, TokenStage stage) override
    {
        const int64_t t0 = nowNs();
        LayerSelection sel = inner.select(layer, q, cache, past_len, stage);
        const int64_t dt = nowNs() - t0;
        selectNs += dt;
        ++selectCalls;
        if (sink.tracer)
            sink.tracer->leaf(SpanKind::CoreSelect, 0, t0, dt);

        // Attention work this selection admits: each of the T query
        // rows reads the selected past rows plus the causal part of
        // its own block; K and V rows are read once per block.
        const double t = q.rows();
        double selected = 0.0;
        for (const HeadSelection &h : sel.kvHeads)
            selected += h.selectedCount(past_len);
        const double kv_heads = model.nKvHeads;
        const double kv_per_query = selected / kv_heads + (t + 1.0) / 2.0;
        attnFlops += model.attentionFlops(q.rows(), 1) / model.nLayers *
                     kv_per_query;
        kvBytesRead += (selected + kv_heads * t) * 2.0 *
                       model.headDim() * sizeof(float);
        return sel;
    }

    void
    reset() override
    {
        fold(false);
        inner.reset();
        rebase();
    }

    void
    serializeState(serial::ByteWriter &w) const override
    {
        inner.serializeState(w);
    }

    void
    restoreState(serial::ByteReader &r) override
    {
        fold(false);
        inner.restoreState(r);
        rebase();
    }

  private:
    void
    rebase()
    {
        baseFrame = inner.frameCounters();
        baseText = inner.textCounters();
        baseHamming = inner.totalHammingComparisons();
    }

    void
    fold(bool released)
    {
        std::lock_guard<std::mutex> lock(sink.mu);
        sink.clusterNs += clusterNs;
        sink.clusterCalls += clusterCalls;
        sink.selectNs += selectNs;
        sink.selectCalls += selectCalls;
        sink.attnFlops += attnFlops;
        sink.kvBytesRead += kvBytesRead;
        addDelta(sink.frame, inner.frameCounters(), baseFrame);
        addDelta(sink.text, inner.textCounters(), baseText);
        sink.hamming += inner.totalHammingComparisons() - baseHamming;
        if (released) {
            sink.tableKiB.push_back(inner.tableMemoryBytes() / 1024.0);
            sink.clusterSize.push_back(inner.avgClusterSize());
        }
        clusterNs = clusterCalls = selectNs = selectCalls = 0;
        attnFlops = kvBytesRead = 0.0;
        rebase();
    }

    ModelConfig model;
    ResvPolicy inner;
    CoreSink &sink;
    uint64_t clusterNs = 0, clusterCalls = 0;
    uint64_t selectNs = 0, selectCalls = 0;
    double attnFlops = 0.0, kvBytesRead = 0.0;
    ResvCounters baseFrame, baseText;
    uint64_t baseHamming = 0;
};

} // namespace

std::unique_ptr<SelectionPolicy>
makeTimedResv(const ModelConfig &model, const ResvConfig &config,
              CoreSink &sink)
{
    return std::make_unique<TimedResv>(model, config, sink);
}

void
installTimedResv(serve::PolicyFactory &factory, CoreSink &sink)
{
    factory.registerMaker(
        serve::PolicyKind::ReSV,
        [&sink](const ModelConfig &model, const serve::PolicySpec &spec) {
            return makeTimedResv(model, spec.resvCfg, sink);
        });
}

// ------------------------------------------------------------------
// Timed cold store
// ------------------------------------------------------------------

void
TimedColdStore::put(uint64_t key, const std::vector<uint8_t> &blob)
{
    const int64_t t0 = nowNs();
    inner.put(key, blob);
    const double us = static_cast<double>(nowNs() - t0) / 1e3;
    std::lock_guard<std::mutex> lock(mu);
    puts.push_back(us);
}

std::vector<uint8_t>
TimedColdStore::get(uint64_t key) const
{
    const int64_t t0 = nowNs();
    std::vector<uint8_t> blob = inner.get(key);
    const double us = static_cast<double>(nowNs() - t0) / 1e3;
    std::lock_guard<std::mutex> lock(mu);
    gets.push_back(us);
    return blob;
}

bool
TimedColdStore::contains(uint64_t key) const
{
    return inner.contains(key);
}

void
TimedColdStore::erase(uint64_t key)
{
    inner.erase(key);
}

uint64_t
TimedColdStore::totalBytes() const
{
    return inner.totalBytes();
}

uint64_t
TimedColdStore::count() const
{
    return inner.count();
}

Tier
TimedColdStore::tier() const
{
    return inner.tier();
}

TransferStats
TimedColdStore::stats() const
{
    return inner.stats();
}

std::vector<double>
TimedColdStore::putUs() const
{
    std::lock_guard<std::mutex> lock(mu);
    return puts;
}

std::vector<double>
TimedColdStore::getUs() const
{
    std::lock_guard<std::mutex> lock(mu);
    return gets;
}

} // namespace vrex::perfbench
