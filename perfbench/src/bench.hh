/**
 * @file
 * Shared declarations of the wall-clock serving benchmark: workload
 * schedules, the load generator's window results, the forwarding
 * probes of the traced run and the replay tracer.
 *
 * The benchmark drives serve::Engine through its public verbs only and
 * times calls into each layer from these files; nothing under src/ is
 * instrumented. See perfbench/README.md for every metric's definition.
 */

#ifndef VREX_PERFBENCH_BENCH_HH
#define VREX_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/resv.hh"
#include "kvstore/cold_store.hh"
#include "serve/engine.hh"

namespace vrex::perfbench
{

using Clock = std::chrono::steady_clock;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** CPU time of the whole process and of the calling thread. Both count
 *  only time a thread ran: time it waited for a core, in this process's
 *  run queue or (on a paravirtual guest) while the hypervisor ran
 *  another guest, is not included. */
int64_t processCpuNs();
int64_t threadCpuNs();

/** Thread CPU time of one pass of the fixed calibration kernel, and
 *  its median on the reference host when that host is quiet. A CPU
 *  time t measured next to a sample c is reported as t * kCalRefUs / c:
 *  the time the work would have taken on the quiet reference host. */
double calibrationSampleUs();
inline constexpr double kCalRefUs = 425.0;

/** Sample percentile (q in [0, 1]), linear between order statistics;
 *  0 for an empty sample. */
double percentile(std::vector<double> v, double q);
double meanOf(const std::vector<double> &v);

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

enum class Workload : uint8_t
{
    LiveQa,
    LongVideo,
    ChurnResume,
};

std::optional<Workload> parseWorkload(const std::string &name);
const char *workloadName(Workload w);

/** Every QA turn is COIN-average sized. */
inline constexpr uint32_t kQuestionTokens = 25;
inline constexpr uint32_t kAnswerTokens = 39;

enum class SendKind : uint8_t
{
    Frame,  //!< tryFeedFrame(1) into an open session.
    Turn,   //!< tryAsk(25, 39) into an open session.
    Arrive, //!< tryCreateSession + clip upload + first turn.
    Return, //!< Follow-up turn after the idle gap; close when done.
};

/** One open-loop send, due at a fixed offset from the window start. */
struct Send
{
    int64_t dueNs = 0;
    uint32_t stream = 0;
    SendKind kind = SendKind::Frame;
};

/** One session's generated inputs. */
struct Stream
{
    serve::SessionOptions options;
    /** The same inputs as a script (replay and fidelity). */
    SessionScript script;
    /** Frames uploaded on arrival (churn-resume clip). */
    uint32_t clipFrames = 0;
};

struct Schedule
{
    Workload workload = Workload::LiveQa;
    serve::EngineConfig engine;
    std::vector<Stream> streams;
    /** Open-loop sends in due order (empty for the closed loop, which
     *  walks its one stream's script). */
    std::vector<Send> sends;
    /** Streams whose sessions are created during set-up. */
    uint32_t precreated = 0;
    /** Streams the untraced output check and fidelity replay. */
    std::vector<uint32_t> sample;
    /** QA turns of a sampled script the check / fidelity replay
     *  (0 = the whole script). */
    uint32_t checkTurns = 0;
    uint32_t fidelityTurns = 0;
};

/** Build every schedule and script of a run from the seed. */
Schedule buildSchedule(Workload w, uint64_t seed, double seconds);

/** The script truncated after its @p turns-th answer (0 = whole). */
SessionScript prefixScript(const SessionScript &script, uint32_t turns);

// ------------------------------------------------------------------
// Load generator
// ------------------------------------------------------------------

/** Everything one timed window (or the service probe) measured. */
struct WindowResult
{
    std::vector<double> frameMs;       //!< Frame due -> prefill executed.
    std::vector<double> firstAnswerMs; //!< A session's first turn.
    std::vector<double> answerMs;      //!< Every later turn.
    std::vector<double> ttftMs;        //!< Later turns only.
    std::vector<double> tpotMs;        //!< Later turns only.
    std::vector<double> createMs;      //!< tryCreateSession calls.
    /** Generator-thread CPU of each tryCreateSession call. */
    std::vector<double> createCpuMs;
    /** Closed loop only: process CPU of each awaited frame, and of each
     *  turn's first token and later tokens (every turn). */
    std::vector<double> frameCpuMs, ttftCpuMs, tpotCpuMs;
    /** Service probe only: the calibration sample taken right after
     *  each create, frame and turn part above (same indices). */
    std::vector<double> createCalUs, frameCalUs, ttftCalUs, tpotCalUs;
    /** Open-loop window only: calibration samples taken while nothing
     *  was outstanding. */
    std::vector<double> calUs;
    std::vector<double> verbUs;        //!< Inside the enqueue verbs.
    std::vector<double> lagMs;         //!< Send time minus due time.
    std::vector<double> pollUs;        //!< Interval between poll sweeps.
    double frameLatencySumS = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Verbs issued per stream (a failed output check fails them). */
    std::vector<uint64_t> verbs;
    /** Engine-generated tokens of the captured streams. */
    std::vector<std::optional<std::vector<uint32_t>>> tokens;
    double wallS = 0.0;
    /** Process CPU over the window, and the part that served: the
     *  process minus the generator thread outside the engine's verbs. */
    double cpuS = 0.0;
    double serveCpuS = 0.0;
    serve::Stats stats;
};

/** A schedule with its engine built and its set-up sessions open. */
struct Prepared
{
    Schedule schedule;
    std::unique_ptr<serve::Engine> engine;
    std::vector<serve::SessionId> ids;
    std::vector<double> createMs;
};

/** Build the schedule and the engine; open the set-up sessions.
 *  @p factory / @p store replace the engine's (traced run). */
Prepared prepare(Workload w, uint64_t seed, double seconds,
                 const serve::PolicyFactory *factory = nullptr,
                 std::shared_ptr<ColdStore> store = nullptr);

/** Fixed untimed burst on throwaway sessions (caches, clocks). */
void warmUp(serve::Engine &engine);

/** Run the timed window. @p capture marks the streams whose
 *  generated tokens are read back (outside the timed latencies). */
WindowResult runWindow(Prepared &p, const std::vector<bool> &capture);

/** Closed-loop service probe on a fresh engine, for @p seconds: the
 *  streams' scripts (cut after checkTurns answers), sample streams
 *  first, then the others, cycling, run one session at a time with
 *  every frame and turn awaited, so each verb's process CPU is that
 *  verb's service cost. Captures the sample streams' tokens. */
WindowResult runServiceProbe(const Schedule &sch, double seconds);

// ------------------------------------------------------------------
// Traced run: spans and forwarding probes
// ------------------------------------------------------------------

enum class SpanKind : uint8_t
{
    Construct,     //!< pipeline: StreamingSession + policy built.
    Begin,         //!< pipeline: begin() (vision stack rebuilt).
    FeedFrame,     //!< pipeline verb; llm + video + core inside.
    FeedQuestion,  //!< pipeline verb; llm + core inside.
    GenerateToken, //!< pipeline verb generate(1); llm + core inside.
    Serialize,     //!< pipeline: serialize().
    Restore,       //!< pipeline: restore() onto a fresh session.
    CoreCluster,   //!< core: onBlockAppended (child span).
    CoreSelect,    //!< core: select (child span).
    VideoFrameGen, //!< video twin (measurement only).
    VideoEncode,   //!< video twin (measurement only).
    VideoProject,  //!< video twin (measurement only).
    LlmLogits,     //!< Model::lastLogits() probe (measurement only).
    Check,         //!< Twin set-up, snapshot and output comparison.
    Count,
};

const char *spanName(SpanKind k);
/** The trace-viewer category of a span: the layer it runs in. */
const char *spanLayer(SpanKind k);

struct Span
{
    int64_t startNs = 0;
    int64_t durNs = 0;
    /** Core child time (measured) and video time (twin estimate)
     *  inside this span. */
    int64_t coreNs = 0;
    int64_t videoNs = 0;
    int32_t parent = -1;
    uint32_t tid = 0;
    SpanKind kind = SpanKind::Check;
};

/** In-memory span recorder of the single-threaded replay. */
class Tracer
{
  public:
    /** Open a span (nested under the currently open one). */
    int32_t open(SpanKind kind, uint32_t tid);
    void close(int32_t idx);
    /** Record a finished span under the open one (top level when none
     *  is open); a core span also adds to its parent's coreNs. */
    void leaf(SpanKind kind, uint32_t tid, int64_t start_ns,
              int64_t dur_ns);

    std::vector<Span> &spans() { return all; }

  private:
    std::vector<Span> all;
    int32_t current = -1;
};

/** Aggregated counters of timed ReSV forwarders. */
struct CoreSink
{
    std::mutex mu;
    uint64_t clusterNs = 0, clusterCalls = 0;
    uint64_t selectNs = 0, selectCalls = 0;
    ResvCounters frame, text;
    uint64_t hamming = 0;
    /** Sampled when a policy is released (hibernate or close). */
    std::vector<double> tableKiB, clusterSize;
    /** Attention work of the selections (computed, not timed). */
    double attnFlops = 0.0;
    double kvBytesRead = 0.0;
    /** Replay only: core spans go here (single-threaded). */
    Tracer *tracer = nullptr;
};

/** A ResvPolicy behind a forwarder that times its two hooks and folds
 *  its counters into @p sink when reset or released. */
std::unique_ptr<SelectionPolicy> makeTimedResv(const ModelConfig &model,
                                               const ResvConfig &config,
                                               CoreSink &sink);

/** Register makeTimedResv as @p factory's ReSV maker. */
void installTimedResv(serve::PolicyFactory &factory, CoreSink &sink);

/** Forwarding MemoryColdStore that times put/get. */
class TimedColdStore : public ColdStore
{
  public:
    void put(uint64_t key, const std::vector<uint8_t> &blob) override;
    std::vector<uint8_t> get(uint64_t key) const override;
    bool contains(uint64_t key) const override;
    void erase(uint64_t key) override;
    uint64_t totalBytes() const override;
    uint64_t count() const override;
    Tier tier() const override;
    TransferStats stats() const override;

    std::vector<double> putUs() const;
    std::vector<double> getUs() const;

  private:
    MemoryColdStore inner;
    mutable std::mutex mu;
    mutable std::vector<double> puts, gets;
};

// ------------------------------------------------------------------
// Replay through StreamingSession
// ------------------------------------------------------------------

/** Untraced replay of @p script (the output check). */
std::vector<uint32_t> replayPlain(const serve::EngineConfig &engine,
                                  const SessionScript &script);

/** Per-frame times of the video twin (FrameGenerator -> VisionTower
 *  -> MlpProjector with the session's seeds and dimensions), of the
 *  logits probe before each generated token, and the blob sizes of
 *  the round trips. */
struct ProbeTimes
{
    std::vector<double> frameGenUs, encodeUs, projectUs, logitsUs;
    std::vector<double> blobKiB;
};

/** Traced replay of @p script: pipeline spans with core children, the
 *  video twin before each frame and the logits probe before each
 *  token, and one serialize -> fresh session -> restore round trip
 *  after the first answer (halfway when there is a single answer). */
std::vector<uint32_t> replayTraced(const serve::EngineConfig &engine,
                                   const SessionScript &script,
                                   uint32_t tid, Tracer &tracer,
                                   CoreSink &core, ProbeTimes &probes);

/** The replay reproduces the engine: equal tokens over the replay's
 *  length (a replayed prefix compares against the engine's prefix). */
bool tokensMatch(const std::vector<uint32_t> &engine,
                 const std::vector<uint32_t> &replay);

} // namespace vrex::perfbench

#endif // VREX_PERFBENCH_BENCH_HH
