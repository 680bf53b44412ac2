/**
 * @file
 * Session hibernation tests (ctest label: hibernate).
 *
 * Locks the PR-7 contracts:
 *  - serial framing rejects truncation, corruption, foreign blobs and
 *    cross-version restores before any payload is interpreted;
 *  - StreamingSession::serialize/restore is bit-exact: a session
 *    restored at any event boundary continues byte-identically to one
 *    that never hibernated, for every policy kind (including the
 *    memory-tracking decorator), and re-serializing a restored
 *    session reproduces the original blob byte for byte;
 *  - the ColdStore implementations store/fetch/erase blobs and
 *    account traffic (FileColdStore persists across instances);
 *  - KvBudget selects victims Bulk-first / least-recently-executed
 *    and keeps resident-byte accounting through transitions;
 *  - the Engine hibernates under a tiny KV budget and wakes
 *    transparently on the next verb or drained accessor, with
 *    per-session results identical to sequential ground truth across
 *    the scheduler shape zoo; the default budget of 0 changes
 *    nothing;
 *  - restore() refuses state shapes the session would later index
 *    out of bounds (crafted blobs with a valid footer), and a seeded
 *    fuzz of resealed ReSV blobs (byte flips, truncations, inflated
 *    lengths) only ever restores or throws serial::SerialError;
 *  - the Engine interns one SessionWeights per master seed: creates,
 *    closes, wakes and concurrent creators all share it, Stats::kv
 *    counts its bytes once, and a stream whose latentDim the vision
 *    tower cannot take is refused at begin() and at restore().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/serial.hh"
#include "core/hc_table.hh"
#include "kvstore/cold_store.hh"
#include "serve/engine.hh"
#include "serve/kv_budget.hh"
#include "testutil.hh"

using namespace vrex;
using namespace vrex::testutil;

namespace
{

/** Every policy kind plus the replay-decorated ReSV variant. */
std::vector<serve::PolicySpec>
hibernateSpecZoo()
{
    std::vector<serve::PolicySpec> specs = policySpecZoo();
    TierConfig tiers;
    tiers.deviceKvCapacityBytes = 4096;
    specs.push_back(serve::PolicySpec::resv().withMemoryTracking(tiers));
    return specs;
}

/** Re-seal @p blob after editing: recompute the footer checksum. */
void
resealBlob(std::vector<uint8_t> &blob)
{
    const size_t body = blob.size() - sizeof(uint64_t);
    const uint64_t sum = serial::fnv1a64(blob.data(), body);
    std::memcpy(blob.data() + body, &sum, sizeof(sum));
}

/** A fresh (unbegun) session for (model, spec, seed); the policy
 *  instance must outlive the session. */
StreamingSession
freshSession(const ModelConfig &model, const serve::PolicySpec &spec,
             uint64_t seed, serve::PolicyInstance &holder)
{
    holder = serve::makePolicy(model, spec);
    return StreamingSession(model, holder.active(), seed);
}

/**
 * A FrameGenerator payload under a valid footer: a scene latent of
 * @p scene values, an offset count of @p declared_rows, then @p rows
 * offset rows of @p row_width values each.
 */
std::vector<uint8_t>
generatorBlob(uint64_t scene, uint64_t declared_rows, uint64_t rows,
              uint64_t row_width)
{
    serial::ByteWriter w(1);
    for (uint64_t i = 1; i <= 4; ++i)
        w.put<uint64_t>(i); // RNG state.
    w.put<double>(0.0);
    w.putBool(false);
    w.putVec(std::vector<float>(scene, 0.5f));
    w.put<uint64_t>(declared_rows);
    for (uint64_t i = 0; i < rows; ++i)
        w.putVec(std::vector<float>(row_width, 0.25f));
    w.put<uint32_t>(1); // frameCount
    w.put<uint32_t>(1); // scenes
    return w.finish();
}

/**
 * A KVCache payload for @p cfg under a valid footer: every layer's K
 * and V are @p rows x @p cols, followed by @p tokens meta records of
 * stage byte @p stage.
 */
std::vector<uint8_t>
kvBlob(const ModelConfig &cfg, uint32_t rows, uint32_t cols,
       uint32_t tokens, uint8_t stage)
{
    serial::ByteWriter w(1);
    w.put<uint32_t>(cfg.nLayers);
    for (uint32_t l = 0; l < 2 * cfg.nLayers; ++l)
        serializeMatrix(w, Matrix(rows, cols));
    w.put<uint64_t>(tokens);
    for (uint32_t t = 0; t < tokens; ++t) {
        w.put<int32_t>(0);
        w.put<uint8_t>(stage);
        w.put<uint32_t>(t);
    }
    w.put<uint32_t>(tokens); // pendingTokens
    w.put<uint32_t>(1);      // numFrames
    return w.finish();
}

/** One crafted HC-table row: signature word, members, bit counts. */
struct HcRow
{
    uint64_t sig;
    std::vector<uint32_t> tokens;
    std::vector<uint32_t> ones;
};

/** Geometry of the crafted HC tables: key dim, signature bits, Th_hd. */
constexpr uint32_t kHcDim = 2, kHcBits = 8, kHcTh = 2;

/**
 * An HCTable payload under a valid footer: @p rows, declaring
 * @p tokens tokens in all.
 */
std::vector<uint8_t>
hcTableBlob(uint32_t tokens, const std::vector<HcRow> &rows)
{
    serial::ByteWriter w(1);
    w.put<uint32_t>(kHcDim);
    w.put<uint32_t>(kHcBits);
    w.put<uint32_t>(kHcTh);
    w.put<uint32_t>(tokens);
    w.put<uint64_t>(5); // Hamming comparisons.
    w.put<uint64_t>(rows.size());
    for (const HcRow &row : rows) {
        w.putVec(std::vector<uint64_t>{row.sig});
        w.putVec(std::vector<float>{0.5f, -0.25f});
        w.putVec(row.tokens);
        w.putVec(row.ones);
    }
    return w.finish();
}

/** Tokens {0, 2} and {1}: a table insert() could have built. */
std::vector<HcRow>
validHcRows()
{
    return {{0x05, {0, 2}, {2, 0, 2, 0, 0, 0, 0, 0}},
            {0x02, {1}, {0, 1, 0, 0, 0, 0, 0, 0}}};
}

/** Restores @p blob into a fresh table; returns its cluster count. */
uint32_t
restoreHcTable(const std::vector<uint8_t> &blob)
{
    HCTable tab(kHcDim, kHcBits, kHcTh);
    serial::ByteReader r(blob, 1);
    tab.restore(r);
    r.expectEnd();
    return tab.clusterCount();
}

} // namespace

// ---------------------------------------------------------------
// serial framing
// ---------------------------------------------------------------

TEST(Serial, PrimitiveRoundTrip)
{
    serial::ByteWriter w(7);
    w.put<uint32_t>(0xdeadbeefu);
    w.put<uint64_t>(0x0123456789abcdefull);
    w.put<double>(-0.1);
    w.putBool(true);
    w.putBool(false);
    w.putString("hibernate");
    w.putString("");
    w.putVec<float>({1.5f, -2.25f, 0.0f});
    w.putVec<uint32_t>({});
    std::vector<uint8_t> blob = w.finish();

    serial::ByteReader r(blob, 7);
    EXPECT_EQ(r.get<uint32_t>(), 0xdeadbeefu);
    EXPECT_EQ(r.get<uint64_t>(), 0x0123456789abcdefull);
    EXPECT_EQ(r.get<double>(), -0.1);
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getString(), "hibernate");
    EXPECT_EQ(r.getString(), "");
    EXPECT_EQ(r.getVec<float>(), (std::vector<float>{1.5f, -2.25f, 0.0f}));
    EXPECT_TRUE(r.getVec<uint32_t>().empty());
    r.expectEnd();
}

TEST(Serial, RejectsTruncation)
{
    serial::ByteWriter w(1);
    w.putVec<uint64_t>({1, 2, 3, 4});
    std::vector<uint8_t> blob = w.finish();
    for (size_t keep : {size_t(0), size_t(7), size_t(15),
                        blob.size() - 1}) {
        std::vector<uint8_t> cut(blob.begin(), blob.begin() + keep);
        EXPECT_THROW(serial::ByteReader(cut, 1), serial::SerialError)
            << "kept " << keep << " bytes";
    }
}

TEST(Serial, RejectsCorruption)
{
    serial::ByteWriter w(1);
    w.putString("payload-payload-payload");
    std::vector<uint8_t> blob = w.finish();
    // Any flipped byte — header, payload, or footer — must be caught
    // by the checksum (or the checksum itself no longer matches).
    for (size_t at = 0; at < blob.size(); at += 3) {
        std::vector<uint8_t> bad = blob;
        bad[at] ^= 0x40;
        EXPECT_THROW(serial::ByteReader(bad, 1), serial::SerialError)
            << "flipped byte " << at;
    }
}

TEST(Serial, RejectsForeignMagic)
{
    serial::ByteWriter w(1);
    w.put<uint32_t>(99);
    std::vector<uint8_t> blob = w.finish();
    std::memcpy(blob.data(), "JUNK", 4);
    resealBlob(blob); // Valid checksum, wrong magic.
    EXPECT_THROW(serial::ByteReader(blob, 1), serial::SerialError);
}

TEST(Serial, RejectsCrossVersion)
{
    serial::ByteWriter w(2);
    w.put<uint32_t>(99);
    std::vector<uint8_t> blob = w.finish();
    EXPECT_THROW(serial::ByteReader(blob, 1), serial::SerialError);
    EXPECT_NO_THROW(serial::ByteReader(blob, 2));
}

TEST(Serial, RejectsOversizedVectorLength)
{
    serial::ByteWriter w(1);
    w.put<uint64_t>(uint64_t(1) << 60); // Insane element count.
    std::vector<uint8_t> blob = w.finish();
    serial::ByteReader r(blob, 1);
    EXPECT_THROW((void)r.getVec<uint32_t>(), serial::SerialError);
}

TEST(Serial, ExpectEndCatchesTrailingPayload)
{
    serial::ByteWriter w(1);
    w.put<uint32_t>(1);
    w.put<uint32_t>(2);
    std::vector<uint8_t> blob = w.finish();
    serial::ByteReader r(blob, 1);
    EXPECT_EQ(r.get<uint32_t>(), 1u);
    EXPECT_THROW(r.expectEnd(), serial::SerialError);
    EXPECT_EQ(r.get<uint32_t>(), 2u);
    EXPECT_NO_THROW(r.expectEnd());
}

// ---------------------------------------------------------------
// StreamingSession serialize/restore
// ---------------------------------------------------------------

TEST(SessionSerialize, MidRunRestoreMatchesUninterrupted)
{
    const ModelConfig model = ModelConfig::tiny();
    const uint64_t seed = 77;
    const auto specs = hibernateSpecZoo();
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        const serve::PolicySpec &spec = specs[i];
        SessionScript script = randomVerbScript(900 + i, i);
        const SessionRunResult ref =
            sequentialReplay(model, script, spec, seed);

        // Run half the script, hibernate, restore onto a fresh
        // equivalent session, finish there.
        const size_t cut = script.events.size() / 2;
        serve::PolicyInstance p1;
        StreamingSession s1 = freshSession(model, spec, seed, p1);
        s1.begin(script.name, script.video, script.seed);
        for (size_t e = 0; e < cut; ++e)
            s1.apply(script.events[e]);
        const std::vector<uint8_t> blob = s1.serialize();

        serve::PolicyInstance p2;
        StreamingSession s2 = freshSession(model, spec, seed, p2);
        s2.restore(blob);
        // A restored session re-serializes to the identical blob.
        EXPECT_EQ(s2.serialize(), blob);
        for (size_t e = cut; e < script.events.size(); ++e)
            s2.apply(script.events[e]);
        expectIdenticalRuns(s2.snapshot(), ref);
    }
}

TEST(SessionSerialize, EveryEventBoundaryIsARestorePoint)
{
    const ModelConfig model = ModelConfig::tiny();
    const uint64_t seed = 31;
    ResvConfig rc;
    rc.thrWics = 0.4f;
    const serve::PolicySpec spec = serve::PolicySpec::resv(rc);
    SessionScript script = randomVerbScript(333, 0);
    const SessionRunResult ref =
        sequentialReplay(model, script, spec, seed);

    for (size_t cut = 0; cut <= script.events.size(); ++cut) {
        SCOPED_TRACE("cut " + std::to_string(cut));
        serve::PolicyInstance p1;
        StreamingSession s1 = freshSession(model, spec, seed, p1);
        s1.begin(script.name, script.video, script.seed);
        for (size_t e = 0; e < cut; ++e)
            s1.apply(script.events[e]);
        const std::vector<uint8_t> blob = s1.serialize();

        serve::PolicyInstance p2;
        StreamingSession s2 = freshSession(model, spec, seed, p2);
        s2.restore(blob);
        for (size_t e = cut; e < script.events.size(); ++e)
            s2.apply(script.events[e]);
        expectIdenticalRuns(s2.snapshot(), ref);
    }
}

TEST(SessionSerialize, RestoredSessionKeepsTeacherForcing)
{
    const ModelConfig model = ModelConfig::tiny();
    const serve::PolicySpec spec = serve::PolicySpec::full();
    SessionScript script = randomVerbScript(555, 2);

    // Reference: forced run, uninterrupted.
    serve::PolicyInstance pr;
    StreamingSession sr = freshSession(model, spec, 9, pr);
    const std::vector<uint32_t> forced(24, 3);
    const SessionRunResult ref = sr.run(script, forced);

    serve::PolicyInstance p1;
    StreamingSession s1 = freshSession(model, spec, 9, p1);
    s1.begin(script.name, script.video, script.seed, forced);
    const size_t cut = script.events.size() / 2;
    for (size_t e = 0; e < cut; ++e)
        s1.apply(script.events[e]);
    const std::vector<uint8_t> blob = s1.serialize();

    serve::PolicyInstance p2;
    StreamingSession s2 = freshSession(model, spec, 9, p2);
    s2.restore(blob); // Forced tokens + position travel in the blob.
    for (size_t e = cut; e < script.events.size(); ++e)
        s2.apply(script.events[e]);
    expectIdenticalRuns(s2.snapshot(), ref);
}

TEST(SessionSerialize, RejectsCorruptionTruncationAndVersionSkew)
{
    const ModelConfig model = ModelConfig::tiny();
    const serve::PolicySpec spec = serve::PolicySpec::rekv(0.3f);
    SessionScript script = randomVerbScript(444, 1);

    serve::PolicyInstance p1;
    StreamingSession s1 = freshSession(model, spec, 5, p1);
    s1.begin(script.name, script.video, script.seed);
    for (size_t e = 0; e < script.events.size() / 2; ++e)
        s1.apply(script.events[e]);
    const std::vector<uint8_t> blob = s1.serialize();

    serve::PolicyInstance p2;
    StreamingSession s2 = freshSession(model, spec, 5, p2);

    // Corruption: flipped bytes across the blob.
    for (size_t at = 0; at < blob.size();
         at += std::max<size_t>(1, blob.size() / 13)) {
        std::vector<uint8_t> bad = blob;
        bad[at] ^= 0x01;
        EXPECT_THROW(s2.restore(bad), serial::SerialError)
            << "flipped byte " << at;
    }

    // Truncation at several points.
    for (size_t keep : {size_t(0), size_t(10), blob.size() / 2,
                        blob.size() - 1}) {
        std::vector<uint8_t> cut(blob.begin(), blob.begin() + keep);
        EXPECT_THROW(s2.restore(cut), serial::SerialError)
            << "kept " << keep << " bytes";
    }

    // Version skew either way (an older layout or a newer one):
    // rewrite the version field, re-seal the checksum — the reader
    // must refuse on version, not checksum.
    for (uint32_t version : {StreamingSession::kBlobVersion - 1,
                             StreamingSession::kBlobVersion + 1}) {
        std::vector<uint8_t> skewed = blob;
        std::memcpy(skewed.data() + sizeof(uint32_t), &version,
                    sizeof(version));
        resealBlob(skewed);
        EXPECT_THROW(s2.restore(skewed), serial::SerialError)
            << "version " << version;
    }

    // The unmodified blob still restores fine afterwards.
    EXPECT_NO_THROW(s2.restore(blob));
}

TEST(SessionSerialize, RejectsIdentityMismatch)
{
    const ModelConfig model = ModelConfig::tiny();
    const serve::PolicySpec spec = serve::PolicySpec::flexgen();
    SessionScript script = randomVerbScript(666, 3);

    serve::PolicyInstance p1;
    StreamingSession s1 = freshSession(model, spec, 21, p1);
    s1.begin(script.name, script.video, script.seed);
    for (size_t e = 0; e < 4; ++e)
        s1.apply(script.events[e]);
    const std::vector<uint8_t> blob = s1.serialize();

    // Wrong master seed.
    serve::PolicyInstance p2;
    StreamingSession other_seed = freshSession(model, spec, 22, p2);
    EXPECT_THROW(other_seed.restore(blob), serial::SerialError);

    // Wrong model geometry.
    ModelConfig grown = model;
    grown.nLayers += 1;
    serve::PolicyInstance p3;
    StreamingSession other_geom = freshSession(grown, spec, 21, p3);
    EXPECT_THROW(other_geom.restore(blob), serial::SerialError);

    // Policy-presence mismatch: blob carries policy state, the
    // restoring session runs full attention with no policy.
    StreamingSession no_policy(model, nullptr, 21);
    EXPECT_THROW(no_policy.restore(blob), serial::SerialError);

    // And the mirror image: policy-less blob into a policied session.
    StreamingSession bare(model, nullptr, 21);
    bare.begin(script.name, script.video, script.seed);
    bare.apply(script.events[0]);
    const std::vector<uint8_t> bare_blob = bare.serialize();
    serve::PolicyInstance p4;
    StreamingSession policied = freshSession(model, spec, 21, p4);
    EXPECT_THROW(policied.restore(bare_blob), serial::SerialError);
}

TEST(SessionSerialize, SeededRestoreFuzzOnlyThrowsSerialError)
{
    // A real ReSV blob (HC tables, counters, KV cache, stream state),
    // mutated ~2000 times under a fixed seed: byte flips, truncations
    // and length-like fields inflated to 2^31 / 2^63. Every mutant is
    // resealed with a valid footer so the payload parsers are reached.
    // Each restore must succeed or throw serial::SerialError; any
    // other exception fails the test, and a crash or ASan report
    // fails the suite.
    const ModelConfig model = ModelConfig::tiny();
    const serve::PolicySpec spec = serve::PolicySpec::resv();
    const uint64_t seed = 31;
    const SessionScript script = randomVerbScript(4242, 2);
    serve::PolicyInstance p1;
    StreamingSession s1 = freshSession(model, spec, seed, p1);
    s1.begin(script.name, script.video, script.seed);
    for (size_t e = 0; e < std::min<size_t>(script.events.size(), 8); ++e)
        s1.apply(script.events[e]);
    const std::vector<uint8_t> blob = s1.serialize();
    const size_t footer = sizeof(uint64_t);
    const size_t header = 2 * sizeof(uint32_t);
    ASSERT_GT(blob.size(), header + footer + 64);
    const size_t body = blob.size() - footer;

    // Offsets whose u64 / u32 reads like a count or length: the
    // fields an inflated length would target.
    std::vector<size_t> len64, len32;
    for (size_t at = header; at + sizeof(uint64_t) <= body; ++at) {
        uint64_t v64;
        std::memcpy(&v64, blob.data() + at, sizeof(v64));
        if (v64 >= 1 && v64 <= (uint64_t(1) << 24))
            len64.push_back(at);
    }
    for (size_t at = header; at + sizeof(uint32_t) <= body; ++at) {
        uint32_t v32;
        std::memcpy(&v32, blob.data() + at, sizeof(v32));
        if (v32 >= 1 && v32 <= (1u << 24))
            len32.push_back(at);
    }
    ASSERT_FALSE(len64.empty());
    ASSERT_FALSE(len32.empty());

    // Every mutant restores onto a fresh session over one shared
    // weight set, as an engine wake does.
    const auto weights = std::make_shared<const SessionWeights>(model, seed);
    Rng rng(0xf022u);
    const uint64_t inflated64[] = {uint64_t(1) << 31, uint64_t(1) << 63,
                                   ~uint64_t(0)};
    const uint32_t inflated32[] = {1u << 31, ~0u};
    size_t restored = 0, refused = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<uint8_t> bad = blob;
        const uint64_t kind = rng.uniformInt(4);
        if (kind == 0) {
            // One to four flipped bits anywhere past the header.
            const uint64_t flips = 1 + rng.uniformInt(4);
            for (uint64_t f = 0; f < flips; ++f)
                bad[header + rng.uniformInt(body - header)] ^=
                    static_cast<uint8_t>(1u << rng.uniformInt(8));
        } else if (kind == 1) {
            // Truncated payload under a fresh footer.
            const size_t keep = header + rng.uniformInt(body - header);
            bad.resize(keep + footer);
        } else if (kind == 2) {
            const size_t at = len64[rng.uniformInt(len64.size())];
            const uint64_t v = inflated64[rng.uniformInt(3)];
            std::memcpy(bad.data() + at, &v, sizeof(v));
        } else {
            const size_t at = len32[rng.uniformInt(len32.size())];
            const uint32_t v = inflated32[rng.uniformInt(2)];
            std::memcpy(bad.data() + at, &v, sizeof(v));
        }
        resealBlob(bad);

        serve::PolicyInstance p2 = serve::makePolicy(model, spec);
        StreamingSession s2(weights, p2.active());
        try {
            s2.restore(bad);
            ++restored;
        } catch (const serial::SerialError &) {
            ++refused;
        }
    }
    EXPECT_EQ(restored + refused, 2000u);
    // Truncations and inflated lengths must be refused, so a fair
    // share of the mutants is.
    EXPECT_GT(refused, 500u);
}

TEST(RestoreShapes, FrameGeneratorRefusesShapesItWouldOverrun)
{
    const VideoConfig video; // 16 tokens x 32 latent values.
    const uint64_t t = video.tokensPerFrame, d = video.latentDim;
    auto restore = [&](const std::vector<uint8_t> &blob) {
        FrameGenerator gen(video, 3);
        serial::ByteReader r(blob, 1);
        gen.restore(r);
        r.expectEnd();
        return gen.nextFrameLatents().rows();
    };
    EXPECT_EQ(restore(generatorBlob(d, t, t, d)), t);

    // An inflated offset count must fail as a blob error, not as an
    // allocation failure.
    EXPECT_THROW(restore(generatorBlob(d, uint64_t(1) << 62, t, d)),
                 serial::SerialError);
    EXPECT_THROW(restore(generatorBlob(d - 1, t, t, d)),
                 serial::SerialError); // Short scene latent.
    EXPECT_THROW(restore(generatorBlob(d, t, t, d - 1)),
                 serial::SerialError); // Short offset rows.
    EXPECT_THROW(restore(generatorBlob(d, t - 1, t - 1, d)),
                 serial::SerialError); // Too few offset rows.
}

TEST(RestoreShapes, KvCacheRefusesShapesAttentionWouldOverrun)
{
    const ModelConfig cfg = ModelConfig::tiny();
    const uint32_t kv_dim = cfg.nKvHeads * cfg.headDim();
    const auto frame = static_cast<uint8_t>(TokenStage::VideoFrame);
    auto restore = [&](const std::vector<uint8_t> &blob) {
        KVCache cache(cfg);
        serial::ByteReader r(blob, 1);
        cache.restore(r);
        r.expectEnd();
        return cache.tokenCount();
    };
    EXPECT_EQ(restore(kvBlob(cfg, 4, kv_dim, 4, frame)), 4u);

    EXPECT_THROW(restore(kvBlob(cfg, 4, kv_dim - 1, 4, frame)),
                 serial::SerialError);
    EXPECT_THROW(restore(kvBlob(cfg, 4, kv_dim + 1, 4, frame)),
                 serial::SerialError);
    EXPECT_THROW(restore(kvBlob(cfg, 3, kv_dim, 4, frame)),
                 serial::SerialError); // Fewer K/V rows than tokens.
    EXPECT_THROW(restore(kvBlob(cfg, 5, kv_dim, 4, frame)),
                 serial::SerialError); // More K/V rows than tokens.
    const auto past_last =
        static_cast<uint8_t>(TokenStage::GeneratedText) + 1;
    EXPECT_THROW(restore(kvBlob(cfg, 4, kv_dim, 4, past_last)),
                 serial::SerialError);
}

TEST(HcTableBlob, RoundTripsAValidTable)
{
    const std::vector<uint8_t> blob = hcTableBlob(3, validHcRows());
    HCTable tab(kHcDim, kHcBits, kHcTh);
    serial::ByteReader r(blob, 1);
    tab.restore(r);
    r.expectEnd();
    ASSERT_EQ(tab.clusterCount(), 2u);
    EXPECT_EQ(tab.tokenCount(), 3u);
    EXPECT_EQ(tab.tokens(0), (std::vector<uint32_t>{0, 2}));
    EXPECT_EQ(tab.signature(1)[0], 0x02u);
    EXPECT_EQ(tab.centroid(1)[1], -0.25f);
    EXPECT_EQ(tab.hammingComparisons(), 5u);
    serial::ByteWriter w(1);
    tab.serialize(w);
    EXPECT_EQ(w.finish(), blob);
}

TEST(RestoreShapes, HcTableRefusesSignaturePaddingBits)
{
    // Bits at or above nBits would inflate every Hamming distance to
    // the cluster.
    for (const uint64_t pad : {uint64_t(1) << kHcBits, uint64_t(1) << 63}) {
        auto rows = validHcRows();
        rows[1].sig |= pad;
        EXPECT_THROW(restoreHcTable(hcTableBlob(3, rows)),
                     serial::SerialError)
            << std::hex << pad;
    }
}

TEST(RestoreShapes, HcTableRefusesRepeatedOrUnorderedTokens)
{
    // A token listed twice would be attended twice.
    auto twice = validHcRows();
    twice[1].tokens = {2};
    EXPECT_THROW(restoreHcTable(hcTableBlob(3, twice)), serial::SerialError);
    auto repeated = validHcRows();
    repeated[0].tokens = {0, 0};
    EXPECT_THROW(restoreHcTable(hcTableBlob(3, repeated)),
                 serial::SerialError);
    auto unordered = validHcRows();
    unordered[0].tokens = {2, 0};
    EXPECT_THROW(restoreHcTable(hcTableBlob(3, unordered)),
                 serial::SerialError);
}

TEST(RestoreShapes, HcTableRefusesSizesOffTheTokenCount)
{
    EXPECT_EQ(restoreHcTable(hcTableBlob(3, validHcRows())), 2u);
    EXPECT_THROW(restoreHcTable(hcTableBlob(2, validHcRows())),
                 serial::SerialError);
    EXPECT_THROW(restoreHcTable(hcTableBlob(4, validHcRows())),
                 serial::SerialError);
}

TEST(RestoreShapes, HcTableRefusesBitCountsAboveClusterSize)
{
    auto rows = validHcRows();
    rows[1].ones[7] = 2; // Cluster 1 has one member.
    EXPECT_THROW(restoreHcTable(hcTableBlob(3, rows)), serial::SerialError);
}

// ---------------------------------------------------------------
// ColdStore
// ---------------------------------------------------------------

TEST(ColdStore, MemoryStoreRoundTrip)
{
    MemoryColdStore store;
    EXPECT_EQ(store.tier(), Tier::CpuMem);
    EXPECT_EQ(store.count(), 0u);
    EXPECT_FALSE(store.contains(7));
    EXPECT_THROW((void)store.get(7), std::out_of_range);

    const std::vector<uint8_t> a{1, 2, 3}, b{4, 5, 6, 7};
    store.put(7, a);
    store.put(9, b);
    EXPECT_TRUE(store.contains(7));
    EXPECT_EQ(store.get(7), a);
    EXPECT_EQ(store.get(9), b);
    EXPECT_EQ(store.count(), 2u);
    EXPECT_EQ(store.totalBytes(), 7u);

    // Replacement: bytes update, count does not.
    store.put(7, b);
    EXPECT_EQ(store.count(), 2u);
    EXPECT_EQ(store.totalBytes(), 8u);

    store.erase(7);
    EXPECT_FALSE(store.contains(7));
    EXPECT_EQ(store.count(), 1u);
    store.erase(7); // No-op when absent.

    const TransferStats xs = store.stats();
    EXPECT_EQ(xs.offloadedBytes, 3u + 4u + 4u); // Three puts.
    EXPECT_EQ(xs.fetchedBytes, 3u + 4u);        // Two gets.
}

TEST(ColdStore, FileStorePersistsAcrossInstances)
{
    const std::string dir = ::testing::TempDir() + "/vrex-cold-" +
        std::to_string(::getpid());
    std::filesystem::remove_all(dir);

    const std::vector<uint8_t> blob{9, 8, 7, 6, 5};
    {
        FileColdStore store(dir);
        EXPECT_EQ(store.tier(), Tier::Storage);
        store.put(42, blob);
        EXPECT_TRUE(store.contains(42));
        EXPECT_EQ(store.totalBytes(), blob.size());
    }
    {
        // A new instance over the same directory sees the blob —
        // crash-surviving sessions can be recovered.
        FileColdStore store(dir);
        EXPECT_TRUE(store.contains(42));
        EXPECT_EQ(store.get(42), blob);
        EXPECT_EQ(store.count(), 1u);
        EXPECT_THROW((void)store.get(43), std::out_of_range);
        store.erase(42);
        EXPECT_FALSE(store.contains(42));
        EXPECT_EQ(store.count(), 0u);
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------
// KvBudget accounting + victim selection
// ---------------------------------------------------------------

TEST(KvBudget, VictimOrderBulkFirstThenLru)
{
    serve::KvBudgetConfig cfg;
    cfg.budgetBytes = 100;
    serve::KvBudget b(cfg);
    EXPECT_TRUE(b.enabled());

    b.onAdmit(1, serve::SchedClass::Interactive);
    b.onAdmit(2, serve::SchedClass::Bulk);
    b.onAdmit(3, serve::SchedClass::Bulk);
    b.onAdmit(4, serve::SchedClass::Interactive);
    b.onExecuted(1, 50);
    b.onExecuted(2, 50);
    b.onExecuted(3, 50);
    b.onExecuted(4, 50);
    EXPECT_EQ(b.residentBytes(), 200u);
    EXPECT_TRUE(b.overBudget());

    // Bulk (2 then 3, execution order) before Interactive (1 then 4);
    // the excluded self never appears.
    EXPECT_EQ(b.victims(0),
              (std::vector<uint64_t>{2, 3, 1, 4}));
    EXPECT_EQ(b.victims(1), (std::vector<uint64_t>{2, 3, 4}));

    // Re-execution refreshes recency: 2 moves behind 3.
    b.onExecuted(2, 50);
    EXPECT_EQ(b.victims(0), (std::vector<uint64_t>{3, 2, 1, 4}));

    // A class change re-ranks immediately but preserves recency:
    // 1 (tick from its first execution) is now the oldest Bulk
    // session and jumps to the front of the victim list.
    b.setClass(1, serve::SchedClass::Bulk);
    EXPECT_EQ(b.victims(0), (std::vector<uint64_t>{1, 3, 2, 4}));
}

TEST(KvBudget, TransitionsMoveResidentBytes)
{
    serve::KvBudgetConfig cfg;
    cfg.budgetBytes = 80;
    serve::KvBudget b(cfg);
    b.onAdmit(1, serve::SchedClass::Interactive);
    b.onAdmit(2, serve::SchedClass::Interactive);
    b.onExecuted(1, 60);
    b.onExecuted(2, 60);
    EXPECT_TRUE(b.overBudget());

    b.markHibernated(1, /*blob_bytes=*/30, /*ns=*/1000);
    EXPECT_TRUE(b.hibernated(1));
    EXPECT_EQ(b.residentBytes(), 60u);
    EXPECT_FALSE(b.overBudget());
    // Hibernated sessions never appear as victims.
    EXPECT_EQ(b.victims(0), std::vector<uint64_t>{2});

    b.markWoken(1, /*kv_bytes=*/60, /*blob_bytes=*/30, /*ns=*/2000);
    EXPECT_FALSE(b.hibernated(1));
    EXPECT_EQ(b.residentBytes(), 120u);

    b.onClose(2);
    EXPECT_EQ(b.residentBytes(), 60u);

    MemoryColdStore store;
    const serve::KvBudgetStats s = b.snapshot(store);
    EXPECT_EQ(s.budgetBytes, 80u);
    EXPECT_EQ(s.residentBytes, 60u);
    EXPECT_EQ(s.residentSessions, 1u);
    EXPECT_EQ(s.hibernatedSessions, 0u);
    EXPECT_EQ(s.hibernates, 1u);
    EXPECT_EQ(s.wakes, 1u);
    EXPECT_EQ(s.hibernatedBytes, 30u);
    EXPECT_EQ(s.wokenBytes, 30u);
    EXPECT_EQ(s.hibernateLatency.samples(), 1u);
    EXPECT_EQ(s.wakeLatency.samples(), 1u);
}

// ---------------------------------------------------------------
// Engine hibernation
// ---------------------------------------------------------------

TEST(EngineHibernate, ResultsMatchSequentialUnderTinyBudget)
{
    const ModelConfig model = ModelConfig::tiny();
    const auto specs = hibernateSpecZoo();
    const auto scripts = randomVerbScripts(specs.size(), 7100);

    for (const SchedShape &shape : schedShapeZoo()) {
        SCOPED_TRACE("workers " + std::to_string(shape.workers) +
                     " slice " + std::to_string(shape.sliceEvents));
        serve::EngineConfig cfg;
        cfg.model = model;
        cfg.workers = shape.workers;
        cfg.sched.sliceEvents = shape.sliceEvents;
        // A budget every non-empty session overflows alone: maximal
        // hibernate/wake churn.
        cfg.kvBudget.budgetBytes = 1;
        serve::Engine engine(cfg);

        std::vector<serve::SessionId> ids;
        for (size_t i = 0; i < specs.size(); ++i) {
            serve::SessionOptions o;
            o.policy = specs[i];
            ids.push_back(engine.submit(scripts[i], o));
        }
        engine.waitAll();

        const serve::KvBudgetStats kv = engine.stats().kv;
        EXPECT_GT(kv.hibernates, 0u);
        EXPECT_EQ(kv.hibernates, kv.hibernateLatency.samples());
        // enforceBudget() runs inside a live slice and tryPinIdle()
        // skips busy peers, so when W workers finish together each
        // may leave its own session resident: at most one per worker.
        EXPECT_LE(kv.residentSessions, shape.workers);

        // Despite the churn, every session is byte-identical to its
        // sequential ground truth (result() wakes hibernated ones).
        for (size_t i = 0; i < ids.size(); ++i) {
            SCOPED_TRACE("session " + std::to_string(i));
            expectIdenticalRuns(
                engine.result(ids[i]),
                sequentialReplay(model, scripts[i], specs[i],
                                 cfg.sessionSeed));
        }
        EXPECT_GT(engine.stats().kv.wakes, 0u);
        for (serve::SessionId id : ids)
            engine.closeSession(id);
    }
}

TEST(EngineHibernate, VerbWakesHibernatedSession)
{
    const ModelConfig model = ModelConfig::tiny();
    const serve::PolicySpec spec = serve::PolicySpec::resv();
    SessionScript script = randomVerbScript(8200, 0);
    const size_t cut = script.events.size() / 2;

    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 1;
    cfg.policy = spec;
    cfg.kvBudget.budgetBytes = 1;
    serve::Engine engine(cfg);

    // A runs half its script, then B's slices find A idle and
    // hibernate it (both overflow the 1-byte budget).
    serve::SessionOptions oa = serve::SessionOptions::fromScript(script);
    serve::SessionId a = engine.createSession(oa);
    engine.enqueue(a, std::vector<SessionEvent>(
                          script.events.begin(),
                          script.events.begin() + cut));
    engine.waitAll();

    SessionScript other = randomVerbScript(8300, 1);
    serve::SessionId b = engine.submit(other);
    engine.waitAll();

    serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_GT(kv.hibernates, 0u);
    EXPECT_GE(kv.hibernatedSessions, 1u);
    EXPECT_GT(kv.coldBytes, 0u);

    // Feeding the second half wakes A transparently on dispatch.
    engine.enqueue(a, std::vector<SessionEvent>(
                          script.events.begin() + cut,
                          script.events.end()));
    engine.waitAll();
    kv = engine.stats().kv;
    EXPECT_GT(kv.wakes, 0u);
    EXPECT_EQ(kv.wakes, kv.wakeLatency.samples());

    expectIdenticalRuns(
        engine.result(a),
        sequentialReplay(model, script, spec, cfg.sessionSeed));
    engine.closeSession(a);
    engine.closeSession(b);
}

TEST(EngineHibernate, DrainedAccessorsWake)
{
    const ModelConfig model = ModelConfig::tiny();
    TierConfig tiers;
    tiers.deviceKvCapacityBytes = 4096;
    const serve::PolicySpec spec =
        serve::PolicySpec::resv().withMemoryTracking(tiers);

    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 1;
    cfg.policy = spec;
    cfg.kvBudget.budgetBytes = 1;
    serve::Engine engine(cfg);

    SessionScript sa = randomVerbScript(8400, 0);
    SessionScript sb = randomVerbScript(8500, 1);
    serve::SessionId a = engine.submit(sa);
    engine.waitAll();
    serve::SessionId b = engine.submit(sb);
    engine.waitAll(); // B's slices hibernate the idle A.

    ASSERT_GE(engine.stats().kv.hibernatedSessions, 1u);
    const uint64_t wakes_before = engine.stats().kv.wakes;

    // model()/policy()/memoryStats() must transparently wake.
    EXPECT_GT(engine.model(a).cache().tokenCount(), 0u);
    EXPECT_NE(engine.memoryStats(a), nullptr);
    const serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_GT(kv.wakes, wakes_before);

    expectIdenticalRuns(
        engine.result(a),
        sequentialReplay(model, sa, spec, cfg.sessionSeed));
    engine.closeSession(a);
    engine.closeSession(b);
}

TEST(EngineHibernate, HibernatedSessionClosesWithoutWaking)
{
    serve::EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 1;
    cfg.kvBudget.budgetBytes = 1;
    serve::Engine engine(cfg);

    serve::SessionId a = engine.submit(randomVerbScript(8600, 0));
    engine.waitAll();
    serve::SessionId b = engine.submit(randomVerbScript(8700, 1));
    engine.waitAll();
    ASSERT_GE(engine.stats().kv.hibernatedSessions, 1u);
    const uint64_t wakes = engine.stats().kv.wakes;

    engine.closeSession(a);
    engine.closeSession(b);
    const serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_EQ(kv.wakes, wakes);           // Closing never wakes.
    EXPECT_EQ(kv.residentSessions, 0u);
    EXPECT_EQ(kv.hibernatedSessions, 0u);
    EXPECT_EQ(kv.coldBytes, 0u);          // Blobs are dropped.
}

TEST(EngineHibernate, DefaultBudgetChangesNothing)
{
    serve::EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    serve::Engine engine(cfg); // kvBudget.budgetBytes = 0 (default).

    serve::SessionId id = engine.submit(randomVerbScript(8800, 0));
    engine.waitAll();
    const serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_EQ(kv.budgetBytes, 0u);
    EXPECT_EQ(kv.hibernates, 0u);
    EXPECT_EQ(kv.wakes, 0u);
    EXPECT_EQ(kv.residentSessions, 0u); // No accounting at all.
    EXPECT_EQ(kv.residentBytes, 0u);
    EXPECT_EQ(kv.coldBytes, 0u);
    engine.closeSession(id);
}

TEST(EngineHibernate, OverSubscriptionStaysWithinBudget)
{
    const ModelConfig model = ModelConfig::tiny();
    const uint32_t kSessions = 40;

    // Price one session's working set, then grant a budget that fits
    // only ~2.5 of them: the engine must keep >90% hibernated.
    VideoConfig video;
    video.tokensPerFrame = 8;
    const std::vector<SessionEvent> events{
        {SessionEvent::Type::Frame, 0},
        {SessionEvent::Type::Question, 2},
        {SessionEvent::Type::Generate, 2}};
    uint64_t per_session;
    {
        StreamingSession probe(model, nullptr, 42);
        probe.begin("probe", video, 1);
        for (const SessionEvent &e : events)
            probe.apply(e);
        per_session = probe.kvBytes(2.0);
        ASSERT_GT(per_session, 0u);
    }

    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 2;
    cfg.kvBudget.budgetBytes = per_session * 5 / 2;
    serve::Engine engine(cfg);

    std::vector<serve::SessionId> ids;
    for (uint32_t s = 0; s < kSessions; ++s) {
        serve::SessionOptions o;
        o.name = "over-" + std::to_string(s);
        o.video = video;
        o.scriptSeed = 100 + s;
        serve::SessionId id = engine.createSession(o);
        engine.enqueue(id, events);
        ids.push_back(id);
        if ((s + 1) % 8 == 0)
            engine.waitAll();
    }
    engine.waitAll();

    const serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_EQ(kv.residentSessions + kv.hibernatedSessions, kSessions);
    // <10% resident: the budget fits 2.5 sessions out of 40.
    EXPECT_LT(kv.residentSessions * 10, kSessions);
    EXPECT_LE(kv.residentBytes, cfg.kvBudget.budgetBytes);
    EXPECT_GT(kv.coldBytes, 0u);

    // Sampled wakes still produce correct sessions.
    for (uint32_t s = 0; s < kSessions; s += 13) {
        const SessionRunResult r = engine.result(ids[s]);
        EXPECT_EQ(r.frames, 1u);
        EXPECT_EQ(r.generated.size(), 2u);
    }
    EXPECT_GT(engine.stats().kv.wakes, 0u);
    for (serve::SessionId id : ids)
        engine.closeSession(id);
}

TEST(EngineHibernate, FileColdStoreBackend)
{
    const std::string dir = ::testing::TempDir() + "/vrex-engine-cold-" +
        std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    auto store = std::make_shared<FileColdStore>(dir);

    const ModelConfig model = ModelConfig::tiny();
    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 1;
    cfg.kvBudget.budgetBytes = 1;
    cfg.kvBudget.store = store;
    serve::Engine engine(cfg);

    SessionScript sa = randomVerbScript(9100, 0);
    serve::SessionId a = engine.submit(sa);
    engine.waitAll();
    serve::SessionId b = engine.submit(randomVerbScript(9200, 1));
    engine.waitAll();

    // The hibernated session's blob is an actual file on disk.
    ASSERT_GE(engine.stats().kv.hibernatedSessions, 1u);
    EXPECT_GT(store->count(), 0u);
    EXPECT_GT(store->totalBytes(), 0u);

    expectIdenticalRuns(
        engine.result(a),
        sequentialReplay(model, sa, cfg.policy, cfg.sessionSeed));
    engine.closeSession(a);
    engine.closeSession(b);
    EXPECT_EQ(store->count(), 0u);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------
// Interned weights
// ---------------------------------------------------------------

TEST(EngineWeights, OneSetPerSeedCountedOnce)
{
    serve::EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 2;
    serve::Engine engine(cfg); // No budget: the counters fill anyway.
    EXPECT_EQ(engine.stats().kv.weightSets, 0u);
    EXPECT_EQ(engine.stats().kv.weightBytes, 0u);

    std::vector<serve::SessionId> ids;
    for (uint32_t i = 0; i < 6; ++i)
        ids.push_back(engine.createSession());
    // A set is the backbone plus the vision stack, the same bytes for
    // every seed.
    const uint64_t one_set = SessionWeights(cfg.model, 42).bytes();
    EXPECT_GT(one_set, cfg.model.paramCount() * sizeof(float));
    serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_EQ(kv.weightSets, 1u);
    EXPECT_EQ(kv.weightBytes, one_set);
    EXPECT_EQ(&engine.model(ids[0]).weights(),
              &engine.model(ids[5]).weights());

    serve::SessionOptions o;
    o.sessionSeed = 7;
    ids.push_back(engine.createSession(o));
    kv = engine.stats().kv;
    EXPECT_EQ(kv.weightSets, 2u);
    EXPECT_EQ(kv.weightBytes, 2 * one_set);
    EXPECT_NE(&engine.model(ids[0]).weights(),
              &engine.model(ids.back()).weights());
    EXPECT_EQ(engine.model(ids.back()).weights().seed, 7u);

    for (serve::SessionId id : ids)
        engine.closeSession(id);
    EXPECT_EQ(engine.stats().kv.weightSets, 2u); // Kept, not refcounted.
}

TEST(EngineWeights, BeginRefusesALatentDimTheTowerCannotTake)
{
    const ModelConfig model = ModelConfig::tiny();
    VideoConfig video;
    video.latentDim = 16; // The interned tower takes 32.
    StreamingSession session(model, nullptr, 42);
    EXPECT_THROW(session.begin("narrow", video, 1),
                 std::invalid_argument);

    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 1;
    cfg.sched.maxLiveSessions = 1;
    serve::Engine engine(cfg);
    serve::SessionOptions bad;
    bad.video = video;
    for (int attempt = 0; attempt < 2; ++attempt)
        EXPECT_THROW(engine.tryCreateSession(bad), std::invalid_argument);
    EXPECT_EQ(engine.openSessions(), 0u);

    // The failed creates released their slots: a well-formed session
    // still fits under maxLiveSessions = 1.
    const serve::Admission ok = engine.tryCreateSession();
    EXPECT_TRUE(ok.admitted());
    EXPECT_EQ(engine.openSessions(), 1u);
    engine.closeSession(ok.id);
}

TEST(EngineWeights, RestoreRefusesAnotherStreamLatentDim)
{
    const ModelConfig model = ModelConfig::tiny();
    const SessionScript script = randomVerbScript(777, 0);
    StreamingSession s1(model, nullptr, 42);
    s1.begin(script.name, script.video, script.seed);
    s1.apply(script.events[0]);
    std::vector<uint8_t> blob = s1.serialize();

    // Offset of the stream block's latentDim: header, seed, model
    // identity (name + six u32 + rope theta), policy and stream
    // flags, stream name, tokensPerFrame.
    const size_t at = 2 * sizeof(uint32_t) + sizeof(uint64_t) +
        sizeof(uint64_t) + model.name.size() + 7 * sizeof(uint32_t) +
        2 + sizeof(uint64_t) + script.name.size() + sizeof(uint32_t);
    uint32_t field[2];
    std::memcpy(field, blob.data() + at - sizeof(uint32_t),
                sizeof(field));
    ASSERT_EQ(field[0], script.video.tokensPerFrame);
    ASSERT_EQ(field[1], script.video.latentDim);
    const uint32_t narrow = 16;
    std::memcpy(blob.data() + at, &narrow, sizeof(narrow));
    resealBlob(blob);

    StreamingSession s2(model, nullptr, 42);
    try {
        s2.restore(blob);
        ADD_FAILURE() << "restore accepted a 16-wide stream";
    } catch (const serial::SerialError &e) {
        EXPECT_NE(std::string(e.what()).find("vision tower"),
                  std::string::npos)
            << e.what();
    }
}

TEST(EngineWeights, CreateCloseCreateReusesTheSet)
{
    serve::EngineConfig cfg;
    cfg.model = ModelConfig::tiny();
    cfg.workers = 1;
    serve::Engine engine(cfg);

    const serve::SessionId a = engine.createSession();
    const ModelWeights *w = &engine.model(a).weights();
    engine.closeSession(a);
    const serve::SessionId b = engine.createSession();
    EXPECT_EQ(&engine.model(b).weights(), w);
    EXPECT_EQ(engine.stats().kv.weightSets, 1u);
    engine.closeSession(b);
}

TEST(EngineWeights, HibernateWakeCyclesKeepOneSet)
{
    const ModelConfig model = ModelConfig::tiny();
    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 1;
    cfg.kvBudget.budgetBytes = 1; // Each slice hibernates the peer.
    serve::Engine engine(cfg);

    const SessionScript sa = randomVerbScript(9300, 0);
    const SessionScript sb = randomVerbScript(9400, 1);
    const serve::SessionId a =
        engine.createSession(serve::SessionOptions::fromScript(sa));
    const serve::SessionId b =
        engine.createSession(serve::SessionOptions::fromScript(sb));
    const ModelWeights *w = &engine.model(a).weights();

    // Alternate single events so A and B hibernate and wake in turn.
    for (size_t i = 0; i < std::max(sa.events.size(), sb.events.size());
         ++i) {
        if (i < sa.events.size())
            engine.enqueue(a, {sa.events[i]});
        engine.waitAll();
        if (i < sb.events.size())
            engine.enqueue(b, {sb.events[i]});
        engine.waitAll();
    }
    const serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_GE(kv.wakes, 3u);
    EXPECT_EQ(kv.weightSets, 1u);
    EXPECT_EQ(&engine.model(a).weights(), w);
    EXPECT_EQ(&engine.model(b).weights(), w);

    expectIdenticalRuns(engine.result(a), sequentialReplay(
                                              model, sa, cfg.policy,
                                              cfg.sessionSeed));
    expectIdenticalRuns(engine.result(b), sequentialReplay(
                                              model, sb, cfg.policy,
                                              cfg.sessionSeed));
    EXPECT_EQ(engine.stats().kv.weightSets, 1u);
    engine.closeSession(a);
    engine.closeSession(b);
}

TEST(EngineWeights, ConcurrentCreatesWhileWorkersWake)
{
    // Creator threads intern weights (two seeds) while the workers
    // wake hibernated sessions over the same map: the TSan leg checks
    // the lock, the replays check the bytes.
    const ModelConfig model = ModelConfig::tiny();
    serve::EngineConfig cfg;
    cfg.model = model;
    cfg.workers = 3;
    cfg.kvBudget.budgetBytes = 1;
    serve::Engine engine(cfg);

    // More sessions than workers: at most one per worker stays
    // resident, so the rest end hibernated.
    std::vector<SessionScript> early = randomVerbScripts(5, 9500);
    std::vector<serve::SessionId> early_ids;
    for (const SessionScript &s : early)
        early_ids.push_back(engine.submit(s));
    engine.waitAll();
    ASSERT_GE(engine.stats().kv.hibernatedSessions, 1u);

    constexpr uint32_t kThreads = 3, kPerThread = 3;
    const std::vector<SessionScript> late =
        randomVerbScripts(kThreads * kPerThread, 9600);
    auto seed_of = [](size_t j) { return j % 2 ? uint64_t(7) : 42u; };
    std::vector<serve::SessionId> late_ids(late.size());
    std::vector<std::thread> creators;
    for (uint32_t t = 0; t < kThreads; ++t) {
        creators.emplace_back([&, t] {
            for (uint32_t k = 0; k < kPerThread; ++k) {
                const size_t j = t * kPerThread + k;
                serve::SessionOptions o =
                    serve::SessionOptions::fromScript(late[j]);
                o.sessionSeed = seed_of(j);
                const serve::Admission adm = engine.tryCreateSession(o);
                late_ids[j] = adm.id;
                if (adm)
                    engine.enqueue(adm.id, late[j].events);
            }
        });
    }
    // Meanwhile, a trailing QA round wakes every early session.
    const std::vector<SessionEvent> qa{{SessionEvent::Type::Question, 2},
                                       {SessionEvent::Type::Generate, 2}};
    for (size_t i = 0; i < early.size(); ++i) {
        engine.enqueue(early_ids[i], qa);
        early[i].events.insert(early[i].events.end(), qa.begin(),
                               qa.end());
    }
    for (std::thread &t : creators)
        t.join();
    engine.waitAll();

    const serve::KvBudgetStats kv = engine.stats().kv;
    EXPECT_EQ(kv.weightSets, 2u);
    EXPECT_GT(kv.wakes, 0u);
    for (size_t i = 0; i < early.size(); ++i) {
        SCOPED_TRACE("early " + std::to_string(i));
        expectIdenticalRuns(engine.result(early_ids[i]),
                            sequentialReplay(model, early[i], cfg.policy,
                                             cfg.sessionSeed));
        engine.closeSession(early_ids[i]);
    }
    for (size_t j = 0; j < late.size(); ++j) {
        SCOPED_TRACE("late " + std::to_string(j));
        ASSERT_NE(late_ids[j], 0u);
        expectIdenticalRuns(engine.result(late_ids[j]),
                            sequentialReplay(model, late[j], cfg.policy,
                                             seed_of(j)));
        engine.closeSession(late_ids[j]);
    }
}
