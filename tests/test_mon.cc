/**
 * @file
 * takomon tests: writer/reader codec round-trips, loud failure on every
 * corruption class, TimeSeriesSink sampling and heartbeat determinism,
 * and the System-level contracts — telemetry cannot perturb the model,
 * and a runFor cut closes the sink the same way run() does.
 *
 * Labeled `sanfast`: the reader mmaps files, so ASan coverage is the
 * point.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mon/format.hh"
#include "mon/reader.hh"
#include "mon/sink.hh"
#include "mon/writer.hh"
#include "system/system.hh"
#include "workloads/decompress.hh"

using namespace tako;
using namespace tako::mon;

namespace
{

/** Unique-per-test scratch path, cleaned up on destruction. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &stem)
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "tako_" + info->test_suite_name() +
                "_" + info->name() + "_" + stem;
    }
    ~ScratchFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

std::uint32_t
load32(const std::vector<std::uint8_t> &b, std::size_t off)
{
    return static_cast<std::uint32_t>(b[off]) |
           static_cast<std::uint32_t>(b[off + 1]) << 8 |
           static_cast<std::uint32_t>(b[off + 2]) << 16 |
           static_cast<std::uint32_t>(b[off + 3]) << 24;
}

/** Deterministic two-series sample set: one integral-valued column
 *  (large magnitudes, both directions) and one fractional column. */
std::vector<std::pair<Tick, std::vector<double>>>
sampleRows(std::size_t n)
{
    std::vector<std::pair<Tick, std::vector<double>>> rows;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::int64_t big = 0;
    Tick t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        t += 1 + (x >> 60);
        // Integral column swings by up to ~2^52 in both directions.
        big += static_cast<std::int64_t>(x >> 12) -
               static_cast<std::int64_t>(1ull << 51);
        const double frac = static_cast<double>(x >> 32) / 3.0;
        rows.push_back({t, {static_cast<double>(big), frac}});
    }
    return rows;
}

void
writeMon(const std::string &path,
         const std::vector<std::pair<Tick, std::vector<double>>> &rows,
         std::uint32_t chunkSamples = 64)
{
    MonWriter w;
    MonWriter::Options opt;
    opt.chunkSamples = chunkSamples;
    std::vector<SeriesDesc> series{
        {"a.ints", SeriesKind::Counter},
        {"b.fracs", SeriesKind::HistSum},
    };
    ASSERT_TRUE(w.open(path, 500, std::move(series), opt)) << w.error();
    for (const auto &[tick, vals] : rows)
        w.addSample(tick, vals);
    ASSERT_TRUE(w.close()) << w.error();
}

/**
 * Open @p path and drain it, asserting the reader fails loudly with
 * @p expect somewhere in the error. Chunk-payload problems only surface
 * once the chunk is entered, so a successful open must be followed by
 * next() returning false *with* an error, never a clean EOF.
 */
void
expectLoudFailure(const std::string &path, const std::string &expect)
{
    MonReader r;
    if (r.open(path)) {
        Tick t;
        std::vector<double> vals;
        while (r.next(t, vals)) {
        }
    }
    EXPECT_FALSE(r.error().empty()) << "silent success for " << expect;
    EXPECT_NE(r.error().find(expect), std::string::npos) << r.error();
}

} // namespace

// ---- codec round-trip --------------------------------------------------

TEST(MonCodec, RoundTripsIntegersAndDoublesAcrossChunks)
{
    ScratchFile f("roundtrip.takomon");
    const auto rows = sampleRows(1000); // ~16 chunks of 64
    writeMon(f.path(), rows);

    MonReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    EXPECT_EQ(r.interval(), Tick{500});
    ASSERT_EQ(r.series().size(), 2u);
    EXPECT_EQ(r.series()[0].name, "a.ints");
    EXPECT_EQ(r.series()[0].kind, SeriesKind::Counter);
    EXPECT_EQ(r.series()[1].name, "b.fracs");
    EXPECT_EQ(r.series()[1].kind, SeriesKind::HistSum);
    EXPECT_EQ(r.sampleCount(), rows.size());

    Tick t;
    std::vector<double> vals;
    for (const auto &[wantTick, wantVals] : rows) {
        ASSERT_TRUE(r.next(t, vals)) << r.error();
        EXPECT_EQ(t, wantTick);
        ASSERT_EQ(vals.size(), 2u);
        // Bit-exact, not approximately equal: the integral column
        // round-trips through wrapping int64 deltas, the fractional one
        // through raw IEEE-754 bytes.
        EXPECT_EQ(vals[0], wantVals[0]);
        EXPECT_EQ(vals[1], wantVals[1]);
    }
    EXPECT_FALSE(r.next(t, vals));
    EXPECT_TRUE(r.error().empty()) << r.error();

    r.rewind();
    ASSERT_TRUE(r.next(t, vals)) << r.error();
    EXPECT_EQ(t, rows[0].first);
    EXPECT_EQ(vals[0], rows[0].second[0]);
}

TEST(MonCodec, EmptyFileRoundTrips)
{
    ScratchFile f("empty.takomon");
    MonWriter w;
    ASSERT_TRUE(
        w.open(f.path(), 100, {{"only", SeriesKind::Counter}}));
    ASSERT_TRUE(w.close()) << w.error();

    MonReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    EXPECT_EQ(r.sampleCount(), 0u);
    Tick t;
    std::vector<double> vals;
    EXPECT_FALSE(r.next(t, vals));
    EXPECT_TRUE(r.error().empty()) << r.error();
}

// ---- corruption classes ------------------------------------------------

TEST(MonCorruption, EveryClassFailsLoudly)
{
    ScratchFile f("corrupt.takomon");
    const auto rows = sampleRows(100);
    writeMon(f.path(), rows);
    const std::vector<std::uint8_t> good = readAll(f.path());
    ASSERT_GT(good.size(), monFileHeaderBytes + 4u);
    const std::uint32_t dirBytes = load32(good, 28);
    const std::size_t chunk0 = monFileHeaderBytes + dirBytes + 4;
    ASSERT_LT(chunk0 + monChunkHeaderBytes, good.size());

    auto mutate = [&](const char *what,
                      const std::function<void(
                          std::vector<std::uint8_t> &)> &fn,
                      const std::string &expect) {
        SCOPED_TRACE(what);
        std::vector<std::uint8_t> bad = good;
        fn(bad);
        writeAll(f.path(), bad);
        expectLoudFailure(f.path(), expect);
    };

    mutate("short file",
           [](auto &b) { b.resize(monFileHeaderBytes - 5); },
           "shorter than a file header");
    mutate("bad magic", [](auto &b) { b[0] ^= 0xff; }, "bad magic");
    mutate("future version", [](auto &b) { b[8] = 9; },
           "format version 9");
    mutate("reserved flags", [](auto &b) { b[12] = 1; },
           "unknown flag bits");
    mutate("zero interval",
           [](auto &b) { std::fill(b.begin() + 16, b.begin() + 24, 0); },
           "zero sample interval");
    mutate("directory truncated",
           [&](auto &b) { b.resize(monFileHeaderBytes + 2); },
           "truncated in the series directory");
    mutate("directory bit flip",
           [](auto &b) { b[monFileHeaderBytes + 1] ^= 0x40; },
           "directory CRC mismatch");
    mutate("sample count mismatch",
           [](auto &b) { b[32] ^= 1; },
           "samples, chunks hold");
    mutate("unclosed writer",
           [](auto &b) {
               std::fill(b.begin() + 32, b.begin() + 40, 0xff);
           },
           "(unclosed writer?)");
    mutate("chunk bad magic", [&](auto &b) { b[chunk0] ^= 0xff; },
           "bad magic");
    mutate("chunk header truncated",
           [&](auto &b) { b.resize(chunk0 + monChunkHeaderBytes - 3); },
           "truncated at chunk");
    mutate("chunk payload truncated",
           [&](auto &b) { b.resize(b.size() - 7); },
           "truncated");
    mutate("chunk payload bit flip",
           [&](auto &b) { b[chunk0 + monChunkHeaderBytes + 2] ^= 0x10; },
           "CRC mismatch");
    mutate("trailing garbage",
           [](auto &b) { b.insert(b.end(), {1, 2, 3}); },
           "truncated at chunk");
}

TEST(MonCorruption, UnclosedWriterFileIsRejected)
{
    ScratchFile f("abandoned.takomon");
    {
        MonWriter w;
        ASSERT_TRUE(
            w.open(f.path(), 10, {{"c", SeriesKind::Counter}}));
        for (Tick t = 10; t <= 1000; t += 10)
            w.addSample(t, {static_cast<double>(t)});
        // No close(): the destructor abandons the file, leaving the
        // placeholder sampleCount = 0 in the header.
    }
    expectLoudFailure(f.path(), "(unclosed writer?)");
}

TEST(MonCorruption, HandcraftedPayloadDefectsAreCaught)
{
    // Hand-build a one-series file so the payload bytes are under full
    // control (writer output is always well-formed). Layout: header,
    // directory ("a", Counter) + CRC, one chunk of two samples.
    auto build = [](const std::vector<std::uint8_t> &payload,
                    std::uint32_t samples) {
        std::vector<std::uint8_t> b;
        auto u32 = [&b](std::uint32_t v) {
            for (int i = 0; i < 4; ++i)
                b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        };
        auto u64 = [&b](std::uint64_t v) {
            for (int i = 0; i < 8; ++i)
                b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        };
        for (const char ch : monMagic)
            b.push_back(static_cast<std::uint8_t>(ch));
        u32(monVersion);
        u32(0);        // flags
        u64(5);        // interval
        u32(1);        // seriesCount
        u32(3);        // dirBytes: kind + nameLen + 'a'
        u64(samples);  // sampleCount
        const std::size_t dir = b.size();
        b.push_back(0); // kind = Counter
        b.push_back(1); // nameLen
        b.push_back('a');
        u32(crc32(b.data() + dir, 3));
        u32(monChunkMagic);
        u32(samples);
        u32(static_cast<std::uint32_t>(payload.size()));
        u32(crc32(payload.data(), payload.size()));
        u64(0); // firstIndex
        b.insert(b.end(), payload.begin(), payload.end());
        return b;
    };

    ScratchFile f("handcrafted.takomon");

    // Sanity: a well-formed hand-built file decodes.
    writeAll(f.path(), build({5, 3, colIntDeltas, 2, 4}, 2));
    {
        MonReader r;
        ASSERT_TRUE(r.open(f.path())) << r.error();
        Tick t;
        std::vector<double> vals;
        ASSERT_TRUE(r.next(t, vals)) << r.error();
        EXPECT_EQ(t, Tick{5});
        EXPECT_EQ(vals[0], 1.0); // zigzag(2) = +1
        ASSERT_TRUE(r.next(t, vals)) << r.error();
        EXPECT_EQ(t, Tick{8});
        EXPECT_EQ(vals[0], 3.0); // +zigzag(4) = +2
    }

    // Unknown column encoding tag.
    writeAll(f.path(), build({5, 3, 9, 2, 4}, 2));
    expectLoudFailure(f.path(), "unknown column encoding");

    // Zero tick delta within a chunk = repeated sample tick.
    writeAll(f.path(), build({5, 0, colIntDeltas, 2, 4}, 2));
    expectLoudFailure(f.path(), "non-increasing sample tick");

    // Payload bytes left over after the last column.
    writeAll(f.path(), build({5, 3, colIntDeltas, 2, 4, 0, 0}, 2));
    expectLoudFailure(f.path(), "payload bytes left");
}

// ---- TimeSeriesSink ----------------------------------------------------

TEST(TimeSeriesSink, TakomonFileMatchesInMemorySeries)
{
    ScratchFile f("sink.takomon");
    EventQueue eq;
    StatsRegistry stats;
    Counter &c = stats.counter("c");
    Histogram &h = stats.histogram("lat");
    stats.counter("host.fake"); // must be skipped by namespace

    TimeSeriesSink::Options opt;
    opt.sampleEvery = 10;
    opt.monPath = f.path();
    TimeSeriesSink sink(eq, stats, opt);

    eq.schedule(7, [&] {
        c += 1;
        h.sample(3);
    });
    eq.schedule(25, [&] {
        c += 2;
        h.sample(9);
    });
    eq.schedule(35, [] {});
    eq.run();
    ASSERT_TRUE(sink.finish()) << sink.error();

    // Derived histogram series ride along with the counter.
    ASSERT_EQ(sink.seriesDescs().size(), 4u);
    EXPECT_EQ(sink.seriesDescs()[0].name, "c");
    EXPECT_EQ(sink.seriesDescs()[1].name, "lat.count");
    EXPECT_EQ(sink.seriesDescs()[2].name, "lat.sum");
    EXPECT_EQ(sink.seriesDescs()[3].name, "lat.max");

    const StatsTimeSeries &ts = stats.timeSeries();
    ASSERT_EQ(ts.numSamples(), 3u);
    EXPECT_EQ(ts.ticks, (std::vector<Tick>{10, 20, 30}));

    MonReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    EXPECT_EQ(r.sampleCount(), ts.numSamples());
    ASSERT_EQ(r.series().size(), ts.names.size());
    Tick t;
    std::vector<double> vals;
    for (std::size_t i = 0; i < ts.numSamples(); ++i) {
        ASSERT_TRUE(r.next(t, vals)) << r.error();
        EXPECT_EQ(t, ts.ticks[i]);
        EXPECT_EQ(vals, ts.samples[i]);
    }
    EXPECT_FALSE(r.next(t, vals));
    EXPECT_TRUE(r.error().empty()) << r.error();

    // Spot-check semantics: a sample at tick T sees everything strictly
    // before T; the histogram contributes count/sum/max columns.
    EXPECT_EQ(ts.samples[0], (std::vector<double>{1, 1, 3, 3}));
    EXPECT_EQ(ts.samples[2], (std::vector<double>{3, 2, 12, 9}));
}

TEST(TimeSeriesSink, HeartbeatsFireAtDeterministicTicks)
{
    EventQueue eq;
    StatsRegistry stats;
    Counter &c = stats.counter("c");

    std::vector<Tick> beatTicks;
    std::vector<std::uint64_t> beatEvents;
    TimeSeriesSink::Options opt;
    opt.progressEvery = 10;
    opt.onBeat = [&](const ProgressBeat &b) {
        beatTicks.push_back(b.tick);
        beatEvents.push_back(b.events);
        EXPECT_LT(b.fractionDone, 0); // unknown unless provided
    };
    TimeSeriesSink sink(eq, stats, opt);
    sink.setFractionDone(nullptr);

    for (Tick t = 1; t <= 34; ++t)
        eq.schedule(t, [&] { c += 1; });
    eq.run();

    // Beat ticks are simulation state; event counts at those ticks are
    // too (events strictly before the boundary).
    EXPECT_EQ(beatTicks, (std::vector<Tick>{10, 20, 30}));
    EXPECT_EQ(beatEvents,
              (std::vector<std::uint64_t>{9, 19, 29}));
    EXPECT_EQ(sink.samplesTaken(), 0u); // no series cadence requested
}

// ---- System-level contracts -------------------------------------------

namespace
{

struct MonRunResult
{
    std::map<std::string, double> counters; ///< all but host.*
    Tick cycles = 0;
    double energy = 0;
    double checksum = 0;
};

MonRunResult
runDecompressMon(const std::string &monPath, Tick sampleEvery)
{
    SystemConfig cfg = SystemConfig::forCores(16);
    cfg.mem.l1Size = 2 * 1024;
    cfg.mem.l2Size = 8 * 1024;
    cfg.mem.l3BankSize = 32 * 1024;
    cfg.sampleInterval = sampleEvery;
    cfg.monPath = monPath;
    DecompressConfig dc;
    dc.numValues = 2 * 1024;
    dc.numIndices = 4 * 1024;
    const RunMetrics m = runDecompress(DecompressVariant::Tako, dc, cfg);

    MonRunResult r;
    for (const auto &[name, c] : m.stats->counters())
        if (name.rfind("host.", 0) != 0)
            r.counters.emplace(name, c.value());
    r.cycles = m.cycles;
    r.energy = m.energy;
    r.checksum = m.extra.at("checksum");
    return r;
}

} // namespace

TEST(MonSystem, TelemetryChangesNoModelMetric)
{
    ScratchFile f("telemetry.takomon");
    const MonRunResult off = runDecompressMon("", 0);
    const MonRunResult on = runDecompressMon(f.path(), 500);

    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.energy, off.energy);
    EXPECT_EQ(on.checksum, off.checksum);
    ASSERT_EQ(on.counters.size(), off.counters.size());
    for (const auto &[name, value] : off.counters) {
        const auto it = on.counters.find(name);
        ASSERT_NE(it, on.counters.end()) << name;
        EXPECT_EQ(it->second, value) << name;
    }

    // The run produced a valid, non-empty takomon file.
    MonReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    EXPECT_GT(r.sampleCount(), 0u);
    EXPECT_EQ(r.interval(), Tick{500});
}

namespace
{

/** Four cores sweeping private regions, sampled every 200 cycles:
 *  run() to completion when @p cut is 0, else runFor(@p cut). */
StatsTimeSeries
runSampledSweep(Tick cut, const std::string &monPath)
{
    SystemConfig cfg = SystemConfig::forCores(4);
    cfg.sampleInterval = 200;
    cfg.monPath = monPath;
    System sys(cfg);
    for (int c = 0; c < 4; ++c) {
        sys.addThread(c, [c](Guest &g) -> Task<> {
            const Addr base = 0x100000 + Addr(c) * 0x10000;
            for (std::uint64_t rep = 0; rep < 3; ++rep) {
                for (Addr a = base; a < base + 0x4000; a += lineBytes) {
                    co_await g.store(a, a + rep);
                    co_await g.load(a ^ lineBytes);
                }
            }
        });
    }
    if (cut == 0)
        sys.run();
    else
        sys.runFor(cut);
    return sys.stats().timeSeries();
}

} // namespace

TEST(MonSystem, RunForSeriesIsPrefixOfRun)
{
    // runFor shares run()'s epilogue, so a crash cut closes the sink the
    // same way: its rows are the first rows of the full run's series.
    ScratchFile f("cut.takomon");
    const StatsTimeSeries full = runSampledSweep(0, "");
    const Tick cut = 3000;
    ASSERT_GT(full.numSamples(), cut / 200) << "run ends before the cut";
    const StatsTimeSeries part = runSampledSweep(cut, f.path());

    ASSERT_EQ(part.numSamples(), cut / 200);
    EXPECT_EQ(part.names, full.names);
    for (std::size_t i = 0; i < part.numSamples(); ++i) {
        EXPECT_EQ(part.ticks[i], full.ticks[i]);
        EXPECT_EQ(part.samples[i], full.samples[i]) << "row " << i;
    }

    MonReader r;
    ASSERT_TRUE(r.open(f.path())) << r.error();
    ASSERT_EQ(r.sampleCount(), part.numSamples());
    Tick t;
    std::vector<double> vals;
    for (std::size_t i = 0; i < part.numSamples(); ++i) {
        ASSERT_TRUE(r.next(t, vals)) << r.error();
        EXPECT_EQ(t, part.ticks[i]);
        EXPECT_EQ(vals, part.samples[i]);
    }
    EXPECT_FALSE(r.next(t, vals));
    EXPECT_TRUE(r.error().empty()) << r.error();
}
