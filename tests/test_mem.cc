/**
 * @file
 * Integration tests for the memory hierarchy + täkō trigger paths:
 * timing sanity, coherence, phantom morphs, eviction callbacks,
 * flushData, and RMOs.
 */

#include <gtest/gtest.h>

#include "system/system.hh"

using namespace tako;

namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg = SystemConfig::forCores(4);
    cfg.mem.l1Size = 1024;       // 2 sets x 8 ways
    cfg.mem.l2Size = 4 * 1024;   // 8 sets x 8 ways
    cfg.mem.l3BankSize = 16 * 1024;
    cfg.mem.prefetchEnable = false;
    return cfg;
}

/** Morph that fills lines with addr+i and records callbacks. */
class TestMorph : public Morph
{
  public:
    explicit TestMorph(bool miss = true, bool evict = true, bool wb = true)
        : Morph(MorphTraits{
              .name = "test",
              .hasMiss = miss,
              .hasEviction = evict,
              .hasWriteback = wb,
              .missKernel = {10, 3},
              .evictionKernel = {6, 2},
              .writebackKernel = {8, 2},
          })
    {
    }

    Task<>
    onMiss(EngineCtx &ctx) override
    {
        ++missCount;
        co_await ctx.compute(10, 3);
        for (unsigned i = 0; i < wordsPerLine; ++i)
            ctx.setLineWord(i, ctx.addr() + i);
    }

    Task<>
    onEviction(EngineCtx &ctx) override
    {
        ++evictCount;
        lastEvicted = ctx.addr();
        co_await ctx.compute(6, 2);
    }

    Task<>
    onWriteback(EngineCtx &ctx) override
    {
        ++wbCount;
        lastEvicted = ctx.addr();
        captured = ctx.capturedLine();
        co_await ctx.compute(8, 2);
    }

    int missCount = 0;
    int evictCount = 0;
    int wbCount = 0;
    Addr lastEvicted = 0;
    LineData captured{};
};

} // namespace

TEST(MemorySystem, StoreLoadRoundTrip)
{
    System sys(smallConfig());
    std::uint64_t got = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        co_await g.store(0x10000, 1234);
        got = co_await g.load(0x10000);
    });
    sys.run();
    EXPECT_EQ(got, 1234u);
    sys.mem().checkInvariants();
}

TEST(MemorySystem, CacheHitsGetFaster)
{
    System sys(smallConfig());
    Tick first = 0, second = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        Tick t0 = g.now();
        co_await g.load(0x20000);
        first = g.now() - t0;
        t0 = g.now();
        co_await g.load(0x20000);
        second = g.now() - t0;
    });
    sys.run();
    // First access goes to DRAM (>=100 cycles); second hits the L1.
    EXPECT_GT(first, 100u);
    EXPECT_LE(second, 2 * sys.config().mem.l1Lat);
    EXPECT_EQ(sys.stats().get("dram.reads"), 1);
}

TEST(MemorySystem, ConcurrentAtomicAddsSumCorrectly)
{
    System sys(smallConfig());
    const Addr counter = 0x40000;
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        sys.addThread(static_cast<int>(c), [&](Guest &g) -> Task<> {
            for (int i = 0; i < 50; ++i) {
                co_await g.atomicAdd(counter, 1);
                co_await g.exec(3);
            }
        });
    }
    sys.run();
    EXPECT_EQ(sys.mem().realStore().read64(counter),
              50u * sys.numCores());
    // Contention must have produced invalidations.
    EXPECT_GT(sys.stats().get("coherence.invalidations"), 0);
    sys.mem().checkInvariants();
}

TEST(MemorySystem, SharersSeeStoresAcrossTiles)
{
    System sys(smallConfig());
    const Addr flag = 0x50000;
    const Addr data = 0x51000;
    std::uint64_t observed = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        co_await g.store(data, 777);
        co_await g.store(flag, 1);
    });
    sys.addThread(1, [&](Guest &g) -> Task<> {
        // Spin on the flag (reads through coherence).
        while (co_await g.load(flag) == 0)
            co_await g.exec(16);
        observed = co_await g.load(data);
    });
    sys.run();
    EXPECT_EQ(observed, 777u);
    sys.mem().checkInvariants();
}

TEST(MemorySystem, PhantomMissCallbackFillsLine)
{
    System sys(smallConfig());
    TestMorph morph;
    std::uint64_t v0 = 0, v1 = 0, v0_again = 0;
    int misses_after_first = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        const Addr base = b->base;
        v0 = co_await g.load(base);
        v1 = co_await g.load(base + 8);
        misses_after_first = morph.missCount;
        v0_again = co_await g.load(base);
    });
    sys.run();
    EXPECT_EQ(morph.missCount, 1);
    EXPECT_EQ(misses_after_first, 1);
    EXPECT_EQ(v1, v0 + 1); // onMiss filled addr+i per word
    EXPECT_EQ(v0_again, v0);
    sys.mem().checkInvariants();
}

TEST(MemorySystem, PhantomEvictionsTriggerCallbacks)
{
    SystemConfig cfg = smallConfig();
    System sys(cfg);
    TestMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        // Touch far more lines than the L2 holds: evictions must fire.
        const unsigned lines =
            2 * cfg.mem.l2Size / lineBytes;
        for (unsigned i = 0; i < lines; ++i)
            co_await g.load(b->base + i * lineBytes);
        co_await g.flushData(b);
    });
    sys.run();
    const unsigned lines = 2 * cfg.mem.l2Size / lineBytes;
    EXPECT_EQ(morph.missCount, static_cast<int>(lines));
    // Every line eventually left the cache (capacity + flush), clean.
    EXPECT_EQ(morph.evictCount + morph.wbCount, static_cast<int>(lines));
    EXPECT_EQ(morph.wbCount, 0); // no stores -> onEviction only
    sys.mem().checkInvariants();
}

TEST(MemorySystem, DirtyPhantomLinesUseOnWriteback)
{
    System sys(smallConfig());
    TestMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        co_await g.store(b->base + 16, 99);
        co_await g.flushData(b);
    });
    sys.run();
    EXPECT_EQ(morph.wbCount, 1);
    EXPECT_EQ(morph.evictCount, 0);
    // Captured data: onMiss pattern with word 2 overwritten by the store.
    EXPECT_EQ(morph.captured[2], 99u);
    EXPECT_EQ(morph.captured[3], morph.lastEvicted + 3);
}

TEST(MemorySystem, FlushDataEmptiesTheRange)
{
    System sys(smallConfig());
    TestMorph morph;
    Addr base = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        base = b->base;
        for (unsigned i = 0; i < 8; ++i)
            co_await g.load(base + i * lineBytes);
        co_await g.flushData(b);
    });
    sys.run();
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_FALSE(sys.mem().cachedAnywhere(base + i * lineBytes));
    // Phantom store contents are gone too.
    EXPECT_EQ(sys.mem().phantomStore().read64(base), 0u);
}

TEST(MemorySystem, SharedPhantomRmoAccumulates)
{
    System sys(smallConfig());
    TestMorph morph(/*miss=*/true, /*evict=*/true, /*wb=*/true);
    Addr base = 0;
    // Register from core 0, then everyone pushes RMOs.
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Shared, 1 << 20);
        base = b->base;
        for (unsigned c = 0; c < 4; ++c) {
            for (int i = 0; i < 32; ++i)
                co_await g.rmoAdd(base + (i % 4) * 8, 1);
        }
        co_await g.rmoDrain();
    });
    sys.run();
    // onMiss filled words with addr+i; RMOs added on top. All pushes to
    // word w of line 0: 32 adds spread over words 0..3 (8 each) x 4 reps.
    for (unsigned w = 0; w < 4; ++w) {
        EXPECT_EQ(sys.mem().phantomStore().read64(base + w * 8),
                  base + w + 32);
    }
    EXPECT_EQ(morph.missCount, 1);
    EXPECT_GT(sys.stats().get("rmo.ops"), 0);
}

TEST(MemorySystem, RealMorphEvictionObserved)
{
    SystemConfig cfg = smallConfig();
    System sys(cfg);
    // Eviction-only morph over real data at the shared L3.
    TestMorph morph(/*miss=*/false, /*evict=*/true, /*wb=*/false);
    const Addr guarded = 0x100000;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerReal(
            morph, MorphLevel::Shared, guarded, lineBytes);
        (void)b;
        co_await g.load(guarded);
        // Blow the L3 with conflicting lines to evict the guarded one.
        for (unsigned i = 1; i < 4096; ++i)
            co_await g.load(guarded + i * 64 * 1024);
    });
    sys.run();
    EXPECT_GE(morph.evictCount, 1);
    EXPECT_EQ(morph.lastEvicted, guarded);
}

TEST(MemorySystem, LoadMultiOverlapsLatency)
{
    SystemConfig cfg = smallConfig();
    System sys(cfg);
    Tick serial = 0, overlapped = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        // 8 dependent loads, spread over distinct DRAM lines.
        Tick t0 = g.now();
        for (int i = 0; i < 8; ++i)
            co_await g.load(0x200000 + i * 4096);
        serial = g.now() - t0;
        // 8 independent loads.
        std::vector<Addr> addrs;
        for (int i = 0; i < 8; ++i)
            addrs.push_back(0x400000 + i * 4096);
        t0 = g.now();
        co_await g.loadMulti(addrs, nullptr);
        overlapped = g.now() - t0;
    });
    sys.run();
    EXPECT_LT(overlapped * 2, serial); // MLP at least halves the time
}

TEST(MemorySystem, UnregisterReleasesRange)
{
    System sys(smallConfig());
    TestMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Private, 1 << 20);
        co_await g.load(b->base);
        co_await g.unregister(b);
    });
    sys.run();
    EXPECT_EQ(sys.registry().numRegistered(), 0u);
    EXPECT_EQ(morph.evictCount, 1); // unregister flushes with callbacks
}

TEST(MemorySystem, EnergyAccumulates)
{
    System sys(smallConfig());
    sys.addThread(0, [&](Guest &g) -> Task<> {
        for (int i = 0; i < 64; ++i)
            co_await g.load(0x300000 + i * lineBytes);
        co_await g.exec(1000);
    });
    sys.run();
    EXPECT_GT(sys.totalEnergy(), 0.0);
    EXPECT_GT(sys.stats().get("energy.dram"), 0.0);
    EXPECT_GT(sys.stats().get("energy.core"), 0.0);
}

TEST(MemorySystem, DirectoryTracksTilesPast32)
{
    // 6x6 mesh (Fig. 25's 36 cores): tile 33's sharer bit must not
    // alias tile 1's. Tiles 33 and 1 read a line, tile 1 drops its copy,
    // then tile 2 stores: the store must invalidate tile 33's copy.
    SystemConfig cfg = SystemConfig::forCores(36);
    cfg.mem.l1Size = 1024;
    cfg.mem.l2Size = 4 * 1024;
    cfg.mem.prefetchEnable = false;
    System sys(cfg);
    const Addr line = 0x100000;
    int phase = 0;
    auto waitFor = [&](Guest &g, int p) -> Task<> {
        while (phase < p)
            co_await g.exec(64);
    };
    sys.addThread(33, [&](Guest &g) -> Task<> {
        co_await g.load(line);
        phase = 1;
    });
    sys.addThread(1, [&](Guest &g) -> Task<> {
        co_await waitFor(g, 1);
        co_await g.load(line);
        // Stream 4x the L2 through tile 1 so the line falls out; the
        // directory clear travels to the home bank as a message.
        for (Addr a = 0; a < 16 * 1024; a += lineBytes)
            co_await g.load(0x800000 + a);
        co_await g.exec(1000);
        phase = 2;
    });
    bool heldBeforeStore = false;
    bool droppedBeforeStore = false;
    sys.addThread(2, [&](Guest &g) -> Task<> {
        co_await waitFor(g, 2);
        heldBeforeStore = sys.mem().cachedInL2(33, line);
        droppedBeforeStore = !sys.mem().cachedInL2(1, line);
        co_await g.store(line, 42);
    });
    sys.run();
    ASSERT_TRUE(heldBeforeStore);
    ASSERT_TRUE(droppedBeforeStore);
    EXPECT_FALSE(sys.mem().cachedInL2(33, line));
    EXPECT_TRUE(sys.mem().cachedInL2(2, line));
    sys.mem().checkInvariants();
}
