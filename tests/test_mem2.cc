/**
 * @file
 * Second round of memory-system tests: bandwidth model, streaming
 * stores, RMO fallback, barriers, exec accounting, run control, and the
 * in-order engine's serialization.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/mem_ctrl.hh"
#include "system/system.hh"
#include "workloads/common.hh"

using namespace tako;

namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg = SystemConfig::forCores(4);
    cfg.mem.l1Size = 1024;
    cfg.mem.l2Size = 4 * 1024;
    cfg.mem.l3BankSize = 16 * 1024;
    cfg.mem.prefetchEnable = false;
    return cfg;
}

} // namespace

TEST(MemCtrl, LatencyAndBandwidthQueueing)
{
    MemCtrl ctrl(100, 64.0 / 13.0); // ~13 cycles per line
    // Idle controller: fixed latency + service time.
    const Tick first = ctrl.access(1000);
    EXPECT_EQ(first, 100u + ctrl.serviceCycles());
    // Immediate second access queues behind the first.
    const Tick second = ctrl.access(1000);
    EXPECT_EQ(second, first + ctrl.serviceCycles());
    // After the channel drains, latency returns to baseline.
    const Tick later = ctrl.access(100000);
    EXPECT_EQ(later, first);
    EXPECT_EQ(ctrl.accesses(), 3u);
}

TEST(MemorySystem, StreamingStoresSkipMemoryReads)
{
    System sys(smallConfig());
    sys.addThread(0, [&](Guest &g) -> Task<> {
        std::vector<std::pair<Addr, std::uint64_t>> writes;
        for (unsigned i = 0; i < 64 * wordsPerLine; ++i)
            writes.emplace_back(0x800000 + i * 8, i);
        co_await g.streamStoreMulti(writes);
    });
    sys.run();
    // Write-combining allocation: no read-for-ownership fetches.
    EXPECT_EQ(sys.stats().get("dram.reads"), 0.0);
    // The data is functionally present.
    EXPECT_EQ(sys.mem().realStore().read64(0x800000 + 8), 1u);
}

TEST(MemorySystem, RegularStoresFetchForOwnership)
{
    System sys(smallConfig());
    sys.addThread(0, [&](Guest &g) -> Task<> {
        co_await g.store(0x900000, 5);
    });
    sys.run();
    EXPECT_EQ(sys.stats().get("dram.reads"), 1.0);
}

TEST(MemorySystem, RmoFallsBackToLocalAtomicWithoutMorph)
{
    System sys(smallConfig());
    sys.addThread(0, [&](Guest &g) -> Task<> {
        for (int i = 0; i < 10; ++i)
            co_await g.rmoAdd(0xa00000, 7);
        co_await g.rmoDrain();
    });
    sys.run();
    EXPECT_EQ(sys.mem().realStore().read64(0xa00000), 70u);
}

TEST(MemorySystem, AtomicSwapMultiReturnsOldValues)
{
    System sys(smallConfig());
    std::vector<std::uint64_t> old;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        std::vector<std::pair<Addr, std::uint64_t>> init;
        std::vector<Addr> addrs;
        for (unsigned i = 0; i < 8; ++i) {
            init.emplace_back(0xb00000 + i * 8, 100 + i);
            addrs.push_back(0xb00000 + i * 8);
        }
        co_await g.storeMulti(init);
        co_await g.atomicSwapMulti(addrs, 999, &old);
    });
    sys.run();
    ASSERT_EQ(old.size(), 8u);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(old[i], 100u + i);
        EXPECT_EQ(sys.mem().realStore().read64(0xb00000 + i * 8), 999u);
    }
}

TEST(SimBarrier, RendezvousRepeats)
{
    System sys(smallConfig());
    SimBarrier barrier(sys, 4);
    std::vector<int> phase_at_arrival;
    int phase = 0;
    for (unsigned c = 0; c < 4; ++c) {
        sys.addThread(static_cast<int>(c), [&, c](Guest &g) -> Task<> {
            for (int p = 0; p < 3; ++p) {
                co_await g.exec((c + 1) * 30); // skewed arrival
                co_await barrier.arrive();
                if (c == 0)
                    ++phase;
                co_await barrier.arrive();
                phase_at_arrival.push_back(phase);
            }
        });
    }
    sys.run();
    // Every thread observed each phase increment exactly once.
    ASSERT_EQ(phase_at_arrival.size(), 12u);
    for (std::size_t i = 0; i < phase_at_arrival.size(); ++i)
        EXPECT_EQ(phase_at_arrival[i], static_cast<int>(i / 4) + 1);
}

TEST(Core, ExecCarryAccumulatesFractionalSlots)
{
    System sys(smallConfig()); // issueWidth = 3
    Tick many_small = 0, one_big = 0;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        Tick t0 = g.now();
        for (int i = 0; i < 300; ++i)
            co_await g.exec(1);
        many_small = g.now() - t0;
        t0 = g.now();
        co_await g.exec(300);
        one_big = g.now() - t0;
    });
    sys.run();
    EXPECT_EQ(many_small, 100u);
    EXPECT_EQ(one_big, 100u);
}

TEST(System, RunForStopsEarly)
{
    System sys(smallConfig());
    bool finished = false;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        for (int i = 0; i < 1000; ++i)
            co_await g.exec(300);
        finished = true;
    });
    const Tick ran = sys.runFor(5000);
    EXPECT_LE(ran, 5001u);
    EXPECT_FALSE(finished);
}

TEST(System, RunForCutLeavesNextSystemPristine)
{
    {
        System cut(smallConfig());
        cut.addThread(0, [](Guest &g) -> Task<> {
            for (int i = 0; i < 100; ++i)
                co_await g.load(0x100000 + Addr(i) * lineBytes);
        });
        cut.runFor(50);
    }
    // A System built after a crash cut on the same thread is pre-run:
    // its constructor must not mistake the cut's last event for a live
    // one (setPhase would broadcast instead of setting in place).
    System next(smallConfig());
    EXPECT_EQ(ctxQueue(), nullptr);
    EXPECT_EQ(next.eq().pending(), 0u);
}

TEST(Engine, InorderSerializesConcurrentCallbacks)
{
    // N concurrent phantom misses: the dataflow engine overlaps them,
    // the in-order engine runs one at a time (Sec. 9 / Fig. 22).
    class SlowMorph : public Morph
    {
      public:
        SlowMorph()
            : Morph(MorphTraits{.name = "slow",
                                .hasMiss = true,
                                .missKernel = {60, 4}})
        {
        }

        Task<>
        onMiss(EngineCtx &ctx) override
        {
            co_await ctx.compute(60, 4);
            for (unsigned i = 0; i < wordsPerLine; ++i)
                ctx.setLineWord(i, 1);
        }
    };

    auto run_kind = [](EngineKind kind) {
        SystemConfig cfg = smallConfig();
        cfg.engine.kind = kind;
        System sys(cfg);
        SlowMorph morph;
        Tick cycles = 0;
        sys.addThread(0, [&](Guest &g) -> Task<> {
            const MorphBinding *b = co_await g.registerPhantom(
                morph, MorphLevel::Private, 1 << 20);
            std::vector<Addr> addrs;
            for (int i = 0; i < 8; ++i)
                addrs.push_back(b->base + i * lineBytes);
            const Tick t0 = g.now();
            co_await g.loadMulti(addrs, nullptr);
            cycles = g.now() - t0;
        });
        sys.run();
        return cycles;
    };

    const Tick dataflow = run_kind(EngineKind::Dataflow);
    const Tick inorder = run_kind(EngineKind::Inorder);
    const Tick ideal = run_kind(EngineKind::Ideal);
    EXPECT_GT(inorder, 2 * dataflow);
    EXPECT_LE(ideal, dataflow);
}

TEST(MemorySystem, SharedMorphFlushWalksAllBanks)
{
    class CountMorph : public Morph
    {
      public:
        CountMorph()
            : Morph(MorphTraits{.name = "count",
                                .hasMiss = true,
                                .hasWriteback = true,
                                .missKernel = {2, 1},
                                .writebackKernel = {2, 1}})
        {
        }

        Task<>
        onMiss(EngineCtx &ctx) override
        {
            co_await ctx.compute(2, 1);
        }

        Task<>
        onWriteback(EngineCtx &ctx) override
        {
            banks.insert(ctx.tile());
            co_await ctx.compute(2, 1);
        }

        std::set<int> banks;
    };

    System sys(smallConfig());
    CountMorph morph;
    sys.addThread(0, [&](Guest &g) -> Task<> {
        const MorphBinding *b = co_await g.registerPhantom(
            morph, MorphLevel::Shared, 1 << 20);
        // RMOs to lines spread across every bank.
        for (unsigned i = 0; i < 64; ++i)
            co_await g.rmoAdd(b->base + i * lineBytes, 1);
        co_await g.rmoDrain();
        co_await g.flushData(b);
    });
    sys.run();
    // Writebacks ran on multiple bank engines (one view per bank).
    EXPECT_GE(morph.banks.size(), 3u);
}
