/**
 * @file
 * Unit tests for the mesh NoC model: hop counts, zero-load latency,
 * serialization, link contention, and energy accounting, for both the
 * send-time traverse() and the event-driven walk() awaiter.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/exec_ctx.hh"
#include "sim/task.hh"

using namespace tako;

namespace
{

struct MeshFixture : ::testing::Test
{
    MeshFixture() : energy(stats), mesh(MeshParams{}, stats, energy) {}

    StatsRegistry stats;
    EnergyModel energy;
    Mesh mesh; // 4x4 default
};

} // namespace

TEST_F(MeshFixture, HopCounts)
{
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 1), 1u);
    EXPECT_EQ(mesh.hops(0, 3), 3u);
    EXPECT_EQ(mesh.hops(0, 4), 1u);  // one row down
    EXPECT_EQ(mesh.hops(0, 15), 6u); // corner to corner
    EXPECT_EQ(mesh.hops(5, 10), 2u);
    EXPECT_EQ(mesh.hops(10, 5), 2u); // symmetric
}

TEST_F(MeshFixture, ZeroLoadLatencyScalesWithDistance)
{
    // Single-flit message: hops * (router + link) + final router.
    const Tick one = mesh.traverse(0, 0, 1, 8);
    EXPECT_EQ(one, 1 * (2 + 1) + 2);
    const Tick far = mesh.traverse(1000, 0, 15, 8);
    EXPECT_EQ(far, 6 * (2 + 1) + 2);
}

TEST_F(MeshFixture, LocalDeliveryCrossesRouterOnce)
{
    EXPECT_EQ(mesh.traverse(0, 5, 5, 72), MeshParams{}.routerDelay);
}

TEST_F(MeshFixture, LocalDeliveriesCountedSeparately)
{
    mesh.enableLinkProfiling();
    mesh.traverse(0, 5, 5, 72); // local: no link, no flit-hops
    mesh.traverse(0, 0, 3, 8);  // remote: 3 hops
    mesh.traverse(10, 7, 7, 8); // local again
    EXPECT_EQ(stats.get("noc.messages"), 3.0);
    EXPECT_EQ(stats.get("noc.localMessages"), 2.0);
    // Reconciliation invariant takoprof validates: per-link message
    // totals cover exactly the remote traverses (once per hop).
    std::uint64_t linkMsgs = 0;
    for (const std::uint64_t m : mesh.linkMessages())
        linkMsgs += m;
    EXPECT_EQ(linkMsgs, 3u); // one remote message x 3 hops
    EXPECT_EQ(mesh.flitHops(), 3u);
}

TEST_F(MeshFixture, AllLocalTrafficTouchesNoLink)
{
    mesh.enableLinkProfiling();
    for (int t = 0; t < 16; ++t)
        mesh.traverse(0, t, t, 64);
    EXPECT_EQ(stats.get("noc.messages"), 16.0);
    EXPECT_EQ(stats.get("noc.localMessages"), 16.0);
    EXPECT_EQ(mesh.flitHops(), 0u);
    for (const std::uint64_t m : mesh.linkMessages())
        EXPECT_EQ(m, 0u);
}

TEST_F(MeshFixture, SerializationAddsTailLatency)
{
    // 72B = 5 flits: 4 extra cycles for the tail.
    const Tick small = mesh.traverse(0, 0, 1, 8);
    const Tick big = mesh.traverse(10000, 0, 1, 72);
    EXPECT_EQ(big, small + 4);
}

TEST_F(MeshFixture, ContentionQueuesOnSharedLinks)
{
    // Two 5-flit messages on the same link at the same time: the second
    // waits for the first's serialization.
    const Tick first = mesh.traverse(500, 0, 1, 72);
    const Tick second = mesh.traverse(500, 0, 1, 72);
    EXPECT_GT(second, first);
    // A message on a different link is unaffected.
    const Tick other = mesh.traverse(500, 4, 5, 72);
    EXPECT_EQ(other, first);
}

TEST_F(MeshFixture, ContentionDrainsOverTime)
{
    const Tick base = mesh.traverse(0, 0, 3, 72);
    // Much later, the link is free again.
    const Tick later = mesh.traverse(100000, 0, 3, 72);
    EXPECT_EQ(base, later);
}

TEST_F(MeshFixture, FlitHopAccounting)
{
    mesh.reset();
    mesh.traverse(0, 0, 3, 72); // 5 flits x 3 hops
    EXPECT_EQ(mesh.flitHops(), 15u);
    EXPECT_GT(stats.get("noc.flitHops"), 0.0);
    EXPECT_GT(stats.get("energy.noc"), 0.0);
}

TEST(Mesh, RectangularTopology)
{
    StatsRegistry stats;
    EnergyModel energy(stats);
    MeshParams p;
    p.dimX = 4;
    p.dimY = 2;
    Mesh mesh(p, stats, energy);
    EXPECT_EQ(mesh.numTiles(), 8u);
    EXPECT_EQ(mesh.hops(0, 7), 4u); // 3 east + 1 south
}

// ------------------------------------------------------------ Mesh::walk

namespace
{

/** What one walk observed, recorded by the awaiting coroutine. */
struct WalkResult
{
    Tick sent = 0;
    Tick arrived = 0;
    Tick latency = 0;
    std::uint32_t stream = 0;
    const EventQueue *queue = nullptr;
};

Task<>
walkProbe(Mesh &mesh, EventQueue &eq, int src, int dst, unsigned bytes,
          WalkResult &r)
{
    r.sent = eq.now();
    co_await mesh.walk(eq, src, dst, bytes, &r.latency);
    r.arrived = eq.now();
    r.stream = ctxStream();
    r.queue = ctxQueue();
}

/** A 4x4 mesh on a keyed queue, as System runs the full model. */
struct WalkRig
{
    WalkRig() : energy(stats), mesh(MeshParams{}, stats, energy)
    {
        eq.enableStreamKeys(16);
    }

    /** Start a walk from @p src at absolute tick @p when. */
    void
    send(Tick when, int src, int dst, unsigned bytes, WalkResult &r)
    {
        eq.postAbs(src, when, [this, src, dst, bytes, &r] {
            spawn(walkProbe(mesh, eq, src, dst, bytes, r));
        });
    }

    void run() { eq.run(); }

    EventQueue eq;
    StatsRegistry stats;
    EnergyModel energy;
    Mesh mesh;
};

} // namespace

/**
 * Every (src, dst) pair at 8 and 72 bytes, each message alone on the
 * mesh: the walk's latency equals traverse()'s zero-load latency, the
 * clock agrees, and the caller resumes on the destination's stream.
 */
TEST(MeshWalk, MatchesTraverseOnIdleMesh)
{
    WalkRig rig;
    StatsRegistry refStats;
    EnergyModel refEnergy(refStats);
    Mesh ref(MeshParams{}, refStats, refEnergy);

    struct Probe
    {
        int src, dst;
        unsigned bytes;
        WalkResult r;
    };
    std::vector<Probe> probes;
    for (const unsigned bytes : {8u, 72u})
        for (int src = 0; src < 16; ++src)
            for (int dst = 0; dst < 16; ++dst)
                probes.push_back({src, dst, bytes, {}});
    // 1000 ticks apart: every link is free again before the next send.
    for (std::size_t i = 0; i < probes.size(); ++i) {
        Probe &p = probes[i];
        rig.send(Tick(1000) * (i + 1), p.src, p.dst, p.bytes, p.r);
    }
    rig.run();

    for (const Probe &p : probes) {
        SCOPED_TRACE(::testing::Message() << p.src << "->" << p.dst << " "
                                          << p.bytes << "B");
        const Tick expect = ref.traverse(0, p.src, p.dst, p.bytes);
        ref.reset();
        EXPECT_EQ(p.r.latency, expect);
        EXPECT_EQ(p.r.arrived - p.r.sent, expect);
        EXPECT_EQ(p.r.stream, EventQueue::streamOf(p.dst));
        EXPECT_EQ(p.r.queue, &rig.eq);
    }
    EXPECT_EQ(rig.stats.get("noc.messages"), double(probes.size()));
    EXPECT_EQ(rig.stats.get("noc.localMessages"), 2.0 * 16);
    EXPECT_EQ(rig.stats.get("noc.flitHops"),
              refStats.get("noc.flitHops"));
    EXPECT_EQ(double(rig.mesh.flitHops()), rig.stats.get("noc.flitHops"));
}

TEST(MeshWalk, LocalDeliveryCostsOneRouter)
{
    WalkRig rig;
    WalkResult r;
    rig.send(50, 5, 5, 72, r);
    rig.run();
    EXPECT_EQ(r.latency, MeshParams{}.routerDelay);
    EXPECT_EQ(r.arrived, 50 + MeshParams{}.routerDelay);
    EXPECT_EQ(r.stream, EventQueue::streamOf(5));
    EXPECT_EQ(rig.stats.get("noc.messages"), 1.0);
    EXPECT_EQ(rig.stats.get("noc.localMessages"), 1.0);
    EXPECT_EQ(rig.mesh.flitHops(), 0u);
}

TEST(MeshWalk, ContendedLinkServesInArrivalOrder)
{
    WalkRig rig;
    // Same link, same tick: the first sent holds the link for its five
    // flits, the second waits them out.
    WalkResult first, second;
    rig.send(10, 0, 1, 72, first);
    rig.send(10, 0, 1, 72, second);
    // Link 1->2: the 0->2 message is sent earlier but its head reaches
    // router 1 at tick 103, after the 1->2 message took the link at
    // tick 102; arrival order, not send order, decides.
    WalkResult early, late;
    rig.send(100, 0, 2, 72, early);
    rig.send(102, 1, 2, 72, late);
    rig.run();

    const Tick oneHop = 1 * (2 + 1) + 2 + 4; // 5 flits
    const Tick twoHops = 2 * (2 + 1) + 2 + 4;
    EXPECT_EQ(first.latency, oneHop);
    EXPECT_EQ(second.latency, oneHop + 5);
    EXPECT_EQ(late.latency, oneHop);
    // Waits from 103 until 102 + 5 flits = 107.
    EXPECT_EQ(early.latency, twoHops + 4);
}
