/**
 * @file
 * Tests for ensemble lanes: the job -> lane map, and therefore the
 * merged output, must not depend on how many host threads run it; and
 * a single System never splits across lanes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/lanes.hh"
#include "system/system.hh"

using namespace tako;

TEST(RunLanes, JobToLaneMapIsAFunctionOfIndexOnly)
{
    // Each job writes into its own slot; with any lane count the merged
    // (index-ordered) output is the same.
    auto runWith = [](unsigned lanes) {
        std::vector<std::uint64_t> out(17, 0);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < out.size(); ++i) {
            jobs.push_back([&out, i] {
                std::uint64_t v = i + 1;
                for (int k = 0; k < 1000; ++k)
                    v = v * 2862933555777941757ULL + k;
                out[i] = v;
            });
        }
        runLanes(lanes, jobs);
        return out;
    };
    const auto ref = runWith(1);
    EXPECT_EQ(runWith(2), ref);
    EXPECT_EQ(runWith(4), ref);
    EXPECT_EQ(runWith(32), ref); // clamped to job count
}

TEST(SystemDeathTest, ShardsAboveOneFailLoudly)
{
    // One simulation runs on one event queue; host parallelism is for
    // ensembles of whole replicas.
    SystemConfig cfg = SystemConfig::forCores(16);
    cfg.shards = 4;
    EXPECT_DEATH({ System sys(cfg); }, "one event queue");
}

TEST(SystemDeathTest, ZeroTilesFailLoudly)
{
    SystemConfig cfg = SystemConfig::forCores(0);
    EXPECT_DEATH({ System sys(cfg); }, "at least one tile");
}

TEST(SystemDeathTest, MoreTilesThanTheDirectoryTracksFailLoudly)
{
    SystemConfig cfg = SystemConfig::forCores(MemorySystem::maxTiles + 1);
    EXPECT_DEATH({ System sys(cfg); }, "tracks at most 64");
}
