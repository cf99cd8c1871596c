// Static-duration patterns safe under concurrent ensemble lanes:
// immutable tables, per-thread state, plain static functions, and one
// reasoned suppression.
#include <cstdint>
#include <map>
#include <string>

static const int kLaneWidth = 4;
static constexpr std::uint64_t kMixer = 6364136223846793005ULL;

const std::map<std::string, int> &
opcodeTable()
{
    static const std::map<std::string, int> table = {
        {"load", 0},
        {"store", 1},
    };
    return table;
}

std::uint64_t
perThreadScratch()
{
    static thread_local std::uint64_t scratch = 0;
    return ++scratch;
}

static std::uint64_t
mix(std::uint64_t v)
{
    return v * kMixer + kLaneWidth;
}

std::uint64_t
debugRunTally(std::uint64_t v)
{
    // takolint: ok(X1, debug-only tally, never read on the simulated path)
    static std::uint64_t tally = 0;
    tally += mix(v);
    return tally;
}
