// Seeded X1 violations: static-duration mutable state in model code.
// Ensemble replicas run concurrently in one process, so these would be
// written by several host threads at once — a data race and a leak of
// one replica's state into another.
#include <cstdint>
#include <map>
#include <vector>

static std::uint64_t bootstrapCount = 0; // takolint-expect: X1

std::uint64_t
nextRequestId()
{
    static std::uint64_t counter = 0; // takolint-expect: X1
    return ++counter;
}

const std::map<int, int> &
routeCache()
{
    static std::map<int, int> cache; // takolint-expect: X1
    return cache;
}

int
scratchSlot()
{
    static std::vector<int> scratch{0, 0, 0}; // takolint-expect: X1
    return scratch[0];
}
