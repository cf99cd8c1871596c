#include "sim/lanes.hh"

#include <algorithm>
#include <thread>

namespace tako
{

void
runLanes(unsigned lanes, const std::vector<std::function<void()>> &jobs)
{
    if (jobs.empty())
        return;
    const unsigned n = std::clamp<unsigned>(
        lanes, 1, static_cast<unsigned>(jobs.size()));
    if (n == 1) {
        for (const std::function<void()> &job : jobs)
            job();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned w = 0; w < n; ++w) {
        pool.emplace_back([w, n, &jobs] {
            for (std::size_t i = w; i < jobs.size(); i += n)
                jobs[i]();
        });
    }
    for (std::thread &t : pool)
        t.join();
}

} // namespace tako
