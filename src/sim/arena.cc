#include "sim/arena.hh"

#include <memory>
#include <new>
#include <vector>

namespace tako
{

namespace
{

struct ArenaState
{
    // Free blocks chained through their first pointer-sized word.
    void *freelist[FrameArena::kNumClasses] = {};
    std::vector<std::unique_ptr<std::byte[]>> slabs;
    FrameArena::Stats stats;
};

ArenaState &
state()
{
    // One arena per host thread: ensemble lanes each allocate frames
    // without locks, and two threads never share a free list. Function-local so the arena is usable from any static-init
    // context. The state is intentionally leaked rather than destroyed
    // at thread exit: a frame allocated on a worker thread may be freed
    // later from another thread (e.g. the owner destroys a drained
    // System after the lane joined), and the slab backing that frame
    // must outlive the thread that carved it. A freed block always
    // joins the freeing thread's free list, so cross-thread frees are
    // safe — blocks just migrate between per-thread lists.
    static thread_local ArenaState *s = new ArenaState;
    return *s;
}

constexpr std::size_t
classIndex(std::size_t bytes)
{
    // Round up to the granule; class i serves (i + 1) * kGranule bytes.
    if (bytes <= FrameArena::kGranule)
        return 0;
    return (bytes + FrameArena::kGranule - 1) / FrameArena::kGranule - 1;
}

/// Blocks carved per slab refill: enough to amortize, small enough that
/// unused classes don't bloat the footprint.
constexpr std::size_t kBlocksPerSlab = 64;

} // namespace

void *
FrameArena::allocate(std::size_t bytes)
{
    if (bytes > kMaxBlock) [[unlikely]] {
        ++state().stats.oversize;
        return ::operator new(bytes);
    }
    ArenaState &s = state();
    const std::size_t cls = classIndex(bytes);
    ++s.stats.allocs;
    ++s.stats.live;
    if (void *p = s.freelist[cls]) {
        s.freelist[cls] = *static_cast<void **>(p);
        ++s.stats.reuses;
        return p;
    }
    const std::size_t block = (cls + 1) * kGranule;
    s.slabs.push_back(std::make_unique<std::byte[]>(block * kBlocksPerSlab));
    std::byte *base = s.slabs.back().get();
    s.stats.slabBytes += block * kBlocksPerSlab;
    // Hand out the first block; chain the rest onto the free list in
    // address order.
    for (std::size_t i = kBlocksPerSlab; i-- > 1;) {
        void *p = base + i * block;
        *static_cast<void **>(p) = s.freelist[cls];
        s.freelist[cls] = p;
    }
    return base;
}

void
FrameArena::deallocate(void *p, std::size_t bytes) noexcept
{
    if (bytes > kMaxBlock) [[unlikely]] {
        ::operator delete(p);
        return;
    }
    ArenaState &s = state();
    const std::size_t cls = classIndex(bytes);
    *static_cast<void **>(p) = s.freelist[cls];
    s.freelist[cls] = p;
    --s.stats.live;
}

const FrameArena::Stats &
FrameArena::stats()
{
    return state().stats;
}

} // namespace tako
