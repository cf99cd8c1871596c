#include "noc/mesh.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/event_queue.hh"

namespace tako
{

namespace
{

enum Direction : int
{
    East = 0,
    West = 1,
    North = 2,
    South = 3,
};

} // namespace

Mesh::Mesh(const MeshParams &params, StatsRegistry &stats,
           EnergyModel &energy)
    : params_(params),
      energy_(energy),
      messages_(stats.handle("noc.messages")),
      localMessages_(stats.handle("noc.localMessages")),
      flitHopsStat_(stats.handle("noc.flitHops")),
      linkFree_(static_cast<std::size_t>(params.dimX) * params.dimY * 4, 0)
{
}

unsigned
Mesh::hops(int src, int dst) const
{
    const int sx = src % static_cast<int>(params_.dimX);
    const int sy = src / static_cast<int>(params_.dimX);
    const int dx = dst % static_cast<int>(params_.dimX);
    const int dy = dst / static_cast<int>(params_.dimX);
    return static_cast<unsigned>(std::abs(sx - dx) + std::abs(sy - dy));
}

unsigned
Mesh::flitsOf(unsigned bytes) const
{
    return std::max<unsigned>(
        1, static_cast<unsigned>(divCeil(bytes, params_.flitBytes)));
}

Tick
Mesh::reserveLink(std::size_t li, Tick head, unsigned flits)
{
    Tick &free = linkFree_[li];
    const Tick start = std::max(head, free);
    free = start + flits;
    if (!linkBusy_.empty()) {
        linkBusy_[li] += flits;
        ++linkMsgs_[li];
    }
    return start;
}

void
Mesh::chargeFlitHops(unsigned flits, unsigned hops)
{
    const std::uint64_t n = std::uint64_t(flits) * hops;
    flitHops_ += n;
    *flitHopsStat_ += static_cast<double>(n);
    energy_.nocFlitHops(n);
}

Tick
Mesh::traverse(Tick now, int src, int dst, unsigned bytes)
{
    ++*messages_;
    const unsigned flits = flitsOf(bytes);

    if (src == dst) {
        // Local delivery still crosses the tile router once, but books
        // no flit-hops and touches no link — count it separately so the
        // per-link totals reconcile with noc.messages.
        ++*localMessages_;
        return params_.routerDelay;
    }

    int x = src % static_cast<int>(params_.dimX);
    int y = src / static_cast<int>(params_.dimX);
    const int dx = dst % static_cast<int>(params_.dimX);
    const int dy = dst / static_cast<int>(params_.dimX);

    Tick head = now;
    unsigned hop_count = 0;
    while (x != dx || y != dy) {
        int dir;
        int nx = x, ny = y;
        if (x != dx) {
            dir = (dx > x) ? East : West;
            nx += (dx > x) ? 1 : -1;
        } else {
            dir = (dy > y) ? South : North;
            ny += (dy > y) ? 1 : -1;
        }
        const int tile = y * static_cast<int>(params_.dimX) + x;
        const Tick start = reserveLink(linkIndex(tile, dir), head, flits);
        head = start + params_.routerDelay + params_.linkDelay;
        ++hop_count;
        x = nx;
        y = ny;
    }
    // Destination router plus tail-flit serialization.
    head += params_.routerDelay + (flits - 1);

    chargeFlitHops(flits, hop_count);
    return head - now;
}

void
Mesh::Walk::await_suspend(std::coroutine_handle<> caller)
{
    caller_ = caller;
    ++*mesh_.messages_;

    if (src_ == dst_) {
        ++*mesh_.localMessages_;
        ticks_ = mesh_.params_.routerDelay;
        eq_.post(src_, ticks_, [this] { arrive(); });
        return;
    }

    const int dimX = static_cast<int>(mesh_.params_.dimX);
    ticks_ = eq_.now();
    x_ = src_ % dimX;
    y_ = src_ / dimX;
    step();
}

void
Mesh::Walk::step()
{
    Mesh &m = mesh_;
    const int dimX = static_cast<int>(m.params_.dimX);
    const int dx = dst_ % dimX;

    // X leg: each reservation happens in an event at the link's source
    // tile at the head flit's arrival tick, and the next arrival is
    // routerDelay + linkDelay ahead, keyed on the next router's stream.
    if (x_ != dx) {
        const int dir = (dx > x_) ? East : West;
        const Tick start = m.reserveLink(m.linkIndex(y_ * dimX + x_, dir),
                                         eq_.now(), flits_);
        ++hops_;
        x_ += (dx > x_) ? 1 : -1;
        eq_.postAbs(y_ * dimX + x_,
                    start + m.params_.routerDelay + m.params_.linkDelay,
                    [this] { step(); });
        return;
    }

    // Y leg: the remaining links are reserved here and now, in one
    // event, with the same per-hop recurrence traverse() uses.
    const int dy = dst_ / dimX;
    Tick head = eq_.now();
    while (y_ != dy) {
        const int dir = (dy > y_) ? South : North;
        const Tick start =
            m.reserveLink(m.linkIndex(y_ * dimX + x_, dir), head, flits_);
        head = start + m.params_.routerDelay + m.params_.linkDelay;
        ++hops_;
        y_ += (dy > y_) ? 1 : -1;
    }
    // Destination router plus tail-flit serialization.
    head += m.params_.routerDelay + (flits_ - 1);

    m.chargeFlitHops(flits_, hops_);
    ticks_ = head - ticks_;
    eq_.postAbs(dst_, head, [this] { arrive(); });
}

void
Mesh::Walk::arrive()
{
    if (latency_)
        *latency_ += ticks_;
    // Last touch of *this: resuming the caller ends the co_await
    // expression that owns this awaiter.
    caller_.resume();
}

void
Mesh::enableLinkProfiling()
{
    linkBusy_.assign(linkFree_.size(), 0);
    linkMsgs_.assign(linkFree_.size(), 0);
}

void
Mesh::reset()
{
    std::fill(linkFree_.begin(), linkFree_.end(), 0);
    flitHops_ = 0;
    std::fill(linkBusy_.begin(), linkBusy_.end(), 0);
    std::fill(linkMsgs_.begin(), linkMsgs_.end(), 0);
}

} // namespace tako
