/**
 * @file
 * Mesh on-chip network model.
 *
 * Table 3: mesh, 128-bit flits and links, 2/1-cycle router/link delay.
 * Messages route XY. Each directed link keeps a next-free time; a message
 * of F flits occupies each link on its path for F cycles, so the model
 * captures both zero-load latency and serialization/queueing contention
 * without per-flit events.
 */

#ifndef TAKO_NOC_MESH_HH
#define TAKO_NOC_MESH_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include "energy/energy.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tako
{

class EventQueue;

struct MeshParams
{
    unsigned dimX = 4;
    unsigned dimY = 4;
    Tick routerDelay = 2;
    Tick linkDelay = 1;
    unsigned flitBytes = 16; ///< 128-bit flits.
};

class Mesh
{
  public:
    Mesh(const MeshParams &params, StatsRegistry &stats,
         EnergyModel &energy);

    unsigned numTiles() const { return params_.dimX * params_.dimY; }
    unsigned dimX() const { return params_.dimX; }
    unsigned dimY() const { return params_.dimY; }

    /** Manhattan hop count between two tiles. */
    unsigned hops(int src, int dst) const;

    /**
     * Latency of one router-to-router hop (routerDelay + linkDelay, at
     * least 1): the delay every tile-to-tile control message (unlock,
     * directory clear, phase broadcast, barrier arrival) is posted with.
     */
    Tick
    hopDelay() const
    {
        const Tick d = params_.routerDelay + params_.linkDelay;
        return d > 0 ? d : 1;
    }

    /**
     * Deliver a @p bytes -byte message from @p src to @p dst starting at
     * @p now; reserves link time on the path.
     * @return latency until the tail flit arrives.
     */
    Tick traverse(Tick now, int src, int dst, unsigned bytes);

    class Walk;

    /**
     * Event-driven delivery on @p eq: the message walks the XY path as
     * a chain of router-arrival events, reserving each directed link at
     * the head flit's actual arrival time, and the awaiting coroutine
     * resumes *at the destination tile* when the tail flit lands.
     * Latency arithmetic per hop matches traverse(); contention is
     * resolved in arrival order rather than at send time. The X leg
     * hops column to column (one event per router, each keyed on the
     * router's tile stream); the Y leg is one segment. Those per-hop
     * events fix the same-tick order the goldens encode (DESIGN.md
     * §4.1). When @p latency is given, the walk's latency (send to
     * tail-flit arrival) is added to *@p latency.
     *
     * The result is an awaiter, not a coroutine: `co_await walk(...)`
     * keeps the walk's state in the awaiting frame, and the arrival
     * event resumes the caller directly.
     */
    Walk walk(EventQueue &eq, int src, int dst, unsigned bytes,
              Tick *latency = nullptr);

    std::uint64_t flitHops() const { return flitHops_; }

    /**
     * Per-directed-link utilization (takoprof): piggybacks on the
     * linkFree_ reservation each traverse() already performs, counting
     * flit-cycles and messages per link. Off — and free — until enabled.
     * Index layout matches linkFree_: tile*4 + dir (E=0 W=1 N=2 S=3).
     */
    void enableLinkProfiling();
    const std::vector<std::uint64_t> &linkBusyCycles() const
    {
        return linkBusy_;
    }
    const std::vector<std::uint64_t> &linkMessages() const
    {
        return linkMsgs_;
    }

    void reset();

  private:
    /** Directed link index leaving @p tile in direction @p dir (0..3). */
    std::size_t
    linkIndex(int tile, int dir) const
    {
        return static_cast<std::size_t>(tile) * 4 + dir;
    }

    /** Flits a @p bytes -byte message occupies (at least one). */
    unsigned flitsOf(unsigned bytes) const;

    /**
     * Book link @p li for @p flits cycles for a head flit arriving at
     * @p head; returns the tick the head flit starts crossing.
     */
    Tick reserveLink(std::size_t li, Tick head, unsigned flits);

    /** Charge @p hops hops of a @p flits -flit message to the stats. */
    void chargeFlitHops(unsigned flits, unsigned hops);

    MeshParams params_;
    EnergyModel &energy_;
    Counter *messages_;
    Counter *localMessages_; ///< src == dst deliveries (no link, no hops)
    Counter *flitHopsStat_;
    std::vector<Tick> linkFree_;
    std::uint64_t flitHops_ = 0;
    std::vector<std::uint64_t> linkBusy_; ///< empty unless profiling
    std::vector<std::uint64_t> linkMsgs_;
};

/**
 * One in-flight Mesh::walk(). It lives in the awaiting coroutine's frame
 * as the `co_await` temporary, so a message allocates no frame of its
 * own: await_suspend() counts the message and books the first hop, each
 * X-leg router arrival is an event running step(), and the arrival event
 * at the destination adds the latency and resumes the caller.
 */
class [[nodiscard]] Mesh::Walk
{
  public:
    Walk(const Walk &) = delete;
    Walk &operator=(const Walk &) = delete;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> caller);
    void await_resume() const noexcept {}

  private:
    friend class Mesh;

    Walk(Mesh &mesh, EventQueue &eq, int src, int dst, unsigned bytes,
         Tick *latency)
        : mesh_(mesh), eq_(eq), latency_(latency), src_(src), dst_(dst),
          flits_(mesh.flitsOf(bytes))
    {
    }

    /** Book the next X-leg link, or the Y leg and the arrival. */
    void step();

    /** Arrival at the destination tile: charge and resume the caller. */
    void arrive();

    Mesh &mesh_;
    EventQueue &eq_;
    Tick *latency_;
    std::coroutine_handle<> caller_;
    /** Send tick until the arrival is booked, then the latency. */
    Tick ticks_ = 0;
    int src_;
    int dst_;
    int x_ = 0; ///< column of the router the head flit is at
    int y_ = 0;
    unsigned flits_;
    unsigned hops_ = 0;
};

inline Mesh::Walk
Mesh::walk(EventQueue &eq, int src, int dst, unsigned bytes, Tick *latency)
{
    return Walk(*this, eq, src, dst, bytes, latency);
}

} // namespace tako

#endif // TAKO_NOC_MESH_HH
