/**
 * @file
 * Per-thread execution context of the running event.
 *
 * Every event executes "at" a logical stream: a tile, or the reserved
 * system stream 0. The kernel publishes that location here while the
 * event's callback runs, so the tile-to-tile router (EventQueue::post,
 * hopTo) draws each new event's tie-break key from the sending tile's
 * stream without carrying the tile through every coroutine frame.
 *
 * The context is thread-local because ensemble replicas run their own
 * queues concurrently, one per host lane.
 */

#ifndef TAKO_SIM_EXEC_CTX_HH
#define TAKO_SIM_EXEC_CTX_HH

#include <cstdint>

#include "sim/types.hh"

namespace tako
{

class EventQueue;

/** Where the current event is executing: queue and stream. */
struct ExecCtx
{
    EventQueue *queue = nullptr; ///< queue whose event is running
    std::uint32_t stream = 0;    ///< logical source stream (tile + 1)
};

namespace detail
{
inline thread_local ExecCtx execCtx;
} // namespace detail

/** Logical stream of the running event (0 = system/default). */
inline std::uint32_t ctxStream() { return detail::execCtx.stream; }

/** Queue the current event is executing on (null outside events). */
inline EventQueue *ctxQueue() { return detail::execCtx.queue; }

} // namespace tako

#endif // TAKO_SIM_EXEC_CTX_HH
