/**
 * @file
 * Trace replay: drive a takotrace record stream through the full
 * MemorySystem / morph path as a guest workload.
 *
 * Replay is deterministic by construction: the issue order is a pure
 * function of the trace. The trace is decoded once, before the System
 * is built, into one vector of 16-byte records (address, size, op,
 * core) in trace order. Record i belongs to core `tenant % numCores`;
 * each core walks the vector and replays its own records in trace
 * order, batching runs of same-op records into multi-ops (bounded MLP,
 * like the hand-written workloads). Records wider than one word are
 * expanded to one access per touched cache line. Non-host metrics are
 * therefore bit-identical across -j1/-j8 (CI gates on it).
 */

#ifndef TAKO_TRACE_REPLAY_HH
#define TAKO_TRACE_REPLAY_HH

#include <string>

#include "workloads/common.hh"

namespace tako::trace
{

struct TraceReplayConfig
{
    std::string path;       ///< takotrace-v1 file to replay
    /**
     * Optional: re-record the replayed stream into a fresh takotrace
     * file. The recorded trace is the *normalized* form of the input —
     * word-granular accesses tagged tenant = issuing core, timestamped
     * with the simulated tick — so ingest-text -> replay -> record
     * yields a compact binary equivalent.
     */
    std::string recordPath;
    std::string label = "trace";
    unsigned batch = 8;     ///< multi-op batch bound (issue-window MLP)
    /** Non-memory work charged per record (compute between accesses). */
    std::uint64_t instrsPerRecord = 20;
};

struct TraceReplayResult
{
    bool ok = false;
    std::string error;
    RunMetrics metrics;
    std::uint64_t records = 0;     ///< records replayed
    std::uint64_t tenantsSeen = 0; ///< distinct tenant ids in the trace
};

/** Replay @p cfg.path on a system built from @p sys_cfg. */
TraceReplayResult runTraceReplay(const TraceReplayConfig &cfg,
                                 SystemConfig sys_cfg);

} // namespace tako::trace

#endif // TAKO_TRACE_REPLAY_HH
