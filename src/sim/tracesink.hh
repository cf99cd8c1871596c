/**
 * @file
 * The simulator's one trace channel: a Chrome trace-event (JSON) writer,
 * one event per line, directly loadable in Perfetto / chrome://tracing.
 *
 * Spans (memory transactions, callback dispatch/retire, DRAM bursts) are
 * recorded as "complete" (ph:"X") events and point occurrences (L2
 * hits/misses, evictions, invalidations, RMOs, morph registrations) as
 * instant (ph:"i") events, all with the simulated tick as the
 * timestamp; ticks render as microseconds in the viewer. Tracks are
 * organized as pid/tid pairs: pid 0 = per-tile memory, pid 1 = per-tile
 * engines, pid 2 = memory controllers, pid 3 = the morph registry.
 *
 * Each System owns its writer (SystemConfig::spanPath / spanMask) and
 * hands it to its components; emission sites gate on recording(), a
 * null check plus a mask test, so a System without a writer pays one
 * branch per site.
 */

#ifndef TAKO_SIM_TRACESINK_HH
#define TAKO_SIM_TRACESINK_HH

#include <cstdint>
#include <ostream>
#include <set>
#include <string>

#include "sim/types.hh"

namespace tako::trace
{

/** Trace categories; a writer records the ones in its mask. */
enum class Flag : std::uint32_t
{
    Cache = 1u << 0,     ///< L2 hits/misses, L2 and L3 evictions
    Coherence = 1u << 1, ///< directory invalidations
    Engine = 1u << 2,    ///< callback dispatch-to-retire spans
    Morph = 1u << 3,     ///< morph registrations
    Dram = 1u << 4,      ///< memory-controller read/write bursts
    Rmo = 1u << 5,       ///< remote memory operations
    Mem = 1u << 6,       ///< end-to-end memory transactions

    /** Count of defined flags; must be last. parseSpec() and "all"
     *  derive the set of valid bits from this sentinel, so adding a
     *  flag above (and a name in tracesink.cc) is all it takes. */
    NumFlags = 7,
};

/** Mask with every defined flag set ("all"). */
constexpr std::uint32_t
allFlagsMask()
{
    return (1u << static_cast<std::uint32_t>(Flag::NumFlags)) - 1;
}

/** The category's name in specs and in each event's "cat" field. */
const char *flagName(Flag f);

/**
 * Parse a comma-separated category spec ("cache,engine" / "all") into
 * @p mask (empty spec: no category). On an unknown category returns
 * false and sets @p err to a message naming it and listing the valid
 * ones.
 */
bool parseSpec(const std::string &spec, std::uint32_t &mask,
               std::string &err);

class ChromeTraceWriter
{
  public:
    /** Starts the JSON array; @p os must outlive the writer. Records
     *  the categories in @p mask. */
    explicit ChromeTraceWriter(std::ostream &os,
                               std::uint32_t mask = allFlagsMask());

    /** Closes the array (idempotent; also runs at destruction). */
    ~ChromeTraceWriter();

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    /** True while open and recording category @p f. */
    bool
    records(Flag f) const
    {
        return !closed_ && (mask_ & static_cast<std::uint32_t>(f)) != 0;
    }

    /**
     * One complete-span event: [ts, ts+dur) on track (pid, tid).
     * @p args_json, if nonempty, must be a serialized JSON object.
     */
    void completeEvent(const char *cat, const char *name, int pid,
                       int tid, Tick ts, Tick dur,
                       const std::string &args_json = "");

    /** One instant event at @p ts on track (pid, tid). */
    void instantEvent(const char *cat, const char *name, int pid, int tid,
                      Tick ts, const std::string &args_json = "");

    /**
     * Name a track the first time it is seen (emits thread_name /
     * process_name metadata events); later calls are no-ops.
     */
    void ensureTrack(int pid, const char *process, int tid,
                     const std::string &thread);

    void close();

    std::uint64_t eventsWritten() const { return events_; }

  private:
    void event(const char *ph, const char *cat, const char *name, int pid,
               int tid, Tick ts, Tick dur, bool has_dur,
               const std::string &args_json);

    std::ostream &os_;
    std::uint32_t mask_;
    bool closed_ = false;
    bool first_ = true;
    std::uint64_t events_ = 0;
    // Ordered (takolint D1): dedup-only today, but metadata tables are
    // natural candidates for an on-close iteration pass.
    std::set<std::uint64_t> tracks_;
    std::set<int> processes_;
};

/** @p w when it records category @p f, else null: the gate at every
 *  emission site (a null writer means the System is not tracing). */
inline ChromeTraceWriter *
recording(ChromeTraceWriter *w, Flag f)
{
    return w && w->records(f) ? w : nullptr;
}

} // namespace tako::trace

#endif // TAKO_SIM_TRACESINK_HH
