/**
 * @file
 * The tiled-CMP memory hierarchy: per-tile L1d + engine L1d + private L2,
 * banked inclusive shared L3 with a MESI directory, memory controllers,
 * and the täkō trigger paths (onMiss / onEviction / onWriteback).
 *
 * Timing model
 * ------------
 * Each access is a transaction: a coroutine that walks the hierarchy,
 * charging array/NoC/DRAM latencies on the global event queue and holding
 * per-line locks to serialize same-line transactions (which also provides
 * MSHR-style merging and the paper's per-address callback locking).
 * Directory state changes commit atomically at event granularity; remote
 * invalidations/downgrades charge round-trip latencies. See DESIGN.md for
 * the full list of simplifications.
 *
 * Functional model
 * ----------------
 * Data values live in two BackingStores (real and phantom) and are
 * mutated at access-commit events; caches simulate tags/coherence/timing
 * only. Phantom lines exist in the store only while cached: they are
 * zeroed at fill (before onMiss) and cleared at final eviction (after
 * capture for the eviction callback), matching the paper's semantics.
 */

#ifndef TAKO_MEM_MEMORY_SYSTEM_HH
#define TAKO_MEM_MEMORY_SYSTEM_HH

#include <array>
#include <coroutine>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "energy/energy.hh"
#include "mem/backing_store.hh"
#include "mem/cache_array.hh"
#include "mem/lock_table.hh"
#include "mem/mem_ctrl.hh"
#include "mem/morph_types.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "sim/tracesink.hh"

namespace tako
{

namespace prof
{
class Profiler;
} // namespace prof

struct MemParams
{
    unsigned tiles = 16;

    std::uint64_t l1Size = 32 * 1024;
    unsigned l1Ways = 8;
    Tick l1Lat = 3;

    std::uint64_t engL1Size = 8 * 1024;
    unsigned engL1Ways = 4;
    Tick engL1Lat = 1;

    std::uint64_t l2Size = 128 * 1024;
    unsigned l2Ways = 8;
    Tick l2TagLat = 2;
    Tick l2DataLat = 4;
    ReplPolicy l2Repl = ReplPolicy::Trrip;

    std::uint64_t l3BankSize = 512 * 1024;
    unsigned l3Ways = 16;
    Tick l3TagLat = 3;
    Tick l3DataLat = 5;
    ReplPolicy l3Repl = ReplPolicy::Trrip;

    unsigned memCtrls = 4;
    Tick memLat = 100;
    /** 11.8 GB/s per controller at 2.4 GHz. */
    double memBytesPerCycle = 11.8 / 2.4;

    unsigned coreMshrs = 16;
    unsigned engineMshrs = 8;

    bool prefetchEnable = true;
    unsigned prefetchDegree = 8;

    /**
     * Sample per-transaction latency breakdowns into mem.breakdown.*
     * histograms. Off by default: six histogram updates per demand
     * access are measurable on the L1-hit fast path, so — like span
     * tracing and the time-series sampler — you pay only when you ask.
     * takosim and the observability tests turn it on.
     */
    bool latBreakdown = false;
};

enum class MemCmd
{
    Load,
    Store,
    AtomicAdd,  ///< local atomic fetch-and-add (needs M state)
    AtomicSwap, ///< local atomic exchange (needs M state)
};

struct AccessReq
{
    MemCmd cmd = MemCmd::Load;
    Addr addr = 0;
    std::uint64_t wdata = 0;
    int tile = 0;
    bool fromEngine = false;
    bool prefetch = false;
    /**
     * Streaming (non-temporal / write-combining) store: on a miss the
     * line is allocated in M state without fetching it from memory.
     * Used for sequential append buffers (bins, journals, logs).
     */
    bool noFetch = false;
    /**
     * Use-once (non-temporal) load hint: fills insert at distant
     * re-reference priority so streaming reads (bin drains, log
     * replays) do not displace the resident working set.
     */
    bool useOnce = false;
    /**
     * Level of the täkō callback issuing this access (-1: not a
     * callback). Used to enforce the Sec. 4.3 restriction that callbacks
     * may not access data with a Morph at the same or a higher level.
     */
    int callbackLevel = -1;
};

/**
 * Per-transaction latency attribution. Every co_await on an access's
 * critical path is charged to exactly one component, so the components
 * always sum to the transaction's end-to-end latency. Aggregated into
 * the mem.breakdown.* histograms.
 */
struct LatBreakdown
{
    Tick cache = 0;        ///< tag/data array latencies (L1/L2/L3)
    Tick noc = 0;          ///< mesh traversals incl. coherence round trips
    Tick lockWait = 0;     ///< line locks, MSHRs, victim-way stalls
    Tick dram = 0;         ///< memory-controller queue + access
    Tick callbackWait = 0; ///< blocked on a täkō onMiss callback

    Tick
    sum() const
    {
        return cache + noc + lockWait + dram + callbackWait;
    }
};

class MemorySystem
{
  public:
    /** The L3 directory tracks sharers in one 64-bit mask per line. */
    static constexpr unsigned maxTiles = 64;

    /**
     * @p eq must be keyed (EventQueue::enableStreamKeys): every
     * inter-tile movement (NoC walks, directory messages, DRAM pinning)
     * is a tile post on it.
     */
    MemorySystem(const MemParams &params, EventQueue &eq,
                 StatsRegistry &stats, EnergyModel &energy, Mesh &noc);

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    void setMorphResolver(const MorphResolver *resolver)
    {
        resolver_ = resolver;
    }

    void setCallbackSink(CallbackSink *sink) { sink_ = sink; }

    /**
     * Install the takoprof profiler (nullptr to detach). Enables per-set
     * heat tracking in every cache array and feeds each demand lookup
     * into the miss classifiers. Purely observational: no timing event
     * depends on it.
     */
    void setProfiler(prof::Profiler *p);

    /** Record spans and instant events on @p w (nullptr: no tracing).
     *  Purely observational, like the profiler. */
    void setSpanWriter(trace::ChromeTraceWriter *w) { spans_ = w; }

    /**
     * Sum per-set heat across the arrays of @p level (1: core+engine
     * L1s, 2: private L2s, 3: L3 banks, folded by set index). Empty when
     * no profiler ever enabled heat tracking.
     */
    std::vector<std::uint64_t> aggregateSetHeat(int level) const;

    const MemParams &params() const { return params_; }

    /** Delay of one tile-to-tile control message (Mesh::hopDelay). */
    Tick hopDelay() const { return noc_.hopDelay(); }

    BackingStore &realStore() { return realStore_; }
    BackingStore &phantomStore() { return phantomStore_; }

    /** Store backing @p addr (phantom ranges vs. real memory). */
    BackingStore &
    storeFor(Addr addr)
    {
        return isPhantom(addr) ? phantomStore_ : realStore_;
    }

    /**
     * Full timing path for a core or engine access; resolves to the
     * loaded value (old value for atomics, 0 for stores/prefetches).
     */
    Task<std::uint64_t> access(AccessReq req);

    /**
     * Remote memory operation (relaxed atomic add, Sec. 8.1): executes
     * at the Morph's registered level without caching at the requester.
     * Falls back to a local atomic when no Morph covers the address.
     */
    Task<> remoteAtomicAdd(int tile, Addr addr, std::uint64_t delta);

    /**
     * flushData (Sec. 4.4): evict every cached line of the Morph's
     * range, triggering eviction callbacks, and wait for all of the
     * Morph's outstanding callbacks to retire.
     */
    Task<> flushMorphData(const MorphBinding &binding);

    /**
     * Flush an address range without triggering callbacks; used when
     * (un)registering Morphs over real addresses.
     */
    Task<> flushRangePlain(Addr base, std::uint64_t length);

    /** Label DRAM accesses by workload phase (Figs. 14/17). */
    void setPhase(const std::string &phase);

    /**
     * Optional tracer invoked at the issue of every demand access from
     * a core (prefetches, engine traffic, and täkō callbacks excluded).
     * Observational only — feeds takotrace recording (--trace-record).
     */
    void
    setAccessTracer(std::function<void(Tick, const AccessReq &)> tracer)
    {
        accessTracer_ = std::move(tracer);
    }
    std::uint64_t dramReads() const;
    std::uint64_t dramWrites() const;

    /** Count of transactions currently in flight (deadlock checks). */
    unsigned inflight() const;

    /**
     * Notify that an eviction callback for @p morph_id retired
     * (invoked by the engine layer via the `done` continuation).
     */
    void evictionCallbackRetired(std::uint32_t morph_id);

    /** Sanity checks on tag/directory state (tests). */
    void checkInvariants() const;

    /** Tag-state introspection for tests. */
    bool cachedInL2(int tile, Addr addr) const;
    bool cachedInL3(Addr addr) const;
    bool cachedAnywhere(Addr addr) const;
    Coh l2State(int tile, Addr addr) const;

  private:
    /** Per-tile model state: caches, bank locks, MSHRs. Touched only
     *  by events at that tile: coroutines hop() to the tile before
     *  binding a reference. */
    struct TileState
    {
        TileState(const MemParams &p, EventQueue &eq)
            : l1(p.l1Size, p.l1Ways, ReplPolicy::Lru),
              engL1(p.engL1Size, p.engL1Ways, ReplPolicy::Lru),
              l2(p.l2Size, p.l2Ways, p.l2Repl),
              l3(p.l3BankSize, p.l3Ways, p.l3Repl),
              tileLocks(eq), bankLocks(eq),
              coreMshrs(eq, p.coreMshrs), engineMshrs(eq, p.engineMshrs)
        {
        }

        CacheArray l1;    ///< core L1d
        CacheArray engL1; ///< engine L1d (tile-clustered coherence)
        CacheArray l2;    ///< private unified L2
        CacheArray l3;    ///< the L3 bank that lives on this tile
        LineLockTable tileLocks; ///< private-hierarchy transactions
        LineLockTable bankLocks; ///< L3-bank transactions
        Semaphore coreMshrs;
        Semaphore engineMshrs;

        // Multi-stream prefetcher state: one detector per 4KB region,
        // so interleaved random traffic does not break stream detection.
        struct Stream
        {
            std::uint64_t region = 0;
            Addr lastLine = invalidAddr;
            /** High-water mark of issued prefetches (no re-issue). */
            Addr nextIssue = 0;
            unsigned run = 0;
            std::uint64_t lastUse = 0;
        };
        static constexpr unsigned maxStreams = 16;
        // Flat, unordered: lookups are by region and the LRU victim has
        // the unique minimum lastUse (a monotonic clock), so no result
        // depends on slot order.
        std::array<Stream, maxStreams> streams{};
        unsigned streamCount = 0;
        std::uint64_t streamClock = 0;
        /** Lines with a prefetch in flight; unordered, membership only. */
        std::vector<Addr> inflightPrefetch;

        Stream *
        findStream(std::uint64_t region)
        {
            for (unsigned i = 0; i < streamCount; ++i) {
                if (streams[i].region == region)
                    return &streams[i];
            }
            return nullptr;
        }

        /** Remove @p s by moving the last live stream into its slot. */
        void
        dropStream(Stream *s)
        {
            *s = streams[--streamCount];
        }

        // Usefulness-based prefetch throttling: when prefetched lines
        // die unused (thrash), back the degree off; when they are
        // consumed, open it back up.
        unsigned pfDegree = 0; ///< 0 = initialize from params
        std::uint64_t pfIssuedWindow = 0;
        std::uint64_t pfUsefulWindow = 0;

        // rTLB-style one-entry MRU over the morph registry's interval
        // map: per-access resolve() hits here instead of walking the
        // std::map. Positive hits only; invalidated by comparing the
        // resolver's generation. Starts as an empty range.
        Addr morphMruBase = 1;
        Addr morphMruEnd = 0;
        const MorphBinding *morphMruMb = nullptr;
        std::uint64_t morphMruGen = ~std::uint64_t{0};
    };

    /** Outstanding eviction-callback tracking per morph (flushData). */
    struct Outstanding
    {
        std::uint64_t count = 0;
        std::vector<std::coroutine_handle<>> waiters;
    };

    bool isPhantom(Addr addr) const
    {
        return resolver_ && resolver_->isPhantomAddr(addr);
    }

    const MorphBinding *
    resolve(Addr addr) const
    {
        return resolver_ ? resolver_->resolve(addr) : nullptr;
    }

    /**
     * Tile-aware resolve: consults tile @p tile's one-entry MRU before
     * the registry's interval map. Register/unregister bumps the
     * resolver generation, which invalidates every tile's entry.
     */
    const MorphBinding *
    resolve(int tile, Addr addr) const
    {
        if (!resolver_)
            return nullptr;
        TileState &t = *tiles_[static_cast<std::size_t>(tile)];
        const std::uint64_t gen = resolver_->generation();
        if (gen == t.morphMruGen && addr >= t.morphMruBase &&
            addr < t.morphMruEnd)
            return t.morphMruMb;
        const MorphBinding *mb = resolver_->resolve(addr);
        if (mb) {
            t.morphMruBase = mb->base;
            t.morphMruEnd = mb->base + mb->length;
            t.morphMruMb = mb;
            t.morphMruGen = gen;
        }
        return mb;
    }

    int bankOf(Addr line) const
    {
        return static_cast<int>(lineNumber(line) % params_.tiles);
    }

    unsigned ctrlOf(Addr line) const
    {
        return static_cast<unsigned>(lineNumber(line) % params_.memCtrls);
    }

    int ctrlTile(unsigned ctrl) const { return ctrlTiles_[ctrl]; }

    /**
     * Walk the NoC from @p src to @p dst, migrating the transaction to
     * the destination tile; everything after the co_await runs there.
     * Charges the walk to @p bd 's noc component when given. Returns
     * Mesh::walk's awaiter, which lives in the awaiting frame: a message
     * costs no coroutine frame of its own.
     */
    Mesh::Walk hop(int src, int dst, unsigned bytes,
                   LatBreakdown *bd = nullptr);

    /**
     * Directory-inflicted visit to @p tile on behalf of bank @p bank:
     * walks over, invalidates (or downgrades, @p downgrade) the tile's
     * copies of @p line at that tile, walks back, and merges collected
     * dirtiness into @p dirty_out at the bank. Spawned per sharer with
     * a Join at the bank, so remote cache mutations always execute at
     * their owner's tile while the bank waits the true round-trip
     * time.
     */
    Task<> coherenceVisit(int bank, int tile, Addr line, bool downgrade,
                          bool *dirty_out);

    /** Snapshot of an L3 way taken at eviction-decision time. */
    struct L3Evict
    {
        Addr line = 0;
        bool dirty = false;
        std::uint64_t copies = 0; ///< sharers | owner bit
    };

    /**
     * The slow tail of an L3 eviction: back-invalidation visits, data
     * capture (after the visits, so a remote M owner can no longer
     * write), morph callbacks, writeback/zero. Runs at the bank with the
     * victim line's bank lock held by the caller — any refetch of the
     * line blocks until this completes, which is what keeps phantom
     * zeroing ahead of the next fill.
     */
    Task<> evictL3Core(int bank_tile, L3Evict ev);

    /** Detached wrapper for the capacity-eviction path: takes the
     *  victim's bank lock (synchronously — the victim scan only picks
     *  unlocked lines) and releases it when the core task finishes. */
    Task<> evictL3Detached(int bank_tile, L3Evict ev);

    /**
     * Ensure @p line is present in tile @p tile's L2 with at least
     * Shared (or Exclusive if @p want_m) permission, via the L3
     * directory. Assumes the tile line lock is held.
     */
    Task<> fetchIntoL2(int tile, Addr line, bool want_m, bool engine,
                       const MorphBinding *mb, bool no_fetch,
                       bool use_once, LatBreakdown &bd);

    /** DRAM read on the critical path (charges NoC + controller). */
    Task<> dramFetch(int bank_tile, Addr line,
                     LatBreakdown *bd = nullptr);

    /** Detached DRAM write (writebacks). */
    void dramWriteback(int bank_tile, Addr line);
    Task<> dramWritebackTask(int bank_tile, Addr line);

    /** Detached L2->L3 writeback traffic (timing/energy only). */
    Task<> writebackToL3Task(int tile, Addr line);

    /** Clear tile presence in the directory on a private eviction:
     *  posted to the home bank's tile one hop ahead, tolerant of
     *  the L3 copy being gone by the time the message lands. */
    void updateDirectoryOnPrivateEvict(int tile, Addr line, bool dirty);

    /**
     * Insert into L2, evicting as needed. Retries (with backoff) when
     * every way of the set is held by an in-flight transaction.
     */
    Task<CacheWay *> insertL2(int tile, Addr line, Coh state,
                              const MorphBinding *mb, bool engine_fill,
                              bool use_once = false,
                              LatBreakdown *bd = nullptr);

    /** Allocate an L3 way for @p line (same retry discipline). */
    Task<CacheWay *> allocL3Way(int bank_tile, Addr line,
                                const MorphBinding *mb, bool engine_fill,
                                LatBreakdown *bd = nullptr);

    /** Insert into an L1, evicting as needed. */
    void insertL1(int tile, bool engine, Addr line, bool cold = false);

    /**
     * Evict an L2 way: invalidate L1 copies, update directory, trigger
     * the eviction callback for Private morph lines, write back dirty
     * real lines, clear final phantom lines.
     */
    void evictL2Way(int tile, CacheWay &w);

    /** Count the eviction, snapshot @p w (a way of @p bank's L3) for
     *  evictL3Core, and invalidate the way. */
    L3Evict snapL3Way(int bank, CacheWay &w);

    /**
     * Remove @p line from tile @p tile's private caches (L3 eviction or
     * invalidation). Returns true if a dirty copy was merged.
     */
    bool invalidateTileCopies(int tile, Addr line, bool trigger_callbacks);

    /** Follow-up a retiring eviction callback releases, at the
     *  callback's tile and line. */
    enum class AfterEviction : std::uint8_t
    {
        Nothing,
        DramWriteback, ///< dramWriteback(): dirty shared-morph L3 victim
        WritebackToL3, ///< writebackToL3Task(): dirty private-morph L2 victim
    };

    /** Launch the eviction/writeback callback for a captured line. */
    void launchEvictionCallback(int engine_tile, Addr line,
                                const MorphBinding &mb, bool dirty,
                                LineData data,
                                AfterEviction after = AfterEviction::Nothing);

    /** Apply the functional effect of a committed access. */
    std::uint64_t doFunctional(const AccessReq &req);

    /**
     * Per-access epilogue: fold @p bd into the mem.breakdown.*
     * histograms (demand accesses only) and emit the transaction span
     * when a trace sink is installed.
     */
    void finishAccess(const AccessReq &req, Tick start,
                      const LatBreakdown &bd);

    /**
     * True when some consumer wants per-access observability: either
     * breakdown histograms (MemParams::latBreakdown) or memory-
     * transaction spans (a span writer recording Flag::Mem). The
     * L1-hit fast path skips all attribution work when this is false.
     */
    bool observing() const
    {
        return params_.latBreakdown ||
               trace::recording(spans_, trace::Flag::Mem);
    }

    /**
     * One instant event of category @p f named @p name on tile @p tile's
     * memory track, its args object printf-formatted from @p args_fmt.
     * Callers check spans_ inline first; out of line, the formatting
     * adds nothing to the frames of the coroutines that call it.
     */
    void tileInstant(trace::Flag f, const char *name, int tile,
                     const char *args_fmt, ...)
        __attribute__((format(printf, 5, 6)));

    /** The span writer, with tile @p tile's memory track named, when it
     *  records @p f; else null. */
    trace::ChromeTraceWriter *
    tileTrack(trace::Flag f, int tile)
    {
        trace::ChromeTraceWriter *w = trace::recording(spans_, f);
        if (w) [[unlikely]]
            w->ensureTrack(0, "memory", tile, strprintf("tile%d", tile));
        return w;
    }

    /** Stream-prefetcher bookkeeping; spawns prefetch transactions. */
    void maybePrefetch(int tile, Addr miss_line);

    Task<> prefetchLine(int tile, Addr line);

    MemParams params_;
    EventQueue &eq_;
    StatsRegistry &stats_;
    EnergyModel &energy_;
    Mesh &noc_;

    const MorphResolver *resolver_ = nullptr;
    CallbackSink *sink_ = nullptr;
    prof::Profiler *prof_ = nullptr;
    trace::ChromeTraceWriter *spans_ = nullptr;

    BackingStore realStore_;
    BackingStore phantomStore_;

    std::vector<std::unique_ptr<TileState>> tiles_;
    std::vector<MemCtrl> ctrls_;
    std::vector<int> ctrlTiles_;

    /** Eviction-callback accounting, homed at tile 0: every +1/-1
     *  arrives as a posted message, so flushData's await and the
     *  retirements serialize on tile 0's stream. */
    std::map<std::uint32_t, Outstanding> outstanding_;

    /** Demand transactions begun and not yet finished. */
    unsigned inflight_ = 0;

    /**
     * Per-controller phase replica: the phase label plus the lazily-
     * resolved "dram.reads.<phase>" handles. setPhase() broadcasts the
     * new label to every controller's tile one hop ahead; DRAM events
     * read only their own controller's replica, so the switch lands at
     * the same tick and key order the goldens encode.
     */
    struct PhaseLane
    {
        std::string phase = "default";
        Counter *reads = nullptr;
        Counter *writes = nullptr;
    };

    std::vector<PhaseLane> phaseLanes_;

    std::function<void(Tick, const AccessReq &)> accessTracer_;

    // Stats, as stable StatsRegistry handles cached at construction so
    // hot-path increments never re-hash the name.
    Counter *l1Hits_;
    Counter *l1Misses_;
    Counter *l2Hits_;
    Counter *l2Misses_;
    Counter *l3Hits_;
    Counter *l3Misses_;
    Counter *dramReads_;
    Counter *dramWrites_;
    Counter *invalidations_;
    Counter *downgrades_;
    Counter *l2Evictions_;
    Counter *l3Evictions_;
    Counter *rmoOps_;
    Counter *prefetchesIssued_;

    // Per-transaction latency breakdown (demand accesses; cycles each).
    Histogram *hBdCache_;
    Histogram *hBdNoc_;
    Histogram *hBdLock_;
    Histogram *hBdDram_;
    Histogram *hBdCbWait_;
    Histogram *hBdTotal_;
};

} // namespace tako

#endif // TAKO_MEM_MEMORY_SYSTEM_HH
